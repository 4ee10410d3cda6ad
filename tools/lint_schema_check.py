#!/usr/bin/env python3
"""Schema-drift gate over the lint/cost JSON artifacts CI archives.

The machine-readable shapes of `eslev_lint --json` (one object per
script, DiagnosticsToJson) and `eslev_lint --cost --json` (an array of
EXPLAIN COST reports per script) are contracts: dashboards parse them,
and tests/analysis/json_schema_test.cc pins them at the unit level.
This script re-checks the *artifacts* CI actually uploads, so a drift
that only shows up on real corpus queries (a conditional field, a
scientific-notation float, a renamed verdict) still fails the build.

It also checks that lint and cost agree on retention: a script has an
`unbounded-retention` diagnostic exactly when one of its cost reports
has a SeqOperator or ExceptionSeqOperator row whose state is unbounded
(the lint renders that bound, DESIGN.md §11). Likewise on sharding: a
script has a `shard-fallback` diagnostic exactly when one of its cost
reports has the sharding verdict "single-shard" (both read one
partitioning verdict).

Usage:
  python3 tools/lint_schema_check.py --json-dir bench-json

Exits 1 listing every violation; exits 2 when the directory holds no
artifacts at all (an upstream sweep silently produced nothing).
"""

import argparse
import json
import pathlib
import re
import sys

# Key sequences mirror the goldens in tests/analysis/json_schema_test.cc.
LINT_TOP_KEYS = ["diagnostics", "errors", "warnings"]
DIAG_KEYS = ["severity", "rule", "message", "line", "column", "offset", "length"]
SEVERITIES = {"error", "warning"}

COST_REPORT_KEYS = [
    "cost_model_version", "statement",
    "operators", "totals", "sharding",
]
COST_OP_KEYS = ["op", "label", "in_rate", "out_rate", "cpu_cost",
                "state", "state_gauges"]
COST_STATE_KEYS = ["bounded", "tuples", "growth_per_sec", "formula"]
COST_TOTALS_KEYS = ["cpu_cost", "state_bounded", "state_tuples",
                    "state_growth_per_sec"]
COST_SHARDING_KEYS = ["verdict", "assumed_shards", "single_shard_cost",
                      "per_shard_cost", "fallback_delta"]
COST_MODEL_VERSION = 2
VERDICTS = {"partitionable", "single-shard", "undecided"}

# FormatCostNumber never emits scientific notation, NaN or infinities;
# a digit-e-sign-digit sequence anywhere in the raw text is drift.
SCIENTIFIC = re.compile(r"\d[eE][+-]?\d")


def check_keys(got: dict, want: list, where: str, errors: list) -> bool:
    """Exact ordered key match (json.loads preserves document order)."""
    if list(got.keys()) != want:
        errors.append(f"{where}: keys {list(got.keys())} != {want}")
        return False
    return True


def check_lint_file(path: pathlib.Path, errors: list) -> None:
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        errors.append(f"{path.name}: top level is not an object")
        return
    check_keys(doc, LINT_TOP_KEYS, path.name, errors)
    for i, diag in enumerate(doc.get("diagnostics", [])):
        where = f"{path.name} diagnostics[{i}]"
        keys = list(diag.keys())
        # `hint` is the only optional field and always trails.
        if keys != DIAG_KEYS and keys != DIAG_KEYS + ["hint"]:
            errors.append(f"{where}: keys {keys} != {DIAG_KEYS} (+hint?)")
        if diag.get("severity") not in SEVERITIES:
            errors.append(f"{where}: severity {diag.get('severity')!r}")


def check_cost_file(path: pathlib.Path, errors: list) -> None:
    text = path.read_text()
    if SCIENTIFIC.search(text) or "nan" in text or "inf" in text:
        errors.append(f"{path.name}: scientific notation or non-finite number")
    doc = json.loads(text)
    if not isinstance(doc, list) or not doc:
        errors.append(f"{path.name}: expected a non-empty array of reports")
        return
    for i, report in enumerate(doc):
        where = f"{path.name} report[{i}]"
        if not check_keys(report, COST_REPORT_KEYS, where, errors):
            continue
        if report["cost_model_version"] != COST_MODEL_VERSION:
            errors.append(
                f"{where}: cost_model_version {report['cost_model_version']}"
                f" != {COST_MODEL_VERSION} (schema change without a gate"
                " update?)")
        if not report["operators"]:
            errors.append(f"{where}: empty operators list")
        for k, op in enumerate(report["operators"]):
            opw = f"{where} operators[{k}]"
            if check_keys(op, COST_OP_KEYS, opw, errors):
                check_keys(op["state"], COST_STATE_KEYS, opw + ".state",
                           errors)
        check_keys(report["totals"], COST_TOTALS_KEYS, where + ".totals",
                   errors)
        if check_keys(report["sharding"], COST_SHARDING_KEYS,
                      where + ".sharding", errors):
            if report["sharding"]["verdict"] not in VERDICTS:
                errors.append(
                    f"{where}: verdict {report['sharding']['verdict']!r}")


SEQ_OPS = {"SeqOperator", "ExceptionSeqOperator"}


def check_retention_agreement(lint_path: pathlib.Path,
                              cost_path: pathlib.Path, errors: list) -> None:
    lint = json.loads(lint_path.read_text())
    cost = json.loads(cost_path.read_text())
    flagged = any(d.get("rule") == "unbounded-retention"
                  for d in lint.get("diagnostics", []))
    unbounded = any(op.get("op") in SEQ_OPS
                    and not op.get("state", {}).get("bounded", True)
                    for report in cost for op in report.get("operators", []))
    if flagged != unbounded:
        errors.append(
            f"{lint_path.name}: unbounded-retention "
            f"{'reported' if flagged else 'not reported'}, but "
            f"{cost_path.name} has "
            f"{'an unbounded' if unbounded else 'no unbounded'} SEQ row")


def check_sharding_agreement(lint_path: pathlib.Path,
                             cost_path: pathlib.Path, errors: list) -> None:
    lint = json.loads(lint_path.read_text())
    cost = json.loads(cost_path.read_text())
    flagged = any(d.get("rule") == "shard-fallback"
                  for d in lint.get("diagnostics", []))
    single_shard = any(report.get("sharding", {}).get("verdict")
                       == "single-shard" for report in cost)
    if flagged != single_shard:
        errors.append(
            f"{lint_path.name}: shard-fallback "
            f"{'reported' if flagged else 'not reported'}, but "
            f"{cost_path.name} has "
            f"{'a' if single_shard else 'no'} single-shard verdict")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json-dir", default="bench-json",
                        help="directory holding *.lint.json / *.cost.json")
    args = parser.parse_args()

    root = pathlib.Path(args.json_dir)
    lint_files = sorted(root.glob("*.lint.json"))
    cost_files = sorted(root.glob("*.cost.json"))
    if not lint_files and not cost_files:
        print(f"lint_schema_check: no artifacts under {root}", file=sys.stderr)
        return 2

    errors: list = []
    for path in lint_files:
        try:
            check_lint_file(path, errors)
        except json.JSONDecodeError as e:
            errors.append(f"{path.name}: invalid JSON ({e})")
    for path in cost_files:
        try:
            check_cost_file(path, errors)
        except json.JSONDecodeError as e:
            errors.append(f"{path.name}: invalid JSON ({e})")
    for lint_path in lint_files:
        stem = lint_path.name[:-len(".lint.json")]
        cost_path = root / f"{stem}.cost.json"
        if not cost_path.exists():
            continue
        try:
            check_retention_agreement(lint_path, cost_path, errors)
            check_sharding_agreement(lint_path, cost_path, errors)
        except (json.JSONDecodeError, AttributeError, TypeError):
            pass  # the schema checks above already report the file

    for err in errors:
        print(f"SCHEMA DRIFT: {err}")
    print(f"lint_schema_check: {len(lint_files)} lint + {len(cost_files)} "
          f"cost artifacts, {len(errors)} violations")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
