#!/usr/bin/env python3
"""End-to-end test for the eslev_lint CLI exit-code contract.

Usage: lint_cli_test.py /path/to/eslev_lint

Covers the three documented exit codes (eslev_lint --help):
  0  no error-severity lint findings
  1  at least one error-severity lint finding
  2  a file could not be read, parsed or executed — and the message
     must name the offending file as `eslev_lint: <path>: <reason>`
     so multi-file invocations are debuggable from stderr alone.

It also runs `eslev_lint --cost --json=DIR` on a script and then
tools/lint_schema_check.py on DIR, whose cross-check needs the lint's
unbounded-retention verdict to match the cost report's.
"""

import os
import subprocess
import sys
import tempfile

DDL = "CREATE STREAM R1(readerid, tagid, tagtime);\n" \
      "CREATE STREAM R2(readerid, tagid, tagtime);\n"

# Windowed SEQ: bounded retention, lints clean.
CLEAN_SQL = DDL + (
    "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER "
    "[5 SECONDS PRECEDING R2] AND R1.tagid = R2.tagid;\n")

# Unrestricted SEQ without a window: unbounded-retention, error severity.
ERROR_SQL = DDL + (
    "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) "
    "AND R1.tagid = R2.tagid;\n")

# A CHRONICLE star under an evicting window: the window never evicts the
# open star group, so the state bound is unbounded and lint must say so.
STAR_SQL = DDL + (
    "SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1*, R2) OVER "
    "[5 SECONDS PRECEDING R2] MODE CHRONICLE AND R1.tagid = R2.tagid;\n")

MALFORMED_SQL = "SELECT FROM WHERE;\n"

SCHEMA_CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "lint_schema_check.py")


def run(lint, *argv):
    return subprocess.run([lint, *argv], capture_output=True, text=True)


def expect(ok, what, proc=None):
    if ok:
        print(f"ok: {what}")
        return 0
    print(f"FAIL: {what}", file=sys.stderr)
    if proc is not None:
        print(f"  exit={proc.returncode}", file=sys.stderr)
        print(f"  stdout={proc.stdout!r}", file=sys.stderr)
        print(f"  stderr={proc.stderr!r}", file=sys.stderr)
    return 1


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: lint_cli_test.py /path/to/eslev_lint")
    lint = sys.argv[1]
    failures = 0
    with tempfile.TemporaryDirectory(prefix="eslev_lint_cli_") as tmp:
        clean = os.path.join(tmp, "clean.sql")
        errors = os.path.join(tmp, "errors.sql")
        malformed = os.path.join(tmp, "malformed.sql")
        missing = os.path.join(tmp, "does_not_exist.sql")
        with open(clean, "w", encoding="utf-8") as f:
            f.write(CLEAN_SQL)
        with open(errors, "w", encoding="utf-8") as f:
            f.write(ERROR_SQL)
        with open(malformed, "w", encoding="utf-8") as f:
            f.write(MALFORMED_SQL)
        star = os.path.join(tmp, "star.sql")
        with open(star, "w", encoding="utf-8") as f:
            f.write(STAR_SQL)

        # Exit 0: clean script, findings may exist but none error-level.
        proc = run(lint, clean)
        failures += expect(proc.returncode == 0,
                           "clean script exits 0", proc)

        # Exit 1: error-severity finding (unbounded-retention).
        proc = run(lint, errors)
        failures += expect(proc.returncode == 1,
                           "error-severity finding exits 1", proc)
        failures += expect("unbounded-retention" in proc.stdout,
                           "error finding is reported on stdout", proc)

        # Exit 2: unreadable file — stderr names the file.
        proc = run(lint, missing)
        failures += expect(proc.returncode == 2,
                           "missing file exits 2", proc)
        failures += expect(f"eslev_lint: {missing}: " in proc.stderr,
                           "missing-file message names the file", proc)

        # Exit 2: parse/execution failure — stderr names the file, and
        # it wins over a lint error earlier in the argument list.
        proc = run(lint, errors, malformed)
        failures += expect(proc.returncode == 2,
                           "malformed script exits 2 (over lint errors)",
                           proc)
        failures += expect(f"eslev_lint: {malformed}: " in proc.stderr,
                           "parse-failure message names the file", proc)
        failures += expect(missing not in proc.stderr,
                           "only the offending file is named", proc)

        # Lint and cost agree on retention in the JSON artifacts.
        json_dir = os.path.join(tmp, "json")
        os.mkdir(json_dir)
        proc = run(lint, "--cost", f"--json={json_dir}", star)
        failures += expect(proc.returncode == 0,
                           "open star group lints with warnings only", proc)
        proc = subprocess.run(
            [sys.executable, SCHEMA_CHECK, "--json-dir", json_dir],
            capture_output=True, text=True)
        failures += expect(proc.returncode == 0,
                           "lint and cost agree on the open star group",
                           proc)

        # Exit 2: no input files at all.
        proc = run(lint)
        failures += expect(proc.returncode == 2, "no-args usage exits 2",
                           proc)

    if failures:
        sys.exit(f"lint_cli_test: {failures} check(s) failed")
    print("lint_cli_test: all exit-code checks passed")


if __name__ == "__main__":
    main()
