#include "analysis/state_bounds.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace eslev {

double WindowSeconds(Duration length) {
  return static_cast<double>(length) / 1e6;
}

std::string FormatCostNumber(double v) {
  if (!std::isfinite(v)) return "inf";
  if (std::fabs(v) < 9.2e18 && v == std::floor(v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

namespace {

/// One additive term of a bound.
struct Term {
  bool bounded = true;
  double value = 0;  // tuples when bounded, tuples/sec otherwise
  std::string text;
  GrowthTerm growth;  // position and reasons, when unbounded
};

StateBound Sum(const std::vector<Term>& terms, const std::string& prefix) {
  StateBound b;
  b.formula = prefix;
  bool first = true;
  for (const Term& t : terms) {
    if (!first) b.formula += " + ";
    first = false;
    b.formula += t.text;
    if (t.bounded) {
      b.tuples += t.value;
    } else {
      b.bounded = false;
      b.growth_per_sec += t.value;
      b.growth.push_back(t.growth);
    }
  }
  if (terms.empty()) b.formula += "0";
  if (!b.bounded) b.tuples = 0;
  return b;
}

Term WindowTerm(const std::string& alias, double rate, double window_secs) {
  Term t;
  t.value = rate * window_secs + 1;
  t.text = "r(" + alias + ")*" + FormatCostNumber(window_secs) +
           "s+1 [window]";
  return t;
}

Term Growth(size_t position, const std::string& alias, double rate,
            GrowthReason reason,
            std::optional<GrowthReason> closed_groups = std::nullopt) {
  const char* why = reason == GrowthReason::kOpenStarGroup ? "open star group"
                    : reason == GrowthReason::kNegationEvidence
                        ? "negation evidence"
                        : "no purge license";
  Term t;
  t.bounded = false;
  t.value = rate;
  t.text = "unbounded +r(" + alias + ")/s [" + why + "]";
  t.growth = {position, rate, reason, closed_groups};
  return t;
}

}  // namespace

StateBound SeqStateBound(const SeqOperatorConfig& config,
                         const std::vector<double>& rates) {
  const size_t n = config.positions.size();
  // The matcher's own purge licenses (cep/seq_config.h).
  const bool purging_window = SeqWindowEvicts(config);
  const double window_secs =
      purging_window ? WindowSeconds(config.window->length) : 0;
  const bool recent_purge = RecentPurgeApplies(config);
  // Why an entry stays when no license drops it: CHRONICLE frees only
  // what a match consumes, UNRESTRICTED and RECENT outside its license
  // free nothing. CONSECUTIVE supersedes every entry.
  const GrowthReason unlicensed = config.mode == PairingMode::kChronicle
                                      ? GrowthReason::kUnmatchedRetention
                                      : GrowthReason::kNoPurgeLicense;
  const bool licensed = purging_window || recent_purge ||
                        config.mode == PairingMode::kConsecutive;

  std::vector<Term> terms;
  for (size_t i = 0; i < n; ++i) {
    const SeqPosition& pos = config.positions[i];
    // The final position triggers matching on arrival and is stored
    // only when starred (a trailing star accumulates its group).
    if (i == n - 1 && !pos.star) continue;
    const double rate = i < rates.size() ? rates[i] : 0;
    if (pos.star) {
      // An open star group extends while its gate passes and is never
      // window-evicted, so no static license bounds it; without a
      // license its closed groups stay as well.
      terms.push_back(Growth(i, pos.alias, rate, GrowthReason::kOpenStarGroup,
                             licensed ? std::nullopt
                                      : std::optional(unlicensed)));
      continue;
    }
    if (config.mode == PairingMode::kConsecutive) {
      Term t;
      t.value = 1;
      t.text = "1 [" + pos.alias + ": consecutive run]";
      terms.push_back(t);
      continue;
    }
    if (recent_purge && !pos.negated) {
      // PurgeRecent keeps, per position i, the most recent entry plus
      // one entry per retained later-position entry: at most n-1-i.
      Term t;
      t.value = static_cast<double>(n - 1 - i);
      t.text = FormatCostNumber(t.value) + " [" + pos.alias +
               ": recent purge]";
      if (purging_window) {
        const Term w = WindowTerm(pos.alias, rate, window_secs);
        if (w.value < t.value) t = w;
      }
      terms.push_back(t);
      continue;
    }
    if (purging_window) {
      terms.push_back(WindowTerm(pos.alias, rate, window_secs));
      continue;
    }
    // UNRESTRICTED, CHRONICLE and RECENT outside its purge license,
    // without a purging window, retain without bound; so does RECENT
    // negation evidence, which PurgeRecent never drops.
    terms.push_back(Growth(
        i, pos.alias, rate,
        pos.negated ? GrowthReason::kNegationEvidence : unlicensed));
  }
  return Sum(terms, "");
}

StateBound ExceptionSeqStateBound(const ExceptionSeqConfig& config,
                                  const std::vector<double>& rates) {
  const size_t n = config.positions.size();
  std::vector<Term> terms;
  Term run;
  run.value = static_cast<double>(n);
  run.text = FormatCostNumber(run.value) + " [partial run, 1 entry/position]";
  terms.push_back(run);
  for (size_t i = 0; i < n; ++i) {
    if (!config.positions[i].star) continue;
    const double rate = i < rates.size() ? rates[i] : 0;
    if (config.window.has_value()) {
      // The window deadline expires the run, closing any open group.
      terms.push_back(WindowTerm(config.positions[i].alias, rate,
                                 WindowSeconds(config.window->length)));
    } else {
      terms.push_back(Growth(i, config.positions[i].alias, rate,
                             GrowthReason::kOpenStarGroup));
    }
  }
  return Sum(terms, "");
}

StateBound WindowedNotExistsStateBound(const WindowSpec& window,
                                       double inner_rate, double outer_rate) {
  const double w = window.row_based ? static_cast<double>(window.length)
                                    : WindowSeconds(window.length);
  std::vector<Term> terms;
  Term buffer;
  buffer.value = window.row_based ? w : inner_rate * w + 1;
  buffer.text = window.row_based
                    ? FormatCostNumber(w) + " rows [buffer]"
                    : "r(inner)*" + FormatCostNumber(w) + "s+1 [buffer]";
  terms.push_back(buffer);
  if (window.direction == WindowDirection::kFollowing ||
      window.direction == WindowDirection::kPrecedingAndFollowing) {
    Term pending;
    pending.value = outer_rate * w + 1;
    pending.text = "r(outer)*" + FormatCostNumber(w) + "s+1 [pending]";
    terms.push_back(pending);
  }
  return Sum(terms, "");
}

StateBound AggregateStateBound(size_t group_exprs, double distinct_keys,
                               const std::optional<WindowSpec>& window,
                               double in_rate) {
  std::vector<Term> terms;
  Term groups;
  if (group_exprs == 0) {
    groups.value = 1;
    groups.text = "1 [global group]";
  } else {
    groups.value = std::pow(distinct_keys, static_cast<double>(group_exprs));
    groups.text = "K^" + FormatCostNumber(static_cast<double>(group_exprs)) +
                  "=" + FormatCostNumber(groups.value) + " [groups]";
  }
  terms.push_back(groups);
  if (window.has_value()) {
    Term buffer;
    if (window->row_based) {
      buffer.value = static_cast<double>(window->length);
      buffer.text = FormatCostNumber(buffer.value) + " rows [window buffer]";
    } else {
      const double w = WindowSeconds(window->length);
      buffer.value = in_rate * w + 1;
      buffer.text = "r*" + FormatCostNumber(w) + "s+1 [window buffer]";
    }
    terms.push_back(buffer);
  }
  return Sum(terms, "");
}

StateBound TableInsertStateBound(double in_rate) {
  StateBound b;
  b.bounded = false;
  b.growth_per_sec = in_rate;
  b.formula = "unbounded +" + FormatCostNumber(in_rate) +
              "/s [table grows with every emitted row]";
  return b;
}

StateBound StatelessStateBound() {
  StateBound b;
  b.formula = "0 [stateless]";
  return b;
}

}  // namespace eslev
