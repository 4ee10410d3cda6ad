// Static retained-state bounds per operator (DESIGN.md §16).
//
// Every bound is a *conservative upper bound* on the number of tuples an
// operator retains at any instant, derived from the purge licenses the
// operator actually holds:
//
//   SEQ history      the matcher's two purge licenses, read from
//                    cep/seq_config.h: window eviction (SeqWindowEvicts,
//                    a PRECEDING or PRECEDING AND FOLLOWING window
//                    anchored at the LAST position) and RECENT's purge
//                    (RecentPurgeApplies: no pairwise constraints, no
//                    negation before a stored position, no PRECEDING
//                    side anchored earlier, no window anchored at a
//                    non-final star), which retains an exact triangular
//                    entry set (position i keeps at most n-1-i entries)
//                    but keeps ALL negation evidence; CONSECUTIVE keeps
//                    one entry per position; star groups stay open while
//                    their gate passes and open groups are never
//                    window-evicted, so a starred position is never
//                    statically bounded.
//   EXCEPTION_SEQ    the partial run holds at most one entry per
//                    position (gauge: partial_level <= n).
//   NOT EXISTS       window buffer holds r_inner * W tuples; FOLLOWING
//                    windows additionally hold r_outer * W pending
//                    outer tuples.
//   Aggregate        at most distinct_keys^m groups (m grouping
//                    expressions) plus the r * W window buffer.
//   Table insert     unbounded: the table grows with every emitted row.
//
// Rates come from catalog-declared StreamStats (see CostModelParams for
// the documented defaults). "+1" terms account for the tuple at the
// inclusive window boundary. An unbounded SEQ-family bound also lists
// its growth terms (position, rate, reason): EXPLAIN COST, admission and
// the unbounded-retention lint all read this one verdict.

#ifndef ESLEV_ANALYSIS_STATE_BOUNDS_H_
#define ESLEV_ANALYSIS_STATE_BOUNDS_H_

#include <optional>
#include <string>
#include <vector>

#include "cep/seq_config.h"
#include "sql/ast.h"

namespace eslev {

/// \brief Why a position of a SEQ-family operator retains without a
/// static bound. The `unbounded-retention` lint (DESIGN.md §11) grades
/// its severity by it.
enum class GrowthReason {
  /// Nothing drops the position's tuples: UNRESTRICTED pairing, or
  /// RECENT outside its purge license, under no evicting window. The
  /// formula calls it "no purge license".
  kNoPurgeLicense,
  /// CHRONICLE under no evicting window: a tuple leaves only when a
  /// match consumes it. The formula calls it "no purge license" too.
  kUnmatchedRetention,
  /// A star position's open group, which no window evicts.
  kOpenStarGroup,
  /// A negated position's history, kept as interval evidence: only an
  /// evicting window drops it (RECENT's purge keeps all of it).
  kNegationEvidence,
};

/// \brief One unbounded term of a bound: which position grows, how fast
/// and why.
struct GrowthTerm {
  /// Operator position == SEQ argument index.
  size_t position = 0;
  double per_sec = 0;
  GrowthReason reason = GrowthReason::kNoPurgeLicense;
  /// Set on an open star group whose closed groups no license drops
  /// either (kNoPurgeLicense or kUnmatchedRetention), so the position
  /// has both reasons.
  std::optional<GrowthReason> closed_groups;
};

/// \brief Static bound on one operator's retained state.
struct StateBound {
  /// True when the retained tuple count has a static upper bound.
  bool bounded = true;
  /// The bound, in tuples, when `bounded` (0 for stateless operators).
  double tuples = 0;
  /// Worst-case growth rate, tuples per second, when not `bounded`.
  double growth_per_sec = 0;
  /// Symbolic derivation, e.g. "r(C1)*1800s+1 [window] + ...".
  std::string formula;
  /// The SEQ-family terms that make it unbounded, in position order.
  std::vector<GrowthTerm> growth;
};

/// \brief Bound for a SEQ operator; `rates[i]` is the arrival rate of
/// position i in tuples/second.
StateBound SeqStateBound(const SeqOperatorConfig& config,
                         const std::vector<double>& rates);

/// \brief Bound for an EXCEPTION_SEQ / CLEVEL_SEQ operator.
StateBound ExceptionSeqStateBound(const ExceptionSeqConfig& config,
                                  const std::vector<double>& rates);

/// \brief Bound for the windowed NOT EXISTS anti-join (inner window
/// buffer + FOLLOWING-side pending outer tuples).
StateBound WindowedNotExistsStateBound(const WindowSpec& window,
                                       double inner_rate, double outer_rate);

/// \brief Bound for continuous aggregation: `group_exprs` grouping
/// expressions, each assumed to take at most `distinct_keys` values,
/// plus the window buffer when windowed.
StateBound AggregateStateBound(size_t group_exprs, double distinct_keys,
                               const std::optional<WindowSpec>& window,
                               double in_rate);

/// \brief Unbounded growth of a table insert target.
StateBound TableInsertStateBound(double in_rate);

/// \brief Bound for stateless operators (filter, project, table probe).
StateBound StatelessStateBound();

/// \brief Window length in seconds (0 for row-based windows — use
/// `length` rows directly in that case).
double WindowSeconds(Duration length);

/// \brief Deterministic number rendering for formulas, JSON and lint
/// messages: integers print without decimals, everything else with two
/// (e.g. 15001, 0.5, 2.33). Never uses scientific notation.
std::string FormatCostNumber(double v);

}  // namespace eslev

#endif  // ESLEV_ANALYSIS_STATE_BOUNDS_H_
