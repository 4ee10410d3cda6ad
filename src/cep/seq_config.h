// Shared configuration types for the temporal sequence operators
// (SEQ, EXCEPTION_SEQ, CLEVEL_SEQ — paper §3.1).

#ifndef ESLEV_CEP_SEQ_CONFIG_H_
#define ESLEV_CEP_SEQ_CONFIG_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cep/pairing_mode.h"
#include "expr/bound_expr.h"
#include "sql/ast.h"
#include "types/schema.h"

namespace eslev {

/// \brief One argument position of a sequence operator. Position index ==
/// binder slot == operator input port.
///
/// A negated position (`SEQ(A, !B, C)`) contributes no tuple to matches;
/// instead, a match is rejected when any qualifying tuple of that stream
/// arrived strictly between its neighbouring matched positions.
struct SeqPosition {
  std::string alias;
  SchemaPtr schema;
  bool star = false;
  bool negated = false;
};

/// \brief A WHERE conjunct referencing exactly two positions, used to
/// qualify candidate pairings during matching (e.g. `C1.tagid=C4.tagid`).
struct PairwiseConstraint {
  size_t pos_a = 0;  // earlier position
  size_t pos_b = 0;  // later position (bound first during matching)
  BoundExprPtr expr;
};

/// \brief Resolved window for a sequence operator: `OVER [len PRECEDING
/// Ei]` bounds positions at or before the anchor to `anchor.ts - len`;
/// FOLLOWING bounds positions at or after the anchor to `anchor.ts + len`.
struct SeqWindow {
  Duration length = 0;
  WindowDirection direction = WindowDirection::kPreceding;
  size_t anchor = 0;  // position index
};

/// \brief Full configuration of a SeqOperator.
struct SeqOperatorConfig {
  std::vector<SeqPosition> positions;
  PairingMode mode = PairingMode::kUnrestricted;
  std::optional<SeqWindow> window;

  /// Per-position unary conjuncts; arrivals failing them are ignored.
  std::vector<BoundExprPtr> arrival_filters;  // size == positions, may be null
  /// Conjuncts over two positions, checked while pairing.
  std::vector<PairwiseConstraint> pairwise;
  /// Per-position star gates (conjuncts with `.previous.`): an arriving
  /// tuple failing the gate closes the open group and starts a new one.
  std::vector<BoundExprPtr> star_gates;  // size == positions, may be null
  /// Remaining conjuncts, checked on complete matches.
  std::vector<BoundExprPtr> final_checks;

  /// Output row: expressions over the position slots (+ star groups).
  std::vector<BoundExprPtr> projection;
  SchemaPtr out_schema;

  /// When >= 0, emit one output row per tuple of this starred position
  /// (the paper's multiple-return star queries, footnote 4).
  int per_tuple_star = -1;
};

/// \brief Configuration of an ExceptionSeqOperator. Levels: a terminal
/// event carries completion level k == number of positions completed;
/// exceptions have k < n, a completed sequence has k == n.
///
/// Star positions are supported everywhere except the final position
/// (the paper allows "repeating star sequences" in EXCEPTION_SEQ but a
/// trailing star has no completion point to level against): a starred
/// position accepts one or more tuples, gated by its star gate; a gate
/// failure, like any wrong tuple, is a violation.
struct ExceptionSeqConfig {
  std::vector<SeqPosition> positions;
  /// CONSECUTIVE (default, the paper's workflow example) or RECENT
  /// (the paper's replacement example).
  PairingMode mode = PairingMode::kConsecutive;
  std::optional<SeqWindow> window;  // FOLLOWING windows define deadlines

  std::vector<BoundExprPtr> arrival_filters;
  std::vector<BoundExprPtr> star_gates;  // size == positions, may be null
  std::vector<PairwiseConstraint> pairwise;

  std::vector<BoundExprPtr> projection;
  SchemaPtr out_schema;

  /// Emit a terminal event when the level satisfies this comparison
  /// (lowered from `CLEVEL_SEQ(...) <op> k`; EXCEPTION_SEQ means `< n`).
  BinaryOp level_op = BinaryOp::kLt;
  int64_t level_rhs = 0;  // set to n for EXCEPTION_SEQ
};

// SEQ's two purge licenses (DESIGN.md §5). SeqOperator purges by exactly
// these rules, and the state-bound analyzer (DESIGN.md §16) claims a
// bound only from them, so the two read one decision.

/// \brief True when window eviction may drop expired history: a
/// PRECEDING (or PRECEDING AND FOLLOWING) window anchored at the last
/// position. Under any other window an entry's age alone never rules it
/// out, so nothing is evicted.
inline bool SeqWindowEvicts(const SeqOperatorConfig& config) {
  if (!config.window) return false;
  const SeqWindow& w = *config.window;
  return (w.direction == WindowDirection::kPreceding ||
          w.direction == WindowDirection::kPrecedingAndFollowing) &&
         w.anchor + 1 == config.positions.size();
}

/// \brief True when RECENT purges its history down to what its
/// newest-first search can still pick. That is exact only when a
/// position's candidates qualify by time order alone, so that the newest
/// entry ending before its successor is the only one the search can
/// take: no pairwise conjunct, no negation whose later neighbour is
/// stored, and no window that checks an earlier position against an
/// anchor the search could still move (an anchor before the last
/// position with a PRECEDING side) or a star group against its own span.
inline bool RecentPurgeApplies(const SeqOperatorConfig& config) {
  if (config.mode != PairingMode::kRecent) return false;
  const size_t n = config.positions.size();
  if (!config.pairwise.empty()) return false;
  for (size_t i = 0; i < n; ++i) {
    if (!config.positions[i].negated) continue;
    size_t right = i;
    while (config.positions[right].negated) ++right;
    if (right != n - 1) return false;
  }
  if (config.window && config.window->anchor != n - 1) {
    return config.window->direction == WindowDirection::kFollowing &&
           !config.positions[config.window->anchor].star;
  }
  return true;
}

/// \brief Every SEQ and EXCEPTION_SEQ state blob starts with this tag
/// byte. Tag 1 marked state of the compiled-NFA matcher, which was
/// removed (DESIGN.md §14); its layout cannot be read here.
inline constexpr uint8_t kSeqCheckpointTag = 0;

/// \brief Validates the leading tag byte before anything else is read,
/// so foreign state is refused instead of misread.
inline Status CheckSeqCheckpointTag(uint8_t tag, const char* operator_name) {
  if (tag == kSeqCheckpointTag) return Status::OK();
  if (tag == 1) {
    return Status::IoError(
        std::string(operator_name) +
        " checkpoint was written by the removed NFA backend; its state "
        "cannot be restored by this build, so take a new checkpoint");
  }
  return Status::IoError(std::string(operator_name) +
                         " checkpoint: unknown backend tag " +
                         std::to_string(static_cast<int>(tag)));
}

}  // namespace eslev

#endif  // ESLEV_CEP_SEQ_CONFIG_H_
