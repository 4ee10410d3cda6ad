// SeqOperator: the paper's SEQ temporal event operator (§3.1.1-3.1.2).
//
// Detects sequences of tuples across n argument streams under a Tuple
// Pairing Mode, with optional sliding windows anchored at any position
// and star (repeating) arguments.
//
// Semantics implemented (see DESIGN.md §5 for the full discussion):
//  * Sequence order is strict: position i+1's tuple must arrive after
//    position i's, compared by (timestamp, arrival index).
//  * The final position triggers matching on arrival; final-position
//    tuples are never stored (they cannot participate in later events).
//  * UNRESTRICTED enumerates all qualifying combinations; RECENT emits at
//    most one event per trigger using the most recent qualifying tuples;
//    CHRONICLE uses the earliest qualifying tuples and consumes them;
//    CONSECUTIVE requires the tuples to be adjacent on the joint history
//    of the participating streams.
//  * Star positions accumulate *groups*: the open group extends while
//    the position's star gate (`.previous.` conjuncts) passes; a failing
//    arrival closes the group and opens a new one (Figure 1(b)'s
//    inter-product gap). Matching always uses the longest group
//    available (the paper's longest-match rule); a trailing star emits
//    online, once per arrival.
//  * History purging: final position never stored; CHRONICLE removes
//    consumed tuples; CONSECUTIVE keeps only the current partial run;
//    RECENT prunes entries that can no longer be the most recent
//    qualifying choice (only where candidates qualify by time order
//    alone, so the pruning never changes a match);
//    windowed operators evict expired entries.
//  * Keyed matching: Make() derives the trigger's equality class from
//    plain `Pi.col = Pj.col` pairwise conjuncts between non-star,
//    non-negated positions. Each stored entry at a keyed position caches
//    a 32-bit fold of its key's Value::KeyHash, and the matcher skips an
//    entry whose fold differs from the trigger's with one integer
//    compare, before any order, window or pairwise check; the surviving
//    entries are checked in full. The skipped entries hold no qualifying
//    combination, so every pairing mode emits and consumes exactly what
//    the unkeyed search would. CONSECUTIVE and trailing-star operators
//    stay unkeyed.

#ifndef ESLEV_CEP_SEQ_OPERATOR_H_
#define ESLEV_CEP_SEQ_OPERATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cep/seq_config.h"
#include "stream/operator.h"

namespace eslev {

class SeqOperator : public Operator {
 public:
  /// \brief Validates the configuration (e.g. a usable window anchor,
  /// at most one per-tuple star) and builds the operator.
  static Result<std::unique_ptr<SeqOperator>> Make(SeqOperatorConfig config);

  /// \brief The validated configuration the operator runs — positions,
  /// pairing mode, window. Read by the cost model (DESIGN.md §16).
  const SeqOperatorConfig& config() const { return config_; }

  /// \brief Port == position index.
  Status ProcessTuple(size_t port, const Tuple& tuple) override;
  Status ProcessHeartbeat(Timestamp now) override;

  /// \brief Total tuples retained across all positions — the state-size
  /// metric behind the paper's purging claims (bench E6).
  size_t history_size() const;

  uint64_t matches_emitted() const { return matches_emitted_; }

  /// \brief Tuples ever admitted to the joint history (final-position
  /// triggers are never stored and do not count).
  uint64_t tuples_stored() const { return tuples_stored_; }
  /// \brief Tuples removed from the history by any purge path: window
  /// eviction, RECENT pruning, CHRONICLE consumption, or CONSECUTIVE run
  /// resets. Invariant: tuples_stored() - tuples_purged() == history_size().
  uint64_t tuples_purged() const { return tuples_purged_; }
  /// \brief Tuples in still-open (accumulating) star groups.
  size_t open_star_length() const;

  void AppendStats(OperatorStatList* out) const override;

  /// \brief The key column of each keyed position, in position order
  /// ("C1.tagid, C2.tagid, ..."); empty when the operator is unkeyed.
  std::string KeyDescription() const;

  /// \brief Checkpoint the joint-tuple history (all pairing modes), the
  /// CONSECUTIVE run, and the arrival/match/purge counters.
  Status SaveState(BinaryEncoder* enc) const override;
  Status RestoreState(BinaryDecoder* dec) override;

 private:
  // A history entry: one tuple for plain positions, a group for stars.
  struct Entry {
    std::vector<Tuple> tuples;
    uint64_t first_seq = 0;
    uint64_t last_seq = 0;
    bool open = false;  // star group still accumulating
    // Keyed positions and the trigger: KeyOf() the entry's tuple. Set on
    // arrival and on restore, never serialized; it fills the padding
    // after `open`.
    uint32_t key = 0;

    Timestamp first_ts() const { return tuples.front().ts(); }
    Timestamp last_ts() const { return tuples.back().ts(); }
  };
  static_assert(sizeof(Entry) == 48,
                "the key fold must not grow a history entry");

  SeqOperator(SeqOperatorConfig config, std::vector<int> key_columns);

  // 32-bit fold of the key column's Value::KeyHash (the caller checks
  // that `pos` is keyed and the column exists).
  uint32_t KeyOf(size_t pos, const Tuple& tuple) const;
  // Keyed positions: true when the entry's key differs from the
  // trigger's, so it fails `=` somewhere on the chain to the trigger.
  bool OtherKey(size_t pos, const Entry& e, uint32_t trigger_key) const {
    return key_columns_[pos] >= 0 && e.key != trigger_key;
  }

  // (ts, seq) strict ordering between entry boundaries.
  static bool Before(Timestamp ts_a, uint64_t seq_a, Timestamp ts_b,
                     uint64_t seq_b) {
    return ts_a < ts_b || (ts_a == ts_b && seq_a < seq_b);
  }

  Result<bool> PassesArrivalFilter(size_t pos, const Tuple& tuple);
  Result<bool> PassesStarGate(size_t pos, const Tuple& tuple,
                              const Tuple& previous);
  // Evaluate a pairwise constraint with both endpoints bound.
  Result<bool> PassesPairwise(const PairwiseConstraint& c, const Entry& ea,
                              const Entry& eb);
  // All pairwise constraints between `pos` (candidate entry) and already
  // chosen later positions.
  Result<bool> PairwiseOkWithChosen(
      size_t pos, const Entry& candidate,
      const std::vector<const Entry*>& chosen);

  bool WindowOk(size_t pos, const Entry& entry,
                const std::vector<const Entry*>& chosen) const;

  // Mode-specific match triggers; `trigger` is the just-completed entry
  // for the final position.
  Status MatchUnrestricted(const Entry& trigger);
  Status MatchRecent(const Entry& trigger);
  Status MatchChronicle(const Entry& trigger);
  Status HandleConsecutive(size_t pos, const Tuple& tuple, uint64_t seq);

  Status EnumerateFrom(int pos, std::vector<const Entry*>* chosen);
  Status EmitMatch(const std::vector<const Entry*>& chosen);

  Status StoreArrival(size_t pos, const Tuple& tuple, uint64_t seq);
  void EvictByWindow(Timestamp now);
  void PurgeRecent();

  // The nearest bound entry after / before `pos` (the search's order
  // bounds).
  const Entry* NextChosen(const std::vector<const Entry*>& chosen,
                          size_t pos) const;
  const Entry* PrevChosen(const std::vector<const Entry*>& chosen,
                          int pos) const;
  // True iff no stored tuple of any negated position falls strictly
  // between its neighbouring non-negated positions, where both are bound.
  bool NegationOk(const std::vector<const Entry*>& chosen) const;

  SeqOperatorConfig config_;
  size_t n_;  // number of positions
  bool last_is_star_;
  bool recent_purge_;  // RecentPurgeApplies (cep/seq_config.h)
  // Per position: the column in the trigger's equality class, or -1.
  // All -1 when the operator is unkeyed.
  std::vector<int> key_columns_;
  std::vector<std::deque<Entry>> history_;  // per position
  // CONSECUTIVE state: the current partial run, one entry per filled
  // position (history_ is unused in that mode).
  std::vector<Entry> run_;
  uint64_t arrival_seq_ = 0;
  uint64_t matches_emitted_ = 0;
  uint64_t tuples_stored_ = 0;
  uint64_t tuples_purged_ = 0;
  uint64_t pairwise_evals_ = 0;  // PassesPairwise calls (EXPLAIN ANALYZE)
  RowScratch scratch_;
};

}  // namespace eslev

#endif  // ESLEV_CEP_SEQ_OPERATOR_H_
