// NfaSeqOperator: SEQ evaluated on a compiled NFA with prefix-sharing
// runs (DESIGN.md §14, after SASE).
//
// The history matcher (SeqOperator) re-enumerates every qualifying
// combination from scratch on each trigger. This backend instead keeps
// *runs* — partial matches threaded through the compiled automaton —
// and extends them incrementally as tuples arrive:
//
//   * Tuple groups (star groups, single tuples) live in per-position
//     pools identical to the history matcher's deques, so the retained
//     tuple set — and every purge rule over it (window eviction, RECENT
//     exact pruning, CHRONICLE consumption) — is byte-for-byte the same.
//   * A run is a node in a prefix-sharing tree: node(state s, group G)
//     with a parent at state s-1. All combinations sharing a prefix
//     share the parent chain, so prefix work is done once.
//   * When a group is created at state s, it extends every compatible
//     run at state s-1. Extension prunes only on *permanently* failed
//     guards (sequence order, window bounds, and pairwise constraints
//     whose endpoint groups are both closed — open star groups still
//     mutate, so their pairwise checks wait). Acceptance re-verifies
//     every guard against the groups' final contents, which keeps the
//     emitted set identical to the history matcher's.
//   * The four pairing modes are run-selection policies over the leaf
//     list at the pre-accepting state: UNRESTRICTED emits every valid
//     leaf in creation order (== the history enumeration order), RECENT
//     picks the newest valid leaf, CHRONICLE the root-first smallest
//     valid leaf (consuming its groups), and CONSECUTIVE degenerates to
//     the single adjacent run on the joint history.
//   * Window/deadline expiry purges pool groups exactly like the
//     history matcher, then drops every run that references a dead
//     group (state purging).

#ifndef ESLEV_CEP_NFA_SEQ_OPERATOR_H_
#define ESLEV_CEP_NFA_SEQ_OPERATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cep/seq_config.h"
#include "cep/seq_nfa.h"
#include "cep/seq_operator_base.h"

namespace eslev {

class NfaSeqOperator : public SeqOperatorBase {
 public:
  /// \brief Validates the configuration (same rules as SeqOperator::Make)
  /// and compiles the automaton.
  static Result<std::unique_ptr<NfaSeqOperator>> Make(SeqOperatorConfig config);

  SeqBackend backend() const override { return SeqBackend::kNfa; }
  const SeqOperatorConfig& config() const override { return config_; }

  /// \brief Port == position index.
  Status ProcessTuple(size_t port, const Tuple& tuple) override;
  Status ProcessHeartbeat(Timestamp now) override;

  size_t history_size() const override;
  uint64_t matches_emitted() const override { return matches_emitted_; }
  uint64_t tuples_stored() const override { return tuples_stored_; }
  uint64_t tuples_purged() const override { return tuples_purged_; }
  size_t open_star_length() const override;

  // ---- NFA-specific observability (seq.nfa.* metrics) ---------------------

  const SeqNfa& nfa() const { return nfa_; }
  /// \brief Partial-match runs currently alive across all states.
  size_t live_runs() const;
  uint64_t runs_created() const { return runs_created_; }
  /// \brief Runs dropped because a referenced group was purged.
  uint64_t runs_purged() const { return runs_purged_; }
  /// \brief Times a new run reused an existing parent prefix instead of
  /// recomputing it (increments from a parent's second child onward).
  uint64_t shared_prefixes() const { return shared_prefixes_; }

  void AppendStats(OperatorStatList* out) const override;

  /// \brief Checkpoint pools, the run tree (by pool index), the
  /// CONSECUTIVE run, and all counters, tagged with the backend byte.
  Status SaveState(BinaryEncoder* enc) const override;
  Status RestoreState(BinaryDecoder* dec) override;

 private:
  // A tuple group: one tuple for plain positions, a star group for
  // starred ones. Shared by the position pool and any run referencing it.
  struct Group {
    std::vector<Tuple> tuples;
    uint64_t first_seq = 0;
    uint64_t last_seq = 0;
    bool open = false;   // star group still accumulating
    uint64_t id = 0;     // creation order, unique across positions
    bool dead = false;   // purged from the pool; runs must drop it

    Timestamp first_ts() const { return tuples.front().ts(); }
    Timestamp last_ts() const { return tuples.back().ts(); }
  };
  using GroupPtr = std::shared_ptr<Group>;

  // A prefix-sharing run node at state `state`, binding `group`.
  struct RunNode {
    RunNode* parent = nullptr;  // node at state-1; null at state 0
    GroupPtr group;
    size_t state = 0;
    uint32_t children = 0;
    bool dead = false;  // marked during purge sweeps
  };

  explicit NfaSeqOperator(SeqOperatorConfig config);

  static bool Before(Timestamp ts_a, uint64_t seq_a, Timestamp ts_b,
                     uint64_t seq_b) {
    return ts_a < ts_b || (ts_a == ts_b && seq_a < seq_b);
  }

  Result<bool> PassesArrivalFilter(size_t pos, const Tuple& tuple);
  Result<bool> PassesStarGate(size_t pos, const Tuple& tuple,
                              const Tuple& previous);
  Result<bool> PassesPairwise(const PairwiseConstraint& c, const Group& ga,
                              const Group& gb);
  bool WindowOk(size_t pos, const Group& group,
                const std::vector<const Group*>& chosen) const;
  bool WindowVisibleInSearch(size_t pos) const;
  bool NegationOk(const std::vector<const Group*>& chosen) const;
  const Group* NextChosen(const std::vector<const Group*>& chosen,
                          size_t pos) const;
  const Group* PrevChosen(const std::vector<const Group*>& chosen,
                          int pos) const;

  // Returns the affected group; `created` reports whether a fresh group
  // started (as opposed to extending an open star group).
  Result<GroupPtr> StoreArrival(size_t pos, const Tuple& tuple, uint64_t seq,
                                bool* created);
  // Extend all compatible runs at state-1 with the fresh group at
  // `state` (or create the root run at state 0).
  Status ExtendRuns(size_t state, const GroupPtr& group);

  // Fill `chosen` (by position) from the leaf's parent chain + trigger.
  void CollectChosen(const RunNode* leaf, const Group& trigger,
                     std::vector<const Group*>* chosen) const;
  // Full acceptance check: sequence order, windows, pairwise
  // constraints, negation — everything except final checks, which
  // EmitMatch applies (mirroring the history matcher's search guards).
  Result<bool> ValidChosen(const std::vector<const Group*>& chosen);
  Status EmitMatch(const std::vector<const Group*>& chosen);

  Status MatchUnrestricted(const Group& trigger);
  Status MatchRecent(const Group& trigger);
  Status MatchChronicle(const Group& trigger);
  Status HandleConsecutive(size_t pos, const Tuple& tuple, uint64_t seq);

  void EvictByWindow(Timestamp now);
  void PurgeRecent();
  // Drop every run whose chain references a dead group.
  void PruneDeadRuns();

  SeqOperatorConfig config_;
  SeqNfa nfa_;
  size_t n_;  // number of positions
  bool last_is_star_;
  bool recent_exact_purge_;

  // Per-position group pools — the same retained set as the history
  // matcher's deques.
  std::vector<std::deque<GroupPtr>> pool_;
  // Per-state run lists in creation order; only non-accepting states
  // hold runs (the accepting state triggers immediately).
  std::vector<std::vector<std::unique_ptr<RunNode>>> runs_;
  // CONSECUTIVE: the current partial run (pools and runs_ unused).
  std::vector<Group> run_;

  uint64_t arrival_seq_ = 0;
  uint64_t matches_emitted_ = 0;
  uint64_t tuples_stored_ = 0;
  uint64_t tuples_purged_ = 0;
  uint64_t next_group_id_ = 0;
  uint64_t runs_created_ = 0;
  uint64_t runs_purged_ = 0;
  uint64_t shared_prefixes_ = 0;
  RowScratch scratch_;
};

}  // namespace eslev

#endif  // ESLEV_CEP_NFA_SEQ_OPERATOR_H_
