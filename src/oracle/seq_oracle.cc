#include "oracle/seq_oracle.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "expr/eval_row.h"

namespace eslev {

SeqInput SeqInput::Arrival(size_t port, Tuple tuple) {
  SeqInput in;
  in.port = port;
  in.tuple = std::move(tuple);
  return in;
}

SeqInput SeqInput::Heartbeat(Timestamp now) {
  SeqInput in;
  in.now = now;
  return in;
}

namespace {

const BoundExpr* At(const std::vector<BoundExprPtr>& exprs, size_t pos) {
  return pos < exprs.size() ? exprs[pos].get() : nullptr;
}

// One tuple of the joint history. `index` is its place among all
// inputs; it breaks timestamp ties, so the history is totally ordered.
struct Arrival {
  size_t pos = 0;
  size_t index = 0;
  Tuple tuple;
};

// What one position contributes to a combination: a tuple, or a star
// group of tuples.
struct Entry {
  std::vector<Tuple> tuples;
  size_t first = 0;  // index of the first tuple
  size_t last = 0;   // index of the last tuple

  Timestamp first_ts() const { return tuples.front().ts(); }
  Timestamp last_ts() const { return tuples.back().ts(); }
  void Add(const Arrival& a) {
    if (tuples.empty()) first = a.index;
    tuples.push_back(a.tuple);
    last = a.index;
  }
};

// `a` ends strictly before `b` starts on the joint history.
bool Before(const Entry& a, const Entry& b) {
  return a.last_ts() < b.first_ts() ||
         (a.last_ts() == b.first_ts() && a.last < b.first);
}

// Per position: the entry a combination binds there, or null.
using Combination = std::vector<const Entry*>;

// The §3.1.2 window on one position. At or before a PRECEDING anchor an
// entry starts no earlier than anchor.last - len; at or after a
// FOLLOWING anchor it ends no later than anchor.first + len.
bool InWindow(const SeqWindow& w, size_t pos, const Entry& e,
              const Entry& anchor) {
  const bool preceding =
      w.direction == WindowDirection::kPreceding ||
      w.direction == WindowDirection::kPrecedingAndFollowing;
  const bool following =
      w.direction == WindowDirection::kFollowing ||
      w.direction == WindowDirection::kPrecedingAndFollowing;
  if (preceding && pos <= w.anchor &&
      e.first_ts() < anchor.last_ts() - w.length) {
    return false;
  }
  return !(following && pos >= w.anchor &&
           e.last_ts() > anchor.first_ts() + w.length);
}

// Binds tuples to the binder's slots and evaluates the config's
// expressions over them.
class Slots {
 public:
  explicit Slots(const std::vector<SeqPosition>& positions)
      : positions_(positions), scratch_(positions.size()) {}

  Result<bool> Test(const BoundExpr* expr, size_t pos, const Tuple& tuple,
                    const Tuple* previous = nullptr) {
    if (expr == nullptr) return true;
    scratch_.Clear();
    scratch_.SetTuple(pos, &tuple);
    scratch_.SetPrevious(pos, previous);
    return EvalPredicate(*expr, scratch_.Row());
  }

  // A predicate over bound positions: each binds its last tuple, a star
  // position also its group.
  Result<bool> Test(const BoundExpr& expr, const Combination& bound) {
    BindAll(bound);
    return EvalPredicate(expr, scratch_.Row());
  }

  void BindAll(const Combination& bound) {
    scratch_.Clear();
    for (size_t pos = 0; pos < bound.size(); ++pos) {
      if (bound[pos] == nullptr) continue;
      scratch_.SetTuple(pos, &bound[pos]->tuples.back());
      if (positions_[pos].star) {
        scratch_.SetStarGroup(pos, &bound[pos]->tuples);
      }
    }
  }

  RowScratch& scratch() { return scratch_; }

 private:
  const std::vector<SeqPosition>& positions_;
  RowScratch scratch_;
};

Result<Tuple> Project(const std::vector<BoundExprPtr>& projection,
                      const SchemaPtr& schema, const EvalRow& row,
                      Timestamp ts) {
  std::vector<Value> values;
  values.reserve(projection.size());
  for (const BoundExprPtr& e : projection) {
    ESLEV_ASSIGN_OR_RETURN(Value v, e->Eval(row));
    values.push_back(std::move(v));
  }
  return MakeTuple(schema, std::move(values), ts);
}

// ---------------------------------------------------------------------------
// SEQ
// ---------------------------------------------------------------------------

class SeqOracle {
 public:
  explicit SeqOracle(const SeqOperatorConfig& config)
      : c_(config),
        n_(config.positions.size()),
        history_(n_),
        slots_(config.positions) {}

  Result<std::vector<Tuple>> Run(const std::vector<SeqInput>& inputs) {
    if (n_ < 2 || c_.out_schema == nullptr) {
      return Status::Invalid("SEQ oracle: malformed configuration");
    }
    for (size_t i = 0; i < inputs.size(); ++i) {
      const SeqInput& in = inputs[i];
      // A heartbeat only lets the matcher drop history that no later
      // trigger could use, so it changes no row.
      if (in.is_heartbeat()) continue;
      if (in.port >= n_) {
        return Status::Invalid("SEQ oracle: port out of range");
      }
      ESLEV_ASSIGN_OR_RETURN(
          bool pass, slots_.Test(At(c_.arrival_filters, in.port), in.port,
                                 in.tuple));
      // Decision "filtered tuples are not on the joint history": a tuple
      // that fails its arrival filter is ignored entirely, so it does not
      // break CONSECUTIVE adjacency either.
      if (!pass) continue;
      history_[in.port].push_back(joint_.size());
      joint_.push_back({in.port, i, in.tuple});
      if (in.port != n_ - 1) continue;
      if (c_.mode == PairingMode::kConsecutive) {
        ESLEV_RETURN_NOT_OK(MatchConsecutive());
      } else {
        ESLEV_RETURN_NOT_OK(Trigger(i));
      }
    }
    return std::move(out_);
  }

 private:
  bool star(size_t pos) const { return c_.positions[pos].star; }
  bool negated(size_t pos) const { return c_.positions[pos].negated; }

  bool consumed_before(const Entry& e, size_t index) const {
    const auto it = consumed_at_.find(e.first);
    return it != consumed_at_.end() && it->second < index;
  }

  // The entries of `pos` so far: one per tuple, or for a star position
  // its groups, each a maximal run under the `.previous` gate (Figure
  // 1(b)). CHRONICLE-consumed entries are left out.
  Result<std::vector<Entry>> Entries(size_t pos) {
    std::vector<Entry> groups;
    for (size_t j : history_[pos]) {
      const Arrival& a = joint_[j];
      bool extend = false;
      // Decision "a consumed star group stays closed": once CHRONICLE
      // consumed a group, the next tuple opens a new one.
      if (star(pos) && !groups.empty() &&
          !consumed_before(groups.back(), a.index)) {
        ESLEV_ASSIGN_OR_RETURN(
            extend, slots_.Test(At(c_.star_gates, pos), pos, a.tuple,
                                &groups.back().tuples.back()));
      }
      if (!extend) groups.emplace_back();
      groups.back().Add(a);
    }
    std::vector<Entry> live;
    for (Entry& e : groups) {
      if (consumed_at_.count(e.first) == 0) live.push_back(std::move(e));
    }
    return live;
  }

  // Decision "window checks the search sees": the matcher checks a
  // position's window while it searches only when the anchor is already
  // bound, and never the trigger's own; the rest waits for emission,
  // where a failure emits nothing. RECENT searches backward from the
  // trigger, so it sees anchors at or after the position. CHRONICLE
  // searches forward with the trigger bound, so it sees anchors at or
  // before the position, or the last one. UNRESTRICTED checks every
  // window again at emission, which makes the choice invisible.
  bool VisibleInSearch(size_t pos) const {
    if (pos == n_ - 1) return false;
    const size_t a = c_.window->anchor;
    switch (c_.mode) {
      case PairingMode::kRecent:
        return a >= pos;
      case PairingMode::kChronicle:
        return a <= pos || a == n_ - 1;
      default:
        return true;
    }
  }

  bool WindowOk(const Combination& combo, bool search_only) const {
    if (!c_.window) return true;
    const Entry* anchor = combo[c_.window->anchor];
    if (anchor == nullptr) return true;  // a negated anchor bounds nothing
    for (size_t pos = 0; pos < n_; ++pos) {
      if (combo[pos] == nullptr) continue;
      if (search_only && !VisibleInSearch(pos)) continue;
      if (!InWindow(*c_.window, pos, *combo[pos], *anchor)) return false;
    }
    return true;
  }

  // Negation: no tuple of a negated stream arrived strictly between the
  // nearest non-negated positions around it.
  bool NegationOk(const Combination& combo) const {
    for (size_t i = 0; i < n_; ++i) {
      if (!negated(i)) continue;
      size_t left = i;
      size_t right = i;
      while (negated(left)) --left;    // position 0 is never negated
      while (negated(right)) ++right;  // nor is the last
      for (size_t j : history_[i]) {
        Entry e;
        e.Add(joint_[j]);
        if (Before(*combo[left], e) && Before(e, *combo[right])) return false;
      }
    }
    return true;
  }

  Result<bool> PairwiseOk(const Combination& combo) {
    for (const PairwiseConstraint& c : c_.pairwise) {
      if (combo[c.pos_a] == nullptr || combo[c.pos_b] == nullptr) continue;
      ESLEV_ASSIGN_OR_RETURN(bool ok, slots_.Test(*c.expr, combo));
      if (!ok) return false;
    }
    return true;
  }

  // Full window and final checks, then the projected row(s). Returns
  // whether the combination emitted.
  Result<bool> Emit(const Combination& combo) {
    if (!WindowOk(combo, /*search_only=*/false)) return false;
    for (const BoundExprPtr& check : c_.final_checks) {
      ESLEV_ASSIGN_OR_RETURN(bool ok, slots_.Test(*check, combo));
      if (!ok) return false;
    }
    slots_.BindAll(combo);
    const Timestamp ts = combo[n_ - 1]->last_ts();
    RowScratch& scratch = slots_.scratch();
    if (c_.per_tuple_star < 0) {
      ESLEV_ASSIGN_OR_RETURN(
          Tuple row, Project(c_.projection, c_.out_schema, scratch.Row(), ts));
      out_.push_back(std::move(row));
      return true;
    }
    // Multiple-return star (footnote 4): one row per group member.
    const size_t pos = static_cast<size_t>(c_.per_tuple_star);
    for (const Tuple& member : combo[pos]->tuples) {
      scratch.SetTuple(pos, &member);
      ESLEV_ASSIGN_OR_RETURN(
          Tuple row, Project(c_.projection, c_.out_schema, scratch.Row(), ts));
      out_.push_back(std::move(row));
    }
    return true;
  }

  // UNRESTRICTED, RECENT and CHRONICLE at the arrival `now` on the last
  // position.
  Status Trigger(size_t now) {
    std::vector<std::vector<Entry>> entries(n_);
    for (size_t pos = 0; pos < n_; ++pos) {
      if (negated(pos)) continue;
      ESLEV_ASSIGN_OR_RETURN(entries[pos], Entries(pos));
    }
    // The trigger is the arriving tuple, or under a trailing star the
    // group it joined.
    const Entry& trigger = entries[n_ - 1].back();

    // Step 1: every in-order combination that passes the pairwise
    // conjuncts, the negation and the windows the search sees. Decision
    // "UNRESTRICTED emission order": position n-2 varies slowest, and
    // each position's history is walked oldest first.
    std::vector<Combination> candidates;
    Combination combo(n_, nullptr);
    combo[n_ - 1] = &trigger;
    std::function<Status(size_t, const Entry*)> enumerate =
        [&](size_t pos, const Entry* next) -> Status {
      if (pos == static_cast<size_t>(-1)) {
        ESLEV_ASSIGN_OR_RETURN(bool ok, PairwiseOk(combo));
        if (ok && NegationOk(combo) && WindowOk(combo, /*search_only=*/true)) {
          candidates.push_back(combo);
        }
        return Status::OK();
      }
      if (negated(pos)) return enumerate(pos - 1, next);
      for (const Entry& e : entries[pos]) {
        if (!Before(e, *next)) continue;
        combo[pos] = &e;
        ESLEV_RETURN_NOT_OK(enumerate(pos - 1, &e));
      }
      combo[pos] = nullptr;
      return Status::OK();
    };
    ESLEV_RETURN_NOT_OK(enumerate(n_ - 2, &trigger));
    if (candidates.empty()) return Status::OK();

    // Step 2: the pairing mode selects. Decision "no fallback": under
    // RECENT and CHRONICLE a selected combination that fails an
    // emission-time window or final check emits nothing for this
    // trigger; the next candidate is not tried.
    switch (c_.mode) {
      case PairingMode::kRecent:
        // The most recent: newest at n-2, then at n-3, and so on.
        return Emit(candidates.back()).status();
      case PairingMode::kChronicle: {
        // The earliest: oldest at position 0, then at 1, and so on.
        const auto earlier = [this](const Combination& a,
                                    const Combination& b) {
          for (size_t pos = 0; pos < n_; ++pos) {
            if (a[pos] != nullptr && a[pos]->first != b[pos]->first) {
              return a[pos]->first < b[pos]->first;
            }
          }
          return false;
        };
        const Combination& chosen =
            *std::min_element(candidates.begin(), candidates.end(), earlier);
        ESLEV_ASSIGN_OR_RETURN(bool emitted, Emit(chosen));
        if (!emitted) return Status::OK();
        // Consume every participant; a trailing star group too.
        for (size_t pos = 0; pos < n_; ++pos) {
          if (chosen[pos] == nullptr) continue;
          if (pos + 1 < n_ || star(pos)) consumed_at_[chosen[pos]->first] = now;
        }
        return Status::OK();
      }
      default:
        for (const Combination& c : candidates) {
          ESLEV_RETURN_NOT_OK(Emit(c).status());
        }
        return Status::OK();
    }
  }

  // CONSECUTIVE at an arrival on the last position: the run must occupy
  // adjacent tuples of the joint history, one per position (a group for
  // a star), ending at this arrival.
  Status MatchConsecutive() {
    std::vector<Entry> run(n_);
    size_t end = joint_.size();  // the run so far starts at `end`
    for (size_t pos = n_; pos-- > 0;) {
      if (end == 0 || joint_[end - 1].pos != pos || negated(pos)) {
        return Status::OK();
      }
      size_t begin = end - 1;
      while (star(pos) && begin > 0 && joint_[begin - 1].pos == pos) {
        ESLEV_ASSIGN_OR_RETURN(
            bool chained,
            slots_.Test(At(c_.star_gates, pos), pos, joint_[begin].tuple,
                        &joint_[begin - 1].tuple));
        if (chained) {
          --begin;
        } else if (pos == 0) {
          break;  // the gap starts position 0's group afresh
        } else {
          return Status::OK();  // a gap inside a later group ends the run
        }
      }
      for (size_t j = begin; j < end; ++j) run[pos].Add(joint_[j]);
      end = begin;
    }
    // Each position is checked as its first tuple joins the run: the
    // order, the windows of bound anchors, and the pairwise conjuncts
    // with the positions before it. Decision "CONSECUTIVE extends a group
    // by its gate alone": the tuples that extend a star group pass only
    // the star gate.
    Combination combo(n_, nullptr);
    for (size_t pos = 0; pos < n_; ++pos) {
      if (pos > 0) {
        Entry head;
        Arrival a{pos, run[pos].first, run[pos].tuples.front()};
        head.Add(a);
        if (!Before(*combo[pos - 1], head)) return Status::OK();
        combo[pos] = &head;
        if (c_.window && c_.window->anchor <= pos &&
            !InWindow(*c_.window, pos, head, *combo[c_.window->anchor])) {
          return Status::OK();
        }
        for (const PairwiseConstraint& c : c_.pairwise) {
          if (c.pos_b != pos) continue;
          ESLEV_ASSIGN_OR_RETURN(bool ok, slots_.Test(*c.expr, combo));
          if (!ok) return Status::OK();
        }
      }
      combo[pos] = &run[pos];
    }
    return Emit(combo).status();
  }

  const SeqOperatorConfig& c_;
  const size_t n_;
  std::vector<Arrival> joint_;               // tuples past their filters
  std::vector<std::vector<size_t>> history_;  // per position, into joint_
  // CHRONICLE: entry (by first index) -> index of the consuming trigger.
  std::map<size_t, size_t> consumed_at_;
  Slots slots_;
  std::vector<Tuple> out_;
};

// ---------------------------------------------------------------------------
// EXCEPTION_SEQ / CLEVEL_SEQ
// ---------------------------------------------------------------------------

bool LevelSatisfies(int64_t level, BinaryOp op, int64_t rhs) {
  switch (op) {
    case BinaryOp::kLt:
      return level < rhs;
    case BinaryOp::kLe:
      return level <= rhs;
    case BinaryOp::kGt:
      return level > rhs;
    case BinaryOp::kGe:
      return level >= rhs;
    case BinaryOp::kEq:
      return level == rhs;
    case BinaryOp::kNe:
      return level != rhs;
    default:
      return false;
  }
}

// The §3.1.3 completion levels: one partial sequence at a time, k
// positions completed. A terminal event at level k ends it: a wrong
// tuple (1), a tuple that cannot start a sequence (2, level 0), or the
// expiry of the FOLLOWING window (3), detected by an arrival or a
// heartbeat. A partial that completes all n positions ends at level n.
class ExceptionSeqOracle {
 public:
  explicit ExceptionSeqOracle(const ExceptionSeqConfig& config)
      : c_(config), n_(config.positions.size()), slots_(config.positions) {}

  Result<std::vector<Tuple>> Run(const std::vector<SeqInput>& inputs) {
    if (n_ < 2 || c_.out_schema == nullptr) {
      return Status::Invalid("EXCEPTION_SEQ oracle: malformed configuration");
    }
    for (const SeqInput& in : inputs) {
      if (in.is_heartbeat()) {
        ESLEV_RETURN_NOT_OK(Expire(in.now));
        continue;
      }
      if (in.port >= n_) {
        return Status::Invalid("EXCEPTION_SEQ oracle: port out of range");
      }
      ESLEV_ASSIGN_OR_RETURN(
          bool pass, slots_.Test(At(c_.arrival_filters, in.port), in.port,
                                 in.tuple));
      if (!pass) continue;
      ESLEV_RETURN_NOT_OK(Expire(in.tuple.ts()));
      ESLEV_RETURN_NOT_OK(Arrive(in.port, in.tuple));
    }
    return std::move(out_);
  }

 private:
  Status Arrive(size_t pos, const Tuple& t) {
    const size_t k = partial_.size();
    // Decision "EXCEPTION_SEQ star groups": a repeat on the starred
    // position just reached extends its group when the gate and the
    // pairwise conjuncts pass; otherwise it is a wrong tuple.
    if (k > 0 && pos == k - 1 && c_.positions[pos].star) {
      ESLEV_ASSIGN_OR_RETURN(
          bool chained, slots_.Test(At(c_.star_gates, pos), pos, t,
                                    &partial_[pos].back()));
      if (chained) {
        ESLEV_ASSIGN_OR_RETURN(chained, Qualifies(pos, t));
      }
      if (chained) {
        partial_[pos].push_back(t);
        return Status::OK();
      }
      ESLEV_RETURN_NOT_OK(Terminal(k, &t, pos));
      return Restart(pos, t);
    }
    if (pos == k) {
      ESLEV_ASSIGN_OR_RETURN(bool ok, Qualifies(pos, t));
      if (ok) return Append(t);
    }
    if (k > 0 && c_.mode == PairingMode::kRecent && pos < k) {
      // The paper's (A,B)+B case: the new tuple replaces its position,
      // after the abandoned partial raises its exception.
      ESLEV_RETURN_NOT_OK(Terminal(k, &t, pos));
      partial_.resize(pos);
      deadline_.reset();
      ESLEV_ASSIGN_OR_RETURN(bool ok, Qualifies(pos, t));
      if (!ok) return Restart(pos, t);
      partial_.push_back({t});
      Arm();
      return Status::OK();
    }
    if (k > 0) ESLEV_RETURN_NOT_OK(Terminal(k, &t, pos));
    return Restart(pos, t);
  }

  // Pairwise conjuncts between `t` at `pos` and the partial's positions.
  Result<bool> Qualifies(size_t pos, const Tuple& t) {
    for (const PairwiseConstraint& c : c_.pairwise) {
      if (c.pos_b != pos || c.pos_a >= partial_.size()) continue;
      RowScratch& scratch = slots_.scratch();
      scratch.Clear();
      scratch.SetTuple(c.pos_a, &partial_[c.pos_a].back());
      if (c_.positions[c.pos_a].star) {
        scratch.SetStarGroup(c.pos_a, &partial_[c.pos_a]);
      }
      scratch.SetTuple(pos, &t);
      ESLEV_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*c.expr, scratch.Row()));
      if (!ok) return false;
    }
    return true;
  }

  Status Append(const Tuple& t) {
    partial_.push_back({t});
    Arm();
    if (partial_.size() < n_) return Status::OK();
    ESLEV_RETURN_NOT_OK(Terminal(n_, nullptr, 0));
    partial_.clear();
    deadline_.reset();
    return Status::OK();
  }

  // Scenario 2, or a fresh start at position 0.
  Status Restart(size_t pos, const Tuple& t) {
    partial_.clear();
    deadline_.reset();
    if (pos == 0) return Append(t);
    return Terminal(0, &t, pos);
  }

  // The FOLLOWING window starts at the anchor's first tuple.
  void Arm() {
    if (!c_.window || deadline_ || partial_.size() <= c_.window->anchor) {
      return;
    }
    deadline_ = partial_[c_.window->anchor].front().ts() + c_.window->length;
  }

  // Scenario 3: time passed the deadline with the partial incomplete.
  Status Expire(Timestamp now) {
    if (!deadline_ || now <= *deadline_) return Status::OK();
    ESLEV_RETURN_NOT_OK(Terminal(partial_.size(), nullptr, 0));
    partial_.clear();
    deadline_.reset();
    return Status::OK();
  }

  // The terminal event at `level`, when CLEVEL's comparison admits it.
  // Positions the partial never reached project as NULL (an empty group
  // for a star); a wrong tuple is bound at its own position.
  Status Terminal(size_t level, const Tuple* offender, size_t offender_pos) {
    if (!LevelSatisfies(static_cast<int64_t>(level), c_.level_op,
                        c_.level_rhs)) {
      return Status::OK();
    }
    static const std::vector<Tuple> kEmptyGroup;
    RowScratch& scratch = slots_.scratch();
    scratch.Clear();
    Timestamp ts = 0;
    for (size_t i = 0; i < n_; ++i) {
      if (c_.positions[i].star) scratch.SetStarGroup(i, &kEmptyGroup);
    }
    for (size_t i = 0; i < level && i < partial_.size(); ++i) {
      scratch.SetTuple(i, &partial_[i].back());
      if (c_.positions[i].star) scratch.SetStarGroup(i, &partial_[i]);
      ts = std::max(ts, partial_[i].back().ts());
    }
    if (offender != nullptr) {
      scratch.SetTuple(offender_pos, offender);
      ts = std::max(ts, offender->ts());
    }
    ESLEV_ASSIGN_OR_RETURN(
        Tuple row, Project(c_.projection, c_.out_schema, scratch.Row(), ts));
    out_.push_back(std::move(row));
    return Status::OK();
  }

  const ExceptionSeqConfig& c_;
  const size_t n_;
  std::vector<std::vector<Tuple>> partial_;  // one group per position
  std::optional<Timestamp> deadline_;
  Slots slots_;
  std::vector<Tuple> out_;
};

}  // namespace

Result<std::vector<Tuple>> RunSeqOracle(const SeqOperatorConfig& config,
                                        const std::vector<SeqInput>& inputs) {
  return SeqOracle(config).Run(inputs);
}

Result<std::vector<Tuple>> RunExceptionSeqOracle(
    const ExceptionSeqConfig& config, const std::vector<SeqInput>& inputs) {
  return ExceptionSeqOracle(config).Run(inputs);
}

}  // namespace eslev
