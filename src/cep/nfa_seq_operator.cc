#include "cep/nfa_seq_operator.h"

#include <algorithm>

namespace eslev {

namespace {
constexpr uint32_t kNoParent = 0xffffffffu;
}  // namespace

Result<std::unique_ptr<NfaSeqOperator>> NfaSeqOperator::Make(
    SeqOperatorConfig config) {
  // Identical validation to SeqOperator::Make — the backends accept
  // exactly the same configurations.
  const size_t n = config.positions.size();
  if (n < 2) {
    return Status::Invalid("SEQ requires at least two positions");
  }
  if (config.arrival_filters.empty()) config.arrival_filters.resize(n);
  if (config.star_gates.empty()) config.star_gates.resize(n);
  if (config.arrival_filters.size() != n || config.star_gates.size() != n) {
    return Status::Invalid("filter/gate vectors must match position count");
  }
  if (config.window && config.window->anchor >= n) {
    return Status::Invalid("window anchor out of range");
  }
  size_t stars = 0;
  size_t matchable = 0;
  for (const auto& p : config.positions) {
    if (p.star) ++stars;
    if (p.star && p.negated) {
      return Status::Invalid("a SEQ argument cannot be both negated and "
                             "starred");
    }
    if (!p.negated) ++matchable;
  }
  if (config.positions.front().negated || config.positions.back().negated) {
    return Status::Invalid(
        "the first and last SEQ arguments cannot be negated (a negative "
        "event needs neighbours to bound its interval)");
  }
  if (matchable < 2) {
    return Status::Invalid("SEQ requires at least two non-negated "
                           "arguments");
  }
  if (config.per_tuple_star >= 0) {
    if (static_cast<size_t>(config.per_tuple_star) >= n ||
        !config.positions[config.per_tuple_star].star) {
      return Status::Invalid("per_tuple_star must name a starred position");
    }
    if (stars > 1) {
      return Status::Invalid(
          "multiple-return is only allowed with a single star argument "
          "(paper footnote 4)");
    }
  }
  for (const auto& c : config.pairwise) {
    if (c.pos_a >= c.pos_b || c.pos_b >= n) {
      return Status::Invalid("malformed pairwise constraint");
    }
  }
  if (!config.out_schema || config.projection.empty()) {
    return Status::Invalid("SEQ operator requires a projection");
  }
  return std::unique_ptr<NfaSeqOperator>(
      new NfaSeqOperator(std::move(config)));
}

NfaSeqOperator::NfaSeqOperator(SeqOperatorConfig config)
    : config_(std::move(config)),
      nfa_(CompileSeqNfa(config_.positions, config_.pairwise, config_.mode)),
      n_(config_.positions.size()),
      last_is_star_(config_.positions.back().star),
      recent_exact_purge_(config_.pairwise.empty()),
      pool_(n_),
      runs_(nfa_.states.empty() ? 0 : nfa_.states.size() - 1),
      scratch_(n_) {}

// ---------------------------------------------------------------------------
// Predicates (shared with the history matcher's semantics)
// ---------------------------------------------------------------------------

Result<bool> NfaSeqOperator::PassesArrivalFilter(size_t pos,
                                                 const Tuple& tuple) {
  if (!config_.arrival_filters[pos]) return true;
  scratch_.Clear();
  scratch_.SetTuple(pos, &tuple);
  return EvalPredicate(*config_.arrival_filters[pos], scratch_.Row());
}

Result<bool> NfaSeqOperator::PassesStarGate(size_t pos, const Tuple& tuple,
                                            const Tuple& previous) {
  if (!config_.star_gates[pos]) return true;
  scratch_.Clear();
  scratch_.SetTuple(pos, &tuple);
  scratch_.SetPrevious(pos, &previous);
  return EvalPredicate(*config_.star_gates[pos], scratch_.Row());
}

Result<bool> NfaSeqOperator::PassesPairwise(const PairwiseConstraint& c,
                                            const Group& ga, const Group& gb) {
  scratch_.Clear();
  scratch_.SetTuple(c.pos_a, &ga.tuples.back());
  scratch_.SetTuple(c.pos_b, &gb.tuples.back());
  if (config_.positions[c.pos_a].star) {
    scratch_.SetStarGroup(c.pos_a, &ga.tuples);
  }
  if (config_.positions[c.pos_b].star) {
    scratch_.SetStarGroup(c.pos_b, &gb.tuples);
  }
  return EvalPredicate(*c.expr, scratch_.Row());
}

bool NfaSeqOperator::WindowOk(size_t pos, const Group& group,
                              const std::vector<const Group*>& chosen) const {
  if (!config_.window) return true;
  const SeqWindow& w = *config_.window;
  const Group* anchor = pos == w.anchor ? &group : chosen[w.anchor];
  if (anchor == nullptr) return true;  // verified again at emission
  const bool preceding_side =
      w.direction == WindowDirection::kPreceding ||
      w.direction == WindowDirection::kPrecedingAndFollowing;
  const bool following_side =
      w.direction == WindowDirection::kFollowing ||
      w.direction == WindowDirection::kPrecedingAndFollowing;
  if (preceding_side && pos <= w.anchor &&
      group.first_ts() < anchor->last_ts() - w.length) {
    return false;
  }
  if (following_side && pos >= w.anchor &&
      group.last_ts() > anchor->first_ts() + w.length) {
    return false;
  }
  return true;
}

bool NfaSeqOperator::WindowVisibleInSearch(size_t pos) const {
  // Which WindowOk(pos, ...) checks the history matcher evaluates
  // *during* its search; the rest are deferred to EmitMatch, where a
  // failure rejects silently (and, for RECENT/CHRONICLE, ends the
  // trigger without trying another combination). CHRONICLE searches
  // forward with the trigger pre-bound, so an anchor is in scope once
  // it is at or before the current position — or is the trigger itself.
  // RECENT searches backward, so only anchors at or after the current
  // position are bound. UNRESTRICTED full-verifies every combination,
  // making the full check equivalent. Run selection and run-extension
  // pruning must use exactly this visibility to stay byte-identical.
  if (!config_.window) return true;
  const size_t a = config_.window->anchor;
  switch (config_.mode) {
    case PairingMode::kChronicle:
      return pos != n_ - 1 && (a <= pos || a == n_ - 1);
    case PairingMode::kRecent:
      return pos != n_ - 1 && a >= pos;
    default:
      return true;
  }
}

const NfaSeqOperator::Group* NfaSeqOperator::NextChosen(
    const std::vector<const Group*>& chosen, size_t pos) const {
  for (size_t i = pos + 1; i < n_; ++i) {
    if (chosen[i] != nullptr) return chosen[i];
  }
  return nullptr;
}

const NfaSeqOperator::Group* NfaSeqOperator::PrevChosen(
    const std::vector<const Group*>& chosen, int pos) const {
  for (int i = pos - 1; i >= 0; --i) {
    if (chosen[i] != nullptr) return chosen[i];
  }
  return nullptr;
}

bool NfaSeqOperator::NegationOk(
    const std::vector<const Group*>& chosen) const {
  for (size_t i = 0; i < n_; ++i) {
    if (!config_.positions[i].negated) continue;
    const Group* left = PrevChosen(chosen, static_cast<int>(i));
    const Group* right = NextChosen(chosen, i);
    if (left == nullptr || right == nullptr) continue;  // unreachable
    for (const GroupPtr& g : pool_[i]) {
      if (Before(left->last_ts(), left->last_seq, g->first_ts(),
                 g->first_seq) &&
          Before(g->last_ts(), g->last_seq, right->first_ts(),
                 right->first_seq)) {
        return false;  // the forbidden event occurred in between
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Arrival handling
// ---------------------------------------------------------------------------

Status NfaSeqOperator::ProcessTuple(size_t port, const Tuple& tuple) {
  if (port >= n_) {
    return Status::ExecutionError("SEQ port out of range");
  }
  const uint64_t seq = arrival_seq_++;
  ESLEV_ASSIGN_OR_RETURN(bool pass, PassesArrivalFilter(port, tuple));
  if (!pass) return Status::OK();
  EvictByWindow(tuple.ts());

  if (config_.positions[port].negated &&
      config_.mode != PairingMode::kConsecutive) {
    // Forbidden-event evidence: pooled for interval checks only; it
    // drives no transition.
    bool created = false;
    return StoreArrival(port, tuple, seq, &created).status();
  }

  if (config_.mode == PairingMode::kConsecutive) {
    return HandleConsecutive(port, tuple, seq);
  }

  if (port == n_ - 1) {
    if (last_is_star_) {
      // Trailing star: the accepting state loops; emit once per arrival
      // with the accumulated group as trigger.
      bool created = false;
      ESLEV_ASSIGN_OR_RETURN(GroupPtr group,
                             StoreArrival(port, tuple, seq, &created));
      switch (config_.mode) {
        case PairingMode::kRecent:
          ESLEV_RETURN_NOT_OK(MatchRecent(*group));
          break;
        case PairingMode::kChronicle:
          ESLEV_RETURN_NOT_OK(MatchChronicle(*group));
          break;
        default:
          ESLEV_RETURN_NOT_OK(MatchUnrestricted(*group));
          break;
      }
      return Status::OK();
    }
    Group trigger;
    trigger.tuples.push_back(tuple);
    trigger.first_seq = trigger.last_seq = seq;
    switch (config_.mode) {
      case PairingMode::kRecent:
        return MatchRecent(trigger);
      case PairingMode::kChronicle:
        return MatchChronicle(trigger);
      default:
        return MatchUnrestricted(trigger);
    }
  }

  bool created = false;
  ESLEV_ASSIGN_OR_RETURN(GroupPtr group,
                         StoreArrival(port, tuple, seq, &created));
  if (created) {
    const size_t state = nfa_.state_of_position[port];
    ESLEV_RETURN_NOT_OK(ExtendRuns(state, group));
  }
  if (config_.mode == PairingMode::kRecent && recent_exact_purge_) {
    PurgeRecent();
  }
  return Status::OK();
}

Result<NfaSeqOperator::GroupPtr> NfaSeqOperator::StoreArrival(
    size_t pos, const Tuple& tuple, uint64_t seq, bool* created) {
  ++tuples_stored_;
  auto& dq = pool_[pos];
  if (config_.positions[pos].star) {
    if (!dq.empty() && dq.back()->open) {
      Group& group = *dq.back();
      ESLEV_ASSIGN_OR_RETURN(
          bool same_group, PassesStarGate(pos, tuple, group.tuples.back()));
      if (same_group) {
        group.tuples.push_back(tuple);
        group.last_seq = seq;
        *created = false;
        return dq.back();
      }
      group.open = false;  // gap: close (Figure 1(b))
    }
    auto fresh = std::make_shared<Group>();
    fresh->tuples.push_back(tuple);
    fresh->first_seq = fresh->last_seq = seq;
    fresh->open = true;
    fresh->id = next_group_id_++;
    dq.push_back(fresh);
    *created = true;
    return fresh;
  }
  auto g = std::make_shared<Group>();
  g->tuples.push_back(tuple);
  g->first_seq = g->last_seq = seq;
  g->id = next_group_id_++;
  dq.push_back(g);
  *created = true;
  return g;
}

Status NfaSeqOperator::ExtendRuns(size_t state, const GroupPtr& group) {
  if (state == SeqNfa::kNoState || state >= runs_.size()) {
    return Status::OK();
  }
  if (state == 0) {
    // Begin edge: the arrival filter already passed; everything else is
    // verified at acceptance.
    auto node = std::make_unique<RunNode>();
    node->group = group;
    node->state = 0;
    runs_[0].push_back(std::move(node));
    ++runs_created_;
    return Status::OK();
  }
  // Take edge: extend each compatible run at state-1, in creation order
  // (keeps the leaf list in the history matcher's enumeration order).
  // Prune only on guards whose failure is permanent:
  //  * sequence order — group extents only grow at the tail;
  //  * window bounds — anchor.last grows, entry.first is fixed;
  //  * pairwise constraints with both endpoint groups closed.
  // Everything else waits for acceptance-time verification.
  const NfaTransition& take = nfa_.transitions[state];
  std::vector<const Group*> chosen(n_, nullptr);
  for (std::unique_ptr<RunNode>& parent : runs_[state - 1]) {
    const Group& prev = *parent->group;
    if (!Before(prev.last_ts(), prev.last_seq, group->first_ts(),
                group->first_seq)) {
      continue;
    }
    std::fill(chosen.begin(), chosen.end(), nullptr);
    for (const RunNode* node = parent.get(); node != nullptr;
         node = node->parent) {
      chosen[nfa_.states[node->state].position] = node->group.get();
    }
    chosen[nfa_.states[state].position] = group.get();
    bool ok = true;
    for (size_t pos = 0; pos < n_ && ok; ++pos) {
      if (chosen[pos] == nullptr) continue;
      if (!WindowVisibleInSearch(pos)) continue;
      if (!WindowOk(pos, *chosen[pos], chosen)) ok = false;
    }
    if (!ok) continue;
    for (size_t ci : take.pairwise) {
      const PairwiseConstraint& c = config_.pairwise[ci];
      const Group* ga = chosen[c.pos_a];
      const Group* gb = chosen[c.pos_b];
      if (ga == nullptr || gb == nullptr) continue;
      if (ga->open || gb->open) continue;  // contents may still change
      ESLEV_ASSIGN_OR_RETURN(bool pw, PassesPairwise(c, *ga, *gb));
      if (!pw) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    auto node = std::make_unique<RunNode>();
    node->parent = parent.get();
    node->group = group;
    node->state = state;
    ++parent->children;
    if (parent->children >= 2) ++shared_prefixes_;
    runs_[state].push_back(std::move(node));
    ++runs_created_;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Acceptance: run-selection policies per pairing mode
// ---------------------------------------------------------------------------

void NfaSeqOperator::CollectChosen(const RunNode* leaf, const Group& trigger,
                                   std::vector<const Group*>* chosen) const {
  std::fill(chosen->begin(), chosen->end(), nullptr);
  (*chosen)[nfa_.states[nfa_.accept_state()].position] = &trigger;
  for (const RunNode* node = leaf; node != nullptr; node = node->parent) {
    (*chosen)[nfa_.states[node->state].position] = node->group.get();
  }
}

Result<bool> NfaSeqOperator::ValidChosen(
    const std::vector<const Group*>& chosen) {
  // Sequence order along adjacent bound positions.
  const Group* prev = nullptr;
  for (size_t pos = 0; pos < n_; ++pos) {
    if (chosen[pos] == nullptr) continue;
    if (prev != nullptr &&
        !Before(prev->last_ts(), prev->last_seq, chosen[pos]->first_ts(),
                chosen[pos]->first_seq)) {
      return false;
    }
    prev = chosen[pos];
  }
  // Windows — but only the checks the history DFS would have made at
  // this point; deferred ones are left to EmitMatch's silent reject.
  for (size_t pos = 0; pos < n_; ++pos) {
    if (chosen[pos] == nullptr) continue;
    if (!WindowVisibleInSearch(pos)) continue;
    if (!WindowOk(pos, *chosen[pos], chosen)) return false;
  }
  // Pairwise constraints, now against final group contents.
  for (const PairwiseConstraint& c : config_.pairwise) {
    const Group* ga = chosen[c.pos_a];
    const Group* gb = chosen[c.pos_b];
    if (ga == nullptr || gb == nullptr) continue;
    ESLEV_ASSIGN_OR_RETURN(bool ok, PassesPairwise(c, *ga, *gb));
    if (!ok) return false;
  }
  if (!NegationOk(chosen)) return false;
  return true;
}

Status NfaSeqOperator::MatchUnrestricted(const Group& trigger) {
  if (runs_.empty()) return Status::OK();
  std::vector<const Group*> chosen(n_, nullptr);
  // Leaf creation order == ascending enumeration order of the history
  // matcher (most-significant index at the pre-accepting position).
  auto& leaves = runs_[runs_.size() - 1];
  for (size_t i = 0; i < leaves.size(); ++i) {
    CollectChosen(leaves[i].get(), trigger, &chosen);
    ESLEV_ASSIGN_OR_RETURN(bool ok, ValidChosen(chosen));
    if (!ok) continue;
    ESLEV_RETURN_NOT_OK(EmitMatch(chosen));
  }
  return Status::OK();
}

Status NfaSeqOperator::MatchRecent(const Group& trigger) {
  if (runs_.empty()) return Status::OK();
  std::vector<const Group*> chosen(n_, nullptr);
  // Reverse creation order == the history matcher's most-recent-first
  // DFS with backtracking; the first fully valid run wins.
  auto& leaves = runs_[runs_.size() - 1];
  for (size_t i = leaves.size(); i-- > 0;) {
    CollectChosen(leaves[i].get(), trigger, &chosen);
    ESLEV_ASSIGN_OR_RETURN(bool ok, ValidChosen(chosen));
    if (!ok) continue;
    // Final checks may still reject inside EmitMatch; per RECENT, no
    // earlier combination is tried (mirrors the history DFS, which
    // stops on the first combination passing the search guards).
    return EmitMatch(chosen);
  }
  return Status::OK();
}

Status NfaSeqOperator::MatchChronicle(const Group& trigger) {
  if (runs_.empty()) return Status::OK();
  std::vector<const Group*> chosen(n_, nullptr);
  // The earliest qualifying combination == the valid leaf whose chain of
  // group creation ids is root-first lexicographically smallest.
  auto& leaves = runs_[runs_.size() - 1];
  const RunNode* best = nullptr;
  std::vector<uint64_t> best_key;
  std::vector<uint64_t> key;
  for (size_t i = 0; i < leaves.size(); ++i) {
    CollectChosen(leaves[i].get(), trigger, &chosen);
    ESLEV_ASSIGN_OR_RETURN(bool ok, ValidChosen(chosen));
    if (!ok) continue;
    key.clear();
    for (const RunNode* node = leaves[i].get(); node != nullptr;
         node = node->parent) {
      key.push_back(node->group->id);
    }
    std::reverse(key.begin(), key.end());  // root first
    if (best == nullptr || key < best_key) {
      best = leaves[i].get();
      best_key = key;
    }
  }
  if (best == nullptr) return Status::OK();

  CollectChosen(best, trigger, &chosen);
  const uint64_t emitted_before = matches_emitted_;
  ESLEV_RETURN_NOT_OK(EmitMatch(chosen));
  if (matches_emitted_ == emitted_before) {
    // Final checks rejected the earliest combination: per CHRONICLE, the
    // tuples are not consumed and no event is produced for this trigger.
    return Status::OK();
  }
  // Consume: each tuple participates in at most one event.
  for (const RunNode* node = best; node != nullptr; node = node->parent) {
    Group* g = node->group.get();
    g->dead = true;
    auto& dq = pool_[nfa_.states[node->state].position];
    for (auto it = dq.begin(); it != dq.end(); ++it) {
      if (it->get() == g) {
        tuples_purged_ += g->tuples.size();
        dq.erase(it);
        break;
      }
    }
  }
  if (last_is_star_ && !pool_[n_ - 1].empty()) {
    // A consumed trailing group cannot participate again.
    for (const GroupPtr& g : pool_[n_ - 1]) {
      tuples_purged_ += g->tuples.size();
      g->dead = true;
    }
    pool_[n_ - 1].clear();
  }
  PruneDeadRuns();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CONSECUTIVE: the automaton degenerates to one adjacent run
// ---------------------------------------------------------------------------

Status NfaSeqOperator::HandleConsecutive(size_t pos, const Tuple& tuple,
                                         uint64_t seq) {
  auto purge_run = [&]() {
    for (const Group& g : run_) tuples_purged_ += g.tuples.size();
    run_.clear();
  };
  auto start_new_run = [&]() {
    purge_run();
    if (pos == 0) {
      Group g;
      g.tuples.push_back(tuple);
      g.first_seq = g.last_seq = seq;
      g.open = config_.positions[0].star;
      ++tuples_stored_;
      run_.push_back(std::move(g));
    }
  };

  if (config_.positions[pos].negated) {
    // The forbidden event occurred on the joint history: any active run
    // is no longer a run of adjacent tuples.
    purge_run();
    return Status::OK();
  }

  if (run_.empty()) {
    start_new_run();
    return Status::OK();
  }

  const size_t cur = run_.size() - 1;
  // Same-position arrival on an open star group: the loop edge.
  if (pos == cur && config_.positions[cur].star && run_[cur].open) {
    ESLEV_ASSIGN_OR_RETURN(
        bool same_group,
        PassesStarGate(pos, tuple, run_[cur].tuples.back()));
    if (same_group) {
      run_[cur].tuples.push_back(tuple);
      run_[cur].last_seq = seq;
      ++tuples_stored_;
      if (cur == n_ - 1) {
        // Trailing star completes on every arrival.
        std::vector<const Group*> chosen(n_);
        for (size_t i = 0; i < n_; ++i) chosen[i] = &run_[i];
        ESLEV_RETURN_NOT_OK(EmitMatch(chosen));
      }
      return Status::OK();
    }
    start_new_run();
    return Status::OK();
  }

  // The take edge into the expected next position.
  if (pos == cur + 1) {
    const Group& prev = run_[cur];
    Group cand;
    cand.tuples.push_back(tuple);
    cand.first_seq = cand.last_seq = seq;
    cand.open = config_.positions[pos].star;
    bool ok = Before(prev.last_ts(), prev.last_seq, cand.first_ts(),
                     cand.first_seq);
    if (ok) {
      std::vector<const Group*> chosen(n_, nullptr);
      for (size_t i = 0; i < run_.size(); ++i) chosen[i] = &run_[i];
      if (!WindowOk(pos, cand, chosen)) ok = false;
      if (ok) {
        for (const PairwiseConstraint& c : config_.pairwise) {
          const Group* ga = nullptr;
          const Group* gb = nullptr;
          if (c.pos_a == pos && chosen[c.pos_b] != nullptr) {
            ga = &cand;
            gb = chosen[c.pos_b];
          } else if (c.pos_b == pos && chosen[c.pos_a] != nullptr) {
            ga = chosen[c.pos_a];
            gb = &cand;
          } else {
            continue;
          }
          ESLEV_ASSIGN_OR_RETURN(bool pw, PassesPairwise(c, *ga, *gb));
          if (!pw) {
            ok = false;
            break;
          }
        }
      }
    }
    if (!ok) {
      start_new_run();
      return Status::OK();
    }
    ++tuples_stored_;
    run_.push_back(std::move(cand));
    if (pos == n_ - 1) {
      std::vector<const Group*> chosen(n_);
      for (size_t i = 0; i < n_; ++i) chosen[i] = &run_[i];
      ESLEV_RETURN_NOT_OK(EmitMatch(chosen));
      if (!config_.positions[pos].star) {
        purge_run();  // completed; trailing star keeps accumulating
      }
    }
    return Status::OK();
  }

  // No ignore edges under CONSECUTIVE: any other arrival kills the run.
  start_new_run();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

Status NfaSeqOperator::EmitMatch(const std::vector<const Group*>& chosen) {
  // Full window verification (extension-time prunes may have lacked the
  // anchor binding). Negated positions carry no group.
  for (size_t pos = 0; pos < n_; ++pos) {
    if (chosen[pos] == nullptr) continue;
    if (!WindowOk(pos, *chosen[pos], chosen)) return Status::OK();
  }
  if (!NegationOk(chosen)) return Status::OK();
  scratch_.Clear();
  for (size_t pos = 0; pos < n_; ++pos) {
    if (chosen[pos] == nullptr) continue;
    scratch_.SetTuple(pos, &chosen[pos]->tuples.back());
    if (config_.positions[pos].star) {
      scratch_.SetStarGroup(pos, &chosen[pos]->tuples);
    }
  }
  for (const auto& check : config_.final_checks) {
    ESLEV_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*check, scratch_.Row()));
    if (!ok) return Status::OK();
  }
  ++matches_emitted_;
  const Timestamp out_ts = chosen[n_ - 1]->last_ts();

  auto project_and_emit = [&]() -> Status {
    std::vector<Value> values;
    values.reserve(config_.projection.size());
    for (const auto& e : config_.projection) {
      ESLEV_ASSIGN_OR_RETURN(Value v, e->Eval(scratch_.Row()));
      values.push_back(std::move(v));
    }
    ESLEV_ASSIGN_OR_RETURN(
        Tuple out, MakeTuple(config_.out_schema, std::move(values), out_ts));
    return Emit(out);
  };

  if (config_.per_tuple_star >= 0) {
    const size_t star_pos = static_cast<size_t>(config_.per_tuple_star);
    for (const Tuple& member : chosen[star_pos]->tuples) {
      scratch_.SetTuple(star_pos, &member);
      ESLEV_RETURN_NOT_OK(project_and_emit());
    }
    return Status::OK();
  }
  return project_and_emit();
}

// ---------------------------------------------------------------------------
// Purging: pool rules identical to the history matcher, then run sweep
// ---------------------------------------------------------------------------

void NfaSeqOperator::EvictByWindow(Timestamp now) {
  if (!config_.window) return;
  const SeqWindow& w = *config_.window;
  const bool preceding_last =
      (w.direction == WindowDirection::kPreceding ||
       w.direction == WindowDirection::kPrecedingAndFollowing) &&
      w.anchor == n_ - 1;
  if (!preceding_last) return;
  bool any_dead = false;
  for (auto& dq : pool_) {
    while (!dq.empty() && !dq.front()->open &&
           dq.front()->last_ts() < now - w.length) {
      tuples_purged_ += dq.front()->tuples.size();
      dq.front()->dead = true;
      any_dead = true;
      dq.pop_front();
    }
  }
  if (any_dead) PruneDeadRuns();
}

void NfaSeqOperator::PurgeRecent() {
  // Exact retained-set computation, identical to the history matcher
  // (see SeqOperator::PurgeRecent for the derivation).
  std::vector<std::vector<size_t>> keep(n_);
  std::vector<const Group*> bounds;
  for (int pos = static_cast<int>(n_) - 2; pos >= 0; --pos) {
    auto& dq = pool_[pos];
    if (config_.positions[pos].negated) {
      std::vector<size_t> all(dq.size());
      for (size_t i = 0; i < dq.size(); ++i) all[i] = i;
      keep[pos] = all;
      continue;
    }
    std::vector<size_t> retained;
    if (!dq.empty()) {
      retained.push_back(dq.size() - 1);
      for (const Group* b : bounds) {
        for (size_t i = dq.size(); i-- > 0;) {
          if (Before(dq[i]->last_ts(), dq[i]->last_seq, b->first_ts(),
                     b->first_seq)) {
            retained.push_back(i);
            break;
          }
        }
      }
      for (size_t i = 0; i < dq.size(); ++i) {
        if (dq[i]->open) retained.push_back(i);
      }
      std::sort(retained.begin(), retained.end());
      retained.erase(std::unique(retained.begin(), retained.end()),
                     retained.end());
    }
    keep[pos] = retained;
    bounds.clear();
    for (size_t idx : retained) bounds.push_back(dq[idx].get());
  }
  bool any_dead = false;
  for (size_t pos = 0; pos + 1 < n_; ++pos) {
    auto& dq = pool_[pos];
    std::deque<GroupPtr> next;
    size_t dropped = 0;
    for (const GroupPtr& g : dq) dropped += g->tuples.size();
    for (size_t idx : keep[pos]) next.push_back(dq[idx]);
    for (const GroupPtr& g : next) dropped -= g->tuples.size();
    if (next.size() != dq.size()) {
      for (const GroupPtr& g : dq) g->dead = true;
      for (const GroupPtr& g : next) g->dead = false;
      any_dead = true;
    }
    tuples_purged_ += dropped;
    dq = std::move(next);
  }
  if (any_dead) PruneDeadRuns();
}

void NfaSeqOperator::PruneDeadRuns() {
  // Mark first (parents live in lower states, so their flags are final
  // by the time children read them), then sweep.
  for (auto& state_runs : runs_) {
    for (auto& node : state_runs) {
      node->dead = node->group->dead ||
                   (node->parent != nullptr && node->parent->dead);
    }
  }
  for (auto& state_runs : runs_) {
    auto it = std::remove_if(
        state_runs.begin(), state_runs.end(),
        [](const std::unique_ptr<RunNode>& n) { return n->dead; });
    runs_purged_ += static_cast<uint64_t>(state_runs.end() - it);
    state_runs.erase(it, state_runs.end());
  }
}

Status NfaSeqOperator::ProcessHeartbeat(Timestamp now) {
  EvictByWindow(now);
  return EmitHeartbeat(now);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

size_t NfaSeqOperator::history_size() const {
  size_t total = 0;
  for (const auto& dq : pool_) {
    for (const GroupPtr& g : dq) total += g->tuples.size();
  }
  for (const Group& g : run_) total += g.tuples.size();
  return total;
}

size_t NfaSeqOperator::open_star_length() const {
  size_t total = 0;
  for (const auto& dq : pool_) {
    for (const GroupPtr& g : dq) {
      if (g->open) total += g->tuples.size();
    }
  }
  for (const Group& g : run_) {
    if (g.open) total += g.tuples.size();
  }
  return total;
}

size_t NfaSeqOperator::live_runs() const {
  size_t total = 0;
  for (const auto& state_runs : runs_) total += state_runs.size();
  return total;
}

void NfaSeqOperator::AppendStats(OperatorStatList* out) const {
  out->push_back({"retained_history", static_cast<int64_t>(history_size())});
  out->push_back({"tuples_stored", static_cast<int64_t>(tuples_stored_)});
  out->push_back({"tuples_purged", static_cast<int64_t>(tuples_purged_)});
  out->push_back({"matches", static_cast<int64_t>(matches_emitted_)});
  out->push_back(
      {"open_star_length", static_cast<int64_t>(open_star_length())});
  out->push_back({"nfa_states", static_cast<int64_t>(nfa_.states.size())});
  out->push_back(
      {"nfa_transitions", static_cast<int64_t>(nfa_.transitions.size())});
  out->push_back({"nfa_live_runs", static_cast<int64_t>(live_runs())});
  out->push_back({"nfa_runs_created", static_cast<int64_t>(runs_created_)});
  out->push_back({"nfa_runs_purged", static_cast<int64_t>(runs_purged_)});
  out->push_back(
      {"nfa_shared_prefixes", static_cast<int64_t>(shared_prefixes_)});
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

Status NfaSeqOperator::SaveState(BinaryEncoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(SeqBackend::kNfa));
  enc->PutU64(arrival_seq_);
  enc->PutU64(matches_emitted_);
  enc->PutU64(tuples_stored_);
  enc->PutU64(tuples_purged_);
  enc->PutU64(next_group_id_);
  enc->PutU64(runs_created_);
  enc->PutU64(runs_purged_);
  enc->PutU64(shared_prefixes_);
  const auto put_group = [enc](const Group& g) {
    enc->PutU32(static_cast<uint32_t>(g.tuples.size()));
    for (const Tuple& t : g.tuples) enc->PutTuple(t);
    enc->PutU64(g.first_seq);
    enc->PutU64(g.last_seq);
    enc->PutBool(g.open);
    enc->PutU64(g.id);
  };
  enc->PutU32(static_cast<uint32_t>(pool_.size()));
  for (const std::deque<GroupPtr>& position : pool_) {
    enc->PutU32(static_cast<uint32_t>(position.size()));
    for (const GroupPtr& g : position) put_group(*g);
  }
  // Runs serialize as (parent index, pool index) pairs: a run's group is
  // always a pool group, and a live child's parent is always a live node
  // in the previous state's list.
  enc->PutU32(static_cast<uint32_t>(runs_.size()));
  for (size_t s = 0; s < runs_.size(); ++s) {
    const auto& state_runs = runs_[s];
    enc->PutU32(static_cast<uint32_t>(state_runs.size()));
    const auto& dq = pool_[nfa_.states[s].position];
    for (const auto& node : state_runs) {
      uint32_t parent_idx = kNoParent;
      if (node->parent != nullptr) {
        const auto& parents = runs_[s - 1];
        for (size_t i = 0; i < parents.size(); ++i) {
          if (parents[i].get() == node->parent) {
            parent_idx = static_cast<uint32_t>(i);
            break;
          }
        }
        if (parent_idx == kNoParent) {
          return Status::IoError("SEQ NFA checkpoint: dangling parent run");
        }
      }
      uint32_t group_idx = kNoParent;
      for (size_t i = 0; i < dq.size(); ++i) {
        if (dq[i].get() == node->group.get()) {
          group_idx = static_cast<uint32_t>(i);
          break;
        }
      }
      if (group_idx == kNoParent) {
        return Status::IoError("SEQ NFA checkpoint: run group not pooled");
      }
      enc->PutU32(parent_idx);
      enc->PutU32(group_idx);
    }
  }
  enc->PutU32(static_cast<uint32_t>(run_.size()));
  for (const Group& g : run_) put_group(g);
  return Status::OK();
}

Status NfaSeqOperator::RestoreState(BinaryDecoder* dec) {
  ESLEV_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  ESLEV_RETURN_NOT_OK(CheckSeqCheckpointTag(tag, SeqBackend::kNfa, "SEQ"));
  const auto get_group = [dec](Group* g) -> Status {
    ESLEV_ASSIGN_OR_RETURN(uint32_t ntuples, dec->GetU32());
    if (ntuples == 0) {
      return Status::IoError("SEQ checkpoint: empty history entry");
    }
    ESLEV_RETURN_NOT_OK(
        dec->CheckCount(ntuples, BinaryDecoder::kMinTupleBytes));
    g->tuples.reserve(ntuples);
    for (uint32_t i = 0; i < ntuples; ++i) {
      ESLEV_ASSIGN_OR_RETURN(Tuple t, dec->GetTuple());
      g->tuples.push_back(std::move(t));
    }
    ESLEV_ASSIGN_OR_RETURN(g->first_seq, dec->GetU64());
    ESLEV_ASSIGN_OR_RETURN(g->last_seq, dec->GetU64());
    ESLEV_ASSIGN_OR_RETURN(g->open, dec->GetBool());
    ESLEV_ASSIGN_OR_RETURN(g->id, dec->GetU64());
    return Status::OK();
  };
  ESLEV_ASSIGN_OR_RETURN(arrival_seq_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(matches_emitted_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(tuples_stored_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(tuples_purged_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(next_group_id_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(runs_created_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(runs_purged_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(shared_prefixes_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(uint32_t npos, dec->GetU32());
  if (npos != n_) {
    return Status::IoError("SEQ checkpoint: position count mismatch (file " +
                           std::to_string(npos) + ", plan " +
                           std::to_string(n_) + ")");
  }
  for (std::deque<GroupPtr>& position : pool_) {
    position.clear();
    ESLEV_ASSIGN_OR_RETURN(uint32_t ngroups, dec->GetU32());
    for (uint32_t i = 0; i < ngroups; ++i) {
      auto g = std::make_shared<Group>();
      ESLEV_RETURN_NOT_OK(get_group(g.get()));
      position.push_back(std::move(g));
    }
  }
  ESLEV_ASSIGN_OR_RETURN(uint32_t nstates, dec->GetU32());
  if (nstates != runs_.size()) {
    return Status::IoError("SEQ NFA checkpoint: state count mismatch");
  }
  for (auto& state_runs : runs_) state_runs.clear();
  for (size_t s = 0; s < runs_.size(); ++s) {
    ESLEV_ASSIGN_OR_RETURN(uint32_t nruns, dec->GetU32());
    const auto& dq = pool_[nfa_.states[s].position];
    for (uint32_t i = 0; i < nruns; ++i) {
      ESLEV_ASSIGN_OR_RETURN(uint32_t parent_idx, dec->GetU32());
      ESLEV_ASSIGN_OR_RETURN(uint32_t group_idx, dec->GetU32());
      auto node = std::make_unique<RunNode>();
      node->state = s;
      if (parent_idx != kNoParent) {
        if (s == 0 || parent_idx >= runs_[s - 1].size()) {
          return Status::IoError("SEQ NFA checkpoint: bad parent index");
        }
        node->parent = runs_[s - 1][parent_idx].get();
        ++node->parent->children;
      } else if (s != 0) {
        return Status::IoError("SEQ NFA checkpoint: missing parent index");
      }
      if (group_idx >= dq.size()) {
        return Status::IoError("SEQ NFA checkpoint: bad group index");
      }
      node->group = dq[group_idx];
      runs_[s].push_back(std::move(node));
    }
  }
  run_.clear();
  ESLEV_ASSIGN_OR_RETURN(uint32_t nrun, dec->GetU32());
  if (nrun > n_) {
    return Status::IoError("SEQ checkpoint: run longer than position count");
  }
  for (uint32_t i = 0; i < nrun; ++i) {
    Group g;
    ESLEV_RETURN_NOT_OK(get_group(&g));
    run_.push_back(std::move(g));
  }
  return Status::OK();
}

}  // namespace eslev
