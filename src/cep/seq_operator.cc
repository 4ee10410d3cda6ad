#include "cep/seq_operator.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace eslev {

namespace {

// The trigger's equality class (DESIGN.md §5, keyed SEQ matching): a
// union-find over (position, column) nodes, linked only by plain
// `Pi.col = Pj.col` conjuncts between non-star, non-negated positions.
// Returns, per position, the column in the class of the final position
// that reaches the most positions (ties: the trigger column written
// first), or -1; all -1 when CONSECUTIVE, trailing-star or nothing links
// the trigger.
std::vector<int> DeriveKeyColumns(const SeqOperatorConfig& config) {
  const size_t n = config.positions.size();
  std::vector<int> keys(n, -1);
  if (config.mode == PairingMode::kConsecutive ||
      config.positions.back().star) {
    return keys;
  }
  std::vector<std::pair<size_t, size_t>> nodes;  // (position, column)
  std::vector<size_t> parent;
  const auto node = [&](size_t pos, size_t col) {
    const auto it = std::find(nodes.begin(), nodes.end(),
                              std::make_pair(pos, col));
    if (it != nodes.end()) return static_cast<size_t>(it - nodes.begin());
    nodes.emplace_back(pos, col);
    parent.push_back(parent.size());
    return nodes.size() - 1;
  };
  const auto find = [&parent](size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  const auto plain = [&config](size_t pos) {
    return !config.positions[pos].star && !config.positions[pos].negated;
  };
  for (const PairwiseConstraint& c : config.pairwise) {
    const auto* eq = dynamic_cast<const BoundBinary*>(c.expr.get());
    if (eq == nullptr || eq->op() != BinaryOp::kEq) continue;
    const auto* l = dynamic_cast<const BoundColumnRef*>(&eq->lhs());
    const auto* r = dynamic_cast<const BoundColumnRef*>(&eq->rhs());
    if (l == nullptr || r == nullptr || l->previous() || r->previous()) {
      continue;
    }
    if (std::min(l->slot(), r->slot()) != c.pos_a ||
        std::max(l->slot(), r->slot()) != c.pos_b || !plain(c.pos_a) ||
        !plain(c.pos_b)) {
      continue;
    }
    const size_t a = node(l->slot(), l->column());
    const size_t b = node(r->slot(), r->column());
    parent[find(a)] = find(b);
  }
  // Nodes are numbered in the order the conjuncts name them.
  size_t best_root = 0;
  size_t best_reach = 0;
  std::vector<bool> reached(n);
  for (size_t t = 0; t < nodes.size(); ++t) {
    if (nodes[t].first != n - 1) continue;
    reached.assign(n, false);
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (find(i) == find(t)) reached[nodes[i].first] = true;
    }
    const size_t reach =
        static_cast<size_t>(std::count(reached.begin(), reached.end(), true));
    if (reach > best_reach) {
      best_root = find(t);
      best_reach = reach;
    }
  }
  if (best_reach == 0) return keys;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (find(i) != best_root) continue;
    int& key = keys[nodes[i].first];
    const int column = static_cast<int>(nodes[i].second);
    if (key < 0 || column < key) key = column;
  }
  return keys;
}

}  // namespace

Result<std::unique_ptr<SeqOperator>> SeqOperator::Make(
    SeqOperatorConfig config) {
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
  if (config.mode == PairingMode::kConsecutive) {
    // Adjacency on the joint history already implies nothing occurred in
    // between, so negation is redundant there; supported anyway via the
    // run-interruption rule in HandleConsecutive.
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
  std::vector<int> key_columns = DeriveKeyColumns(config);
  return std::unique_ptr<SeqOperator>(
      new SeqOperator(std::move(config), std::move(key_columns)));
}

SeqOperator::SeqOperator(SeqOperatorConfig config,
                         std::vector<int> key_columns)
    : config_(std::move(config)),
      n_(config_.positions.size()),
      last_is_star_(config_.positions.back().star),
      recent_purge_(RecentPurgeApplies(config_)),
      key_columns_(std::move(key_columns)),
      history_(n_),
      scratch_(n_) {}

uint32_t SeqOperator::KeyOf(size_t pos, const Tuple& tuple) const {
  const size_t h =
      tuple.value(static_cast<size_t>(key_columns_[pos])).KeyHash();
  return static_cast<uint32_t>(h ^ (static_cast<uint64_t>(h) >> 32));
}

std::string SeqOperator::KeyDescription() const {
  std::string out;
  for (size_t pos = 0; pos < n_; ++pos) {
    if (key_columns_[pos] < 0) continue;
    const SeqPosition& p = config_.positions[pos];
    if (!out.empty()) out += ", ";
    out += p.alias + "." +
           p.schema->field(static_cast<size_t>(key_columns_[pos])).name;
  }
  return out;
}

const SeqOperator::Entry* SeqOperator::NextChosen(
    const std::vector<const Entry*>& chosen, size_t pos) const {
  for (size_t i = pos + 1; i < n_; ++i) {
    if (chosen[i] != nullptr) return chosen[i];
  }
  return nullptr;
}

const SeqOperator::Entry* SeqOperator::PrevChosen(
    const std::vector<const Entry*>& chosen, int pos) const {
  for (int i = pos - 1; i >= 0; --i) {
    if (chosen[i] != nullptr) return chosen[i];
  }
  return nullptr;
}

bool SeqOperator::NegationOk(const std::vector<const Entry*>& chosen) const {
  for (size_t i = 0; i < n_; ++i) {
    if (!config_.positions[i].negated) continue;
    // The interval runs between the nearest non-negated positions around
    // i (the first and last never are); it is checked once both are
    // bound, never against a farther bound entry.
    size_t l = i;
    size_t r = i;
    while (config_.positions[l].negated) --l;
    while (config_.positions[r].negated) ++r;
    const Entry* left = chosen[l];
    const Entry* right = chosen[r];
    if (left == nullptr || right == nullptr) continue;
    for (const Entry& e : history_[i]) {
      if (Before(left->last_ts(), left->last_seq, e.first_ts(),
                 e.first_seq) &&
          Before(e.last_ts(), e.last_seq, right->first_ts(),
                 right->first_seq)) {
        return false;  // the forbidden event occurred in between
      }
    }
  }
  return true;
}

size_t SeqOperator::history_size() const {
  size_t total = 0;
  for (const auto& dq : history_) {
    for (const auto& e : dq) total += e.tuples.size();
  }
  for (const auto& e : run_) total += e.tuples.size();
  return total;
}

Result<bool> SeqOperator::PassesArrivalFilter(size_t pos, const Tuple& tuple) {
  if (!config_.arrival_filters[pos]) return true;
  scratch_.Clear();
  scratch_.SetTuple(pos, &tuple);
  return EvalPredicate(*config_.arrival_filters[pos], scratch_.Row());
}

Result<bool> SeqOperator::PassesStarGate(size_t pos, const Tuple& tuple,
                                         const Tuple& previous) {
  if (!config_.star_gates[pos]) return true;
  scratch_.Clear();
  scratch_.SetTuple(pos, &tuple);
  scratch_.SetPrevious(pos, &previous);
  return EvalPredicate(*config_.star_gates[pos], scratch_.Row());
}

Result<bool> SeqOperator::PassesPairwise(const PairwiseConstraint& c,
                                         const Entry& ea, const Entry& eb) {
  ++pairwise_evals_;
  scratch_.Clear();
  scratch_.SetTuple(c.pos_a, &ea.tuples.back());
  scratch_.SetTuple(c.pos_b, &eb.tuples.back());
  if (config_.positions[c.pos_a].star) {
    scratch_.SetStarGroup(c.pos_a, &ea.tuples);
  }
  if (config_.positions[c.pos_b].star) {
    scratch_.SetStarGroup(c.pos_b, &eb.tuples);
  }
  return EvalPredicate(*c.expr, scratch_.Row());
}

Result<bool> SeqOperator::PairwiseOkWithChosen(
    size_t pos, const Entry& candidate,
    const std::vector<const Entry*>& chosen) {
  for (const auto& c : config_.pairwise) {
    const Entry* ea = nullptr;
    const Entry* eb = nullptr;
    if (c.pos_a == pos && chosen[c.pos_b] != nullptr) {
      ea = &candidate;
      eb = chosen[c.pos_b];
    } else if (c.pos_b == pos && chosen[c.pos_a] != nullptr) {
      ea = chosen[c.pos_a];
      eb = &candidate;
    } else {
      continue;
    }
    ESLEV_ASSIGN_OR_RETURN(bool ok, PassesPairwise(c, *ea, *eb));
    if (!ok) return false;
  }
  return true;
}

bool SeqOperator::WindowOk(size_t pos, const Entry& entry,
                           const std::vector<const Entry*>& chosen) const {
  if (!config_.window) return true;
  const SeqWindow& w = *config_.window;
  const Entry* anchor =
      pos == w.anchor ? &entry : chosen[w.anchor];
  if (anchor == nullptr) return true;  // verified again at emission
  const bool preceding_side =
      w.direction == WindowDirection::kPreceding ||
      w.direction == WindowDirection::kPrecedingAndFollowing;
  const bool following_side =
      w.direction == WindowDirection::kFollowing ||
      w.direction == WindowDirection::kPrecedingAndFollowing;
  if (preceding_side && pos <= w.anchor &&
      entry.first_ts() < anchor->last_ts() - w.length) {
    return false;
  }
  if (following_side && pos >= w.anchor &&
      entry.last_ts() > anchor->first_ts() + w.length) {
    return false;
  }
  return true;
}

Status SeqOperator::ProcessTuple(size_t port, const Tuple& tuple) {
  if (port >= n_) {
    return Status::ExecutionError("SEQ port out of range");
  }
  const uint64_t seq = arrival_seq_++;
  ESLEV_ASSIGN_OR_RETURN(bool pass, PassesArrivalFilter(port, tuple));
  if (!pass) return Status::OK();
  // KeyOf() reads the key column without a bounds check.
  if (key_columns_[port] >= 0 &&
      static_cast<size_t>(key_columns_[port]) >= tuple.size()) {
    return Status::ExecutionError("SEQ key column out of range for " +
                                  config_.positions[port].alias);
  }
  EvictByWindow(tuple.ts());

  if (config_.positions[port].negated &&
      config_.mode != PairingMode::kConsecutive) {
    // A forbidden event: record it for interval checks; it never
    // participates in matching directly.
    return StoreArrival(port, tuple, seq);
  }

  if (config_.mode == PairingMode::kConsecutive) {
    return HandleConsecutive(port, tuple, seq);
  }

  if (port == n_ - 1) {
    if (last_is_star_) {
      // Trailing star: accumulate and emit online, once per arrival.
      ESLEV_RETURN_NOT_OK(StoreArrival(port, tuple, seq));
      Entry& group = history_[port].back();
      switch (config_.mode) {
        case PairingMode::kRecent:
          ESLEV_RETURN_NOT_OK(MatchRecent(group));
          break;
        case PairingMode::kChronicle:
          ESLEV_RETURN_NOT_OK(MatchChronicle(group));
          break;
        default:
          ESLEV_RETURN_NOT_OK(MatchUnrestricted(group));
          break;
      }
      return Status::OK();
    }
    Entry trigger;
    trigger.tuples.push_back(tuple);
    trigger.first_seq = trigger.last_seq = seq;
    if (key_columns_[port] >= 0) trigger.key = KeyOf(port, tuple);
    switch (config_.mode) {
      case PairingMode::kRecent:
        return MatchRecent(trigger);
      case PairingMode::kChronicle:
        return MatchChronicle(trigger);
      default:
        return MatchUnrestricted(trigger);
    }
  }

  ESLEV_RETURN_NOT_OK(StoreArrival(port, tuple, seq));
  if (recent_purge_) PurgeRecent();
  return Status::OK();
}

size_t SeqOperator::open_star_length() const {
  size_t total = 0;
  for (const auto& dq : history_) {
    for (const auto& e : dq) {
      if (e.open) total += e.tuples.size();
    }
  }
  for (const auto& e : run_) {
    if (e.open) total += e.tuples.size();
  }
  return total;
}

void SeqOperator::AppendStats(OperatorStatList* out) const {
  out->push_back({"retained_history", static_cast<int64_t>(history_size())});
  out->push_back({"tuples_stored", static_cast<int64_t>(tuples_stored_)});
  out->push_back({"tuples_purged", static_cast<int64_t>(tuples_purged_)});
  out->push_back({"matches", static_cast<int64_t>(matches_emitted_)});
  out->push_back(
      {"open_star_length", static_cast<int64_t>(open_star_length())});
  out->push_back({"pairwise_evals", static_cast<int64_t>(pairwise_evals_)});
}

Status SeqOperator::StoreArrival(size_t pos, const Tuple& tuple,
                                 uint64_t seq) {
  ++tuples_stored_;
  auto& dq = history_[pos];
  if (config_.positions[pos].star) {
    if (!dq.empty() && dq.back().open) {
      Entry& group = dq.back();
      ESLEV_ASSIGN_OR_RETURN(
          bool same_group, PassesStarGate(pos, tuple, group.tuples.back()));
      if (same_group) {
        group.tuples.push_back(tuple);
        group.last_seq = seq;
        return Status::OK();
      }
      group.open = false;  // gap: close (Figure 1(b))
    }
    Entry fresh;
    fresh.tuples.push_back(tuple);
    fresh.first_seq = fresh.last_seq = seq;
    fresh.open = true;
    dq.push_back(std::move(fresh));
    return Status::OK();
  }
  Entry e;
  e.tuples.push_back(tuple);
  e.first_seq = e.last_seq = seq;
  if (key_columns_[pos] >= 0) e.key = KeyOf(pos, tuple);
  dq.push_back(std::move(e));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// UNRESTRICTED
// ---------------------------------------------------------------------------

Status SeqOperator::MatchUnrestricted(const Entry& trigger) {
  std::vector<const Entry*> chosen(n_, nullptr);
  chosen[n_ - 1] = &trigger;
  return EnumerateFrom(static_cast<int>(n_) - 2, &chosen);
}

Status SeqOperator::EnumerateFrom(int pos, std::vector<const Entry*>* chosen) {
  if (pos < 0) {
    return EmitMatch(*chosen);
  }
  if (config_.positions[pos].negated) {
    return EnumerateFrom(pos - 1, chosen);
  }
  const Entry& next = *NextChosen(*chosen, static_cast<size_t>(pos));
  const uint32_t key = (*chosen)[n_ - 1]->key;
  for (const Entry& e : history_[pos]) {
    if (OtherKey(static_cast<size_t>(pos), e, key)) continue;
    if (!Before(e.last_ts(), e.last_seq, next.first_ts(), next.first_seq)) {
      continue;
    }
    if (!WindowOk(pos, e, *chosen)) continue;
    ESLEV_ASSIGN_OR_RETURN(bool ok, PairwiseOkWithChosen(pos, e, *chosen));
    if (!ok) continue;
    (*chosen)[pos] = &e;
    if (!NegationOk(*chosen)) {  // forbidden event inside a bound interval
      (*chosen)[pos] = nullptr;
      continue;
    }
    ESLEV_RETURN_NOT_OK(EnumerateFrom(pos - 1, chosen));
    (*chosen)[pos] = nullptr;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RECENT
// ---------------------------------------------------------------------------

Status SeqOperator::MatchRecent(const Entry& trigger) {
  std::vector<const Entry*> chosen(n_, nullptr);
  chosen[n_ - 1] = &trigger;

  // Most-recent-first depth-first search. Plain greedy selection is not
  // enough: qualification can chain through an earlier position (the
  // paper's Example 6 writes C1.tagid=C2.tagid AND C1.tagid=C3.tagid,
  // so whether a C3 candidate "qualifies" only becomes checkable once
  // C1 is bound). Backtracking restores the paper's intent — the most
  // recent combination that satisfies all qualifying conditions.
  std::function<Result<bool>(int)> dfs = [&](int pos) -> Result<bool> {
    if (pos < 0) return true;
    if (config_.positions[pos].negated) return dfs(pos - 1);
    const Entry& next = *NextChosen(chosen, static_cast<size_t>(pos));
    const uint32_t key = chosen[n_ - 1]->key;
    auto& dq = history_[pos];
    for (auto it = dq.rbegin(); it != dq.rend(); ++it) {
      const Entry& e = *it;
      if (OtherKey(static_cast<size_t>(pos), e, key)) continue;
      if (!Before(e.last_ts(), e.last_seq, next.first_ts(),
                  next.first_seq)) {
        continue;
      }
      if (!WindowOk(pos, e, chosen)) continue;
      ESLEV_ASSIGN_OR_RETURN(bool ok, PairwiseOkWithChosen(pos, e, chosen));
      if (!ok) continue;
      chosen[pos] = &e;
      if (!NegationOk(chosen)) {
        chosen[pos] = nullptr;
        continue;
      }
      ESLEV_ASSIGN_OR_RETURN(bool done, dfs(pos - 1));
      if (done) return true;
      chosen[pos] = nullptr;
    }
    return false;
  };
  ESLEV_ASSIGN_OR_RETURN(bool found, dfs(static_cast<int>(n_) - 2));
  if (!found) return Status::OK();  // no event
  return EmitMatch(chosen);
}

// ---------------------------------------------------------------------------
// CHRONICLE
// ---------------------------------------------------------------------------

Status SeqOperator::MatchChronicle(const Entry& trigger) {
  std::vector<const Entry*> chosen(n_, nullptr);
  chosen[n_ - 1] = &trigger;

  // Depth-first search choosing the earliest qualifying entries, forward
  // from position 0.
  std::vector<size_t> pick(n_, 0);
  bool found = false;
  std::function<Result<bool>(size_t)> dfs =
      [&](size_t pos) -> Result<bool> {
    if (pos == n_ - 1) return true;
    if (config_.positions[pos].negated) return dfs(pos + 1);
    const auto& dq = history_[pos];
    for (size_t i = 0; i < dq.size(); ++i) {
      const Entry& e = dq[i];
      if (OtherKey(pos, e, trigger.key)) continue;
      // Order: after the previous chosen entry, before the trigger.
      if (const Entry* prev_entry = PrevChosen(chosen, static_cast<int>(pos))) {
        const Entry& prev = *prev_entry;
        if (!Before(prev.last_ts(), prev.last_seq, e.first_ts(),
                    e.first_seq)) {
          continue;
        }
      }
      if (!Before(e.last_ts(), e.last_seq, trigger.first_ts(),
                  trigger.first_seq)) {
        continue;  // deque is time-ordered; later ones fail too
      }
      if (!WindowOk(pos, e, chosen)) continue;
      ESLEV_ASSIGN_OR_RETURN(bool ok, PairwiseOkWithChosen(pos, e, chosen));
      if (!ok) continue;
      chosen[pos] = &e;
      if (!NegationOk(chosen)) {
        chosen[pos] = nullptr;
        continue;
      }
      pick[pos] = i;
      ESLEV_ASSIGN_OR_RETURN(bool done, dfs(pos + 1));
      if (done) return true;
      chosen[pos] = nullptr;
    }
    return false;
  };
  ESLEV_ASSIGN_OR_RETURN(found, dfs(0));
  if (!found) return Status::OK();

  const uint64_t emitted_before = matches_emitted_;
  ESLEV_RETURN_NOT_OK(EmitMatch(chosen));
  if (matches_emitted_ == emitted_before) {
    // Final checks rejected the earliest combination: per CHRONICLE, the
    // tuples are not consumed and no event is produced for this trigger.
    return Status::OK();
  }
  // Consume: each tuple participates in at most one event. Negated
  // positions contributed no tuple and are not consumed.
  for (size_t pos = 0; pos + 1 < n_; ++pos) {
    if (config_.positions[pos].negated) continue;
    tuples_purged_ += history_[pos][pick[pos]].tuples.size();
    history_[pos].erase(history_[pos].begin() + pick[pos]);
  }
  if (last_is_star_ && !history_[n_ - 1].empty()) {
    // A consumed trailing group cannot participate again.
    for (const Entry& e : history_[n_ - 1]) {
      tuples_purged_ += e.tuples.size();
    }
    history_[n_ - 1].clear();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CONSECUTIVE
// ---------------------------------------------------------------------------

Status SeqOperator::HandleConsecutive(size_t pos, const Tuple& tuple,
                                      uint64_t seq) {
  auto purge_run = [&]() {
    for (const Entry& e : run_) tuples_purged_ += e.tuples.size();
    run_.clear();
  };
  auto start_new_run = [&]() {
    purge_run();
    if (pos == 0) {
      Entry e;
      e.tuples.push_back(tuple);
      e.first_seq = e.last_seq = seq;
      e.open = config_.positions[0].star;
      ++tuples_stored_;
      run_.push_back(std::move(e));
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
  // Same-position arrival on an open star group: try to extend.
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
        std::vector<const Entry*> chosen(n_);
        for (size_t i = 0; i < n_; ++i) chosen[i] = &run_[i];
        ESLEV_RETURN_NOT_OK(EmitMatch(chosen));
      }
      return Status::OK();
    }
    start_new_run();
    return Status::OK();
  }

  // Expected next position.
  if (pos == cur + 1) {
    const Entry& prev = run_[cur];
    Entry cand;
    cand.tuples.push_back(tuple);
    cand.first_seq = cand.last_seq = seq;
    cand.open = config_.positions[pos].star;
    bool ok = Before(prev.last_ts(), prev.last_seq, cand.first_ts(),
                     cand.first_seq);
    if (ok) {
      std::vector<const Entry*> chosen(n_, nullptr);
      for (size_t i = 0; i < run_.size(); ++i) chosen[i] = &run_[i];
      if (!WindowOk(pos, cand, chosen)) ok = false;
      if (ok) {
        ESLEV_ASSIGN_OR_RETURN(ok, PairwiseOkWithChosen(pos, cand, chosen));
      }
    }
    if (!ok) {
      start_new_run();
      return Status::OK();
    }
    ++tuples_stored_;
    run_.push_back(std::move(cand));
    if (pos == n_ - 1) {
      std::vector<const Entry*> chosen(n_);
      for (size_t i = 0; i < n_; ++i) chosen[i] = &run_[i];
      ESLEV_RETURN_NOT_OK(EmitMatch(chosen));
      if (!config_.positions[pos].star) {
        purge_run();  // completed; trailing star keeps accumulating
      }
    }
    return Status::OK();
  }

  // Any other arrival interrupts the run.
  start_new_run();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Emission and purging
// ---------------------------------------------------------------------------

Status SeqOperator::EmitMatch(const std::vector<const Entry*>& chosen) {
  // Full window verification (prunes during search may have lacked the
  // anchor binding). Negated positions carry no entry.
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

void SeqOperator::EvictByWindow(Timestamp now) {
  if (!SeqWindowEvicts(config_)) return;
  const SeqWindow& w = *config_.window;
  for (auto& dq : history_) {
    while (!dq.empty() && !dq.front().open &&
           dq.front().last_ts() < now - w.length) {
      tuples_purged_ += dq.front().tuples.size();
      dq.pop_front();
    }
  }
}

void SeqOperator::PurgeRecent() {
  // Exact retained-set computation when qualification is purely
  // time-order: position n-1 triggers arrive in the future, so
  // retained(n-2) needs only its most recent entry; retained(i) needs,
  // for each retained entry r at i+1, the most recent entry ending
  // before r starts — plus the most recent entry overall (for future
  // arrivals at i+1). An open trailing star group triggers again with
  // every tuple it takes, so it bounds position n-2 like a stored entry.
  std::vector<std::vector<size_t>> keep(n_);
  // Bounds for position i come from retained entries at position i+1.
  std::vector<const Entry*> bounds;  // entries at pos+1 to stay matchable
  if (last_is_star_ && !history_[n_ - 1].empty() &&
      history_[n_ - 1].back().open) {
    bounds.push_back(&history_[n_ - 1].back());
  }
  for (int pos = static_cast<int>(n_) - 2; pos >= 0; --pos) {
    auto& dq = history_[pos];
    if (config_.positions[pos].negated) {
      // Forbidden-event history is interval evidence; only windows may
      // evict it, and it contributes no bounds to earlier positions.
      std::vector<size_t> all(dq.size());
      for (size_t i = 0; i < dq.size(); ++i) all[i] = i;
      keep[pos] = all;
      continue;
    }
    std::vector<size_t> retained;
    if (!dq.empty()) {
      // Most recent overall (serves all future next-position arrivals).
      // An open star group may still grow past those arrivals, or past
      // a bound below, so the entry before it stays too.
      retained.push_back(dq.size() - 1);
      if (dq.back().open && dq.size() > 1) retained.push_back(dq.size() - 2);
      for (const Entry* b : bounds) {
        // Most recent entry ending before b begins.
        for (size_t i = dq.size(); i-- > 0;) {
          if (Before(dq[i].last_ts(), dq[i].last_seq, b->first_ts(),
                     b->first_seq)) {
            retained.push_back(i);
            if (!dq[i].open) break;
          }
        }
      }
      // An open star group is still accumulating and must survive.
      for (size_t i = 0; i < dq.size(); ++i) {
        if (dq[i].open) retained.push_back(i);
      }
      std::sort(retained.begin(), retained.end());
      retained.erase(std::unique(retained.begin(), retained.end()),
                     retained.end());
    }
    keep[pos] = retained;
    bounds.clear();
    for (size_t idx : retained) bounds.push_back(&dq[idx]);
  }
  for (size_t pos = 0; pos + 1 < n_; ++pos) {
    auto& dq = history_[pos];
    std::deque<Entry> next;
    size_t dropped = 0;
    for (const Entry& e : dq) dropped += e.tuples.size();
    for (size_t idx : keep[pos]) next.push_back(std::move(dq[idx]));
    for (const Entry& e : next) dropped -= e.tuples.size();
    tuples_purged_ += dropped;
    dq = std::move(next);
  }
}

Status SeqOperator::ProcessHeartbeat(Timestamp now) {
  EvictByWindow(now);
  return EmitHeartbeat(now);
}

Status SeqOperator::SaveState(BinaryEncoder* enc) const {
  enc->PutU8(kSeqCheckpointTag);
  const auto put_entry = [enc](const Entry& e) {
    enc->PutU32(static_cast<uint32_t>(e.tuples.size()));
    for (const Tuple& t : e.tuples) enc->PutTuple(t);
    enc->PutU64(e.first_seq);
    enc->PutU64(e.last_seq);
    enc->PutBool(e.open);
  };
  enc->PutU64(arrival_seq_);
  enc->PutU64(matches_emitted_);
  enc->PutU64(tuples_stored_);
  enc->PutU64(tuples_purged_);
  enc->PutU32(static_cast<uint32_t>(history_.size()));
  for (const std::deque<Entry>& position : history_) {
    enc->PutU32(static_cast<uint32_t>(position.size()));
    for (const Entry& e : position) put_entry(e);
  }
  enc->PutU32(static_cast<uint32_t>(run_.size()));
  for (const Entry& e : run_) put_entry(e);
  return Status::OK();
}

Status SeqOperator::RestoreState(BinaryDecoder* dec) {
  ESLEV_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  ESLEV_RETURN_NOT_OK(CheckSeqCheckpointTag(tag, "SEQ"));
  const auto get_entry = [dec](Entry* e) -> Status {
    ESLEV_ASSIGN_OR_RETURN(uint32_t ntuples, dec->GetU32());
    if (ntuples == 0) {
      return Status::IoError("SEQ checkpoint: empty history entry");
    }
    ESLEV_RETURN_NOT_OK(
        dec->CheckCount(ntuples, BinaryDecoder::kMinTupleBytes));
    e->tuples.reserve(ntuples);
    for (uint32_t i = 0; i < ntuples; ++i) {
      ESLEV_ASSIGN_OR_RETURN(Tuple t, dec->GetTuple());
      e->tuples.push_back(std::move(t));
    }
    ESLEV_ASSIGN_OR_RETURN(e->first_seq, dec->GetU64());
    ESLEV_ASSIGN_OR_RETURN(e->last_seq, dec->GetU64());
    ESLEV_ASSIGN_OR_RETURN(e->open, dec->GetBool());
    return Status::OK();
  };
  ESLEV_ASSIGN_OR_RETURN(arrival_seq_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(matches_emitted_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(tuples_stored_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(tuples_purged_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(uint32_t npos, dec->GetU32());
  if (npos != n_) {
    return Status::IoError("SEQ checkpoint: position count mismatch (file " +
                           std::to_string(npos) + ", plan " +
                           std::to_string(n_) + ")");
  }
  for (size_t pos = 0; pos < n_; ++pos) {
    std::deque<Entry>& position = history_[pos];
    position.clear();
    ESLEV_ASSIGN_OR_RETURN(uint32_t nentries, dec->GetU32());
    for (uint32_t i = 0; i < nentries; ++i) {
      Entry e;
      ESLEV_RETURN_NOT_OK(get_entry(&e));
      if (key_columns_[pos] >= 0) {
        if (static_cast<size_t>(key_columns_[pos]) >= e.tuples.back().size()) {
          return Status::IoError(
              "SEQ checkpoint: history tuple lacks the key column of " +
              config_.positions[pos].alias);
        }
        e.key = KeyOf(pos, e.tuples.back());
      }
      position.push_back(std::move(e));
    }
  }
  run_.clear();
  ESLEV_ASSIGN_OR_RETURN(uint32_t nrun, dec->GetU32());
  if (nrun > n_) {
    return Status::IoError("SEQ checkpoint: run longer than position count");
  }
  for (uint32_t i = 0; i < nrun; ++i) {
    Entry e;
    ESLEV_RETURN_NOT_OK(get_entry(&e));
    run_.push_back(std::move(e));
  }
  return Status::OK();
}

}  // namespace eslev
