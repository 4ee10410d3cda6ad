// E19 arithmetic: percentiles, self time, hashing and the mapping from
// an emission back to the input that completed it. Everything here is a
// pure function or a small value type, so tests/arithmetic_test.cc can
// pin it without running an engine.

#ifndef ESLEV_E19_HARNESS_STATS_H_
#define ESLEV_E19_HARNESS_STATS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "rfid/workloads.h"
#include "types/tuple.h"

namespace e19 {

// ---- percentiles -----------------------------------------------------------

/// \brief Nearest-rank percentile of `values` (sorted in place): the
/// smallest sample with at least pct % of the samples at or below it.
/// `pct` is in (0, 100]. Returns 0 for an empty input.
int64_t NearestRank(std::vector<int64_t>* values, double pct);

/// \brief How many of `n` samples lie strictly beyond the nearest-rank
/// pct-th percentile (ties with the percentile itself not counted).
size_t SamplesBeyond(size_t n, double pct);

double Median(std::vector<double> values);

// ---- spans and self time ---------------------------------------------------

/// \brief One timed call: [start_ns, end_ns) on one thread. `parent` is
/// the index of the enclosing span in the same vector, or -1.
struct Span {
  int boundary = 0;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t event = -1;  // input event being processed, -1 outside the feed
};

/// \brief Self time of every span: its duration minus the part of it
/// its direct children cover. Children of one span run on the same
/// thread, so they never overlap; adjacent children are each counted
/// once and a grandchild is already inside its parent's duration.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// ---- hashing ---------------------------------------------------------------

/// \brief 64-bit hash of a tuple's timestamp and values, independent of
/// the engine's own hashing and string rendering (type tag + raw bytes).
uint64_t HashTuple(const eslev::Tuple& tuple);

/// \brief Order-dependent fingerprint of a whole trace: stream names,
/// timestamps and values of every event, in arrival order.
uint64_t FingerprintTrace(const std::vector<eslev::rfid::TimedReading>& events);

std::string Hex64(uint64_t v);

/// \brief Count plus an order-independent sum of tuple hashes: two
/// emission multisets match iff (with overwhelming probability) their
/// digests do.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(const eslev::Tuple& tuple);
};

/// \brief Per-query digests, keyed "tenant/query" (or the stream name).
using Digests = std::map<std::string, Digest>;

/// \brief Failed operations found by comparing `observed` emissions with
/// the `expected` reference. Each missing and each extra emission is one
/// failure; a query whose count matches but whose hash does not holds
/// at least one corrupted emission and counts one failure. A query
/// present on one side only counts all of its emissions.
struct OutputCheck {
  uint64_t failed = 0;
  std::vector<std::string> problems;
};
OutputCheck CompareDigests(const Digests& expected, const Digests& observed);

// ---- emission -> completing input -----------------------------------------

/// \brief Maps an emission to the schedule position of the input that
/// completed it, so the open loop can charge latency from that input's
/// due time.
///   * By timestamp: SEQ, dedup and filter outputs carry the timestamp of
///     the input that completed them. With duplicate copies of one read
///     arriving out of order, the last copy to arrive is the completing
///     one (the result cannot exist before it).
///   * By deadline: an EXCEPTION_SEQ timeout fires at the first input on
///     the operator's streams, or heartbeat, whose time is past the
///     deadline (strictly later, as the operator tests `now > deadline`).
class CompletionIndex {
 public:
  /// \brief The input at schedule position `pos` carries `ts` and can
  /// complete a result. Per timestamp, the latest position is kept.
  void AddInput(eslev::Timestamp ts, uint32_t pos);
  /// \brief An input or heartbeat at `pos` that can fire a timeout at
  /// event time `t`. Must be added in schedule order with non-decreasing
  /// `t`.
  void AddExpiryTrigger(eslev::Timestamp t, uint32_t pos);

  std::optional<uint32_t> ByTimestamp(eslev::Timestamp ts) const;
  std::optional<uint32_t> FirstAfter(eslev::Timestamp deadline) const;

 private:
  std::unordered_map<eslev::Timestamp, uint32_t> by_ts_;
  std::vector<std::pair<eslev::Timestamp, uint32_t>> triggers_;
};

}  // namespace e19

#endif  // ESLEV_E19_HARNESS_STATS_H_
