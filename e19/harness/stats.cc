#include "e19/harness/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace e19 {

using eslev::Timestamp;
using eslev::Tuple;
using eslev::TypeId;
using eslev::Value;

namespace {

// 1-based nearest rank ceil(pct/100 * n), computed in integer hundredths
// of a percent so 99 % of 1000 is exactly rank 990.
size_t Rank(size_t n, double pct) {
  const auto hundredths = static_cast<uint64_t>(std::llround(pct * 100.0));
  const uint64_t rank = (hundredths * n + 9999) / 10000;
  return static_cast<size_t>(std::clamp<uint64_t>(rank, 1, n));
}

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Fnv(uint64_t* h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void FnvU64(uint64_t* h, uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  Fnv(h, bytes, sizeof(bytes));
}

void FnvValue(uint64_t* h, const Value& v) {
  const TypeId type = v.type();
  const auto tag = static_cast<unsigned char>(type);
  Fnv(h, &tag, 1);
  switch (type) {
    case TypeId::kNull:
      break;
    case TypeId::kBool:
      FnvU64(h, v.bool_value() ? 1 : 0);
      break;
    case TypeId::kInt64:
      FnvU64(h, static_cast<uint64_t>(v.int_value()));
      break;
    case TypeId::kDouble: {
      uint64_t bits = 0;
      const double d = v.double_value();
      std::memcpy(&bits, &d, sizeof(bits));
      FnvU64(h, bits);
      break;
    }
    case TypeId::kString:
      FnvU64(h, v.string_value().size());
      Fnv(h, v.string_value().data(), v.string_value().size());
      break;
    case TypeId::kTimestamp:
      FnvU64(h, static_cast<uint64_t>(v.time_value()));
      break;
  }
}

void FnvTuple(uint64_t* h, const Tuple& t) {
  FnvU64(h, static_cast<uint64_t>(t.ts()));
  FnvU64(h, t.size());
  for (const Value& v : t.values()) FnvValue(h, v);
}

// splitmix64 finalizer: spreads FNV output so sums of hashes do not
// cancel structurally.
uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

int64_t NearestRank(std::vector<int64_t>* values, double pct) {
  if (values->empty()) return 0;
  const size_t rank = Rank(values->size(), pct);
  std::nth_element(values->begin(), values->begin() + (rank - 1),
                   values->end());
  return (*values)[rank - 1];
}

size_t SamplesBeyond(size_t n, double pct) {
  return n == 0 ? 0 : n - Rank(n, pct);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

uint64_t HashTuple(const Tuple& tuple) {
  uint64_t h = kFnvOffset;
  FnvTuple(&h, tuple);
  return Mix(h);
}

uint64_t FingerprintTrace(
    const std::vector<eslev::rfid::TimedReading>& events) {
  uint64_t h = kFnvOffset;
  FnvU64(&h, events.size());
  for (const auto& e : events) {
    FnvU64(&h, e.stream.size());
    Fnv(&h, e.stream.data(), e.stream.size());
    FnvTuple(&h, e.tuple);
  }
  return h;
}

std::string Hex64(uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

void Digest::Add(const Tuple& tuple) {
  ++count;
  sum += HashTuple(tuple);
}

OutputCheck CompareDigests(const Digests& expected, const Digests& observed) {
  OutputCheck out;
  auto report = [&](const std::string& query, const Digest* want,
                    const Digest* got) {
    const uint64_t want_n = want ? want->count : 0;
    const uint64_t got_n = got ? got->count : 0;
    if (got_n < want_n) {
      out.failed += want_n - got_n;
      out.problems.push_back(query + ": " + std::to_string(want_n - got_n) +
                             " missing emission(s)");
    } else if (got_n > want_n) {
      out.failed += got_n - want_n;
      out.problems.push_back(query + ": " + std::to_string(got_n - want_n) +
                             " extra emission(s)");
    } else if (want != nullptr && got != nullptr && want->sum != got->sum) {
      out.failed += 1;
      out.problems.push_back(query + ": corrupted emission(s), hash " +
                             Hex64(got->sum) + " != expected " +
                             Hex64(want->sum));
    }
  };
  for (const auto& [query, want] : expected) {
    auto it = observed.find(query);
    report(query, &want, it == observed.end() ? nullptr : &it->second);
  }
  for (const auto& [query, got] : observed) {
    if (!expected.count(query)) report(query, nullptr, &got);
  }
  return out;
}

void CompletionIndex::AddInput(Timestamp ts, uint32_t pos) {
  uint32_t& slot = by_ts_[ts];
  slot = std::max(slot, pos);
}

void CompletionIndex::AddExpiryTrigger(Timestamp t, uint32_t pos) {
  triggers_.emplace_back(t, pos);
}

std::optional<uint32_t> CompletionIndex::ByTimestamp(Timestamp ts) const {
  auto it = by_ts_.find(ts);
  if (it == by_ts_.end()) return std::nullopt;
  return it->second;
}

std::optional<uint32_t> CompletionIndex::FirstAfter(Timestamp deadline) const {
  auto it = std::upper_bound(
      triggers_.begin(), triggers_.end(), deadline,
      [](Timestamp d, const std::pair<Timestamp, uint32_t>& trigger) {
        return d < trigger.first;
      });
  if (it == triggers_.end()) return std::nullopt;
  return it->second;
}

}  // namespace e19
