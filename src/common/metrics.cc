#include "common/metrics.h"

#include <algorithm>

#include "common/string_util.h"

namespace eslev {

size_t Histogram::BucketIndex(uint64_t v) {
  if (v == 0) return 0;
  size_t bit = 1;  // index of the highest set bit, 1-based
  while (v >>= 1) ++bit;
  return std::min(bit, kBuckets - 1);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count();
  snap.sum = sum();
  snap.max = max();
  snap.bucket_counts.resize(kBuckets);
  for (size_t i = 0; i < kBuckets; ++i) {
    snap.bucket_counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

void MetricsSnapshot::Merge(const std::string& prefix,
                            const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) {
    counters[prefix + name] += v;
  }
  for (const auto& [name, v] : other.gauges) {
    gauges[prefix + name] += v;
  }
  for (const auto& [name, h] : other.histograms) {
    HistogramSnapshot& dst = histograms[prefix + name];
    dst.count += h.count;
    dst.sum += h.sum;
    dst.max = std::max(dst.max, h.max);
    if (dst.bucket_counts.size() < h.bucket_counts.size()) {
      dst.bucket_counts.resize(h.bucket_counts.size());
    }
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      dst.bucket_counts[i] += h.bucket_counts[i];
    }
  }
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(name, &out);
    out += ":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(name, &out);
    out += ":" + std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(name, &out);
    out += ":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) +
           ",\"max\":" + std::to_string(h.max) + ",\"buckets\":[";
    // Trailing all-zero buckets carry no information; trim them so the
    // JSON stays readable.
    size_t last = h.bucket_counts.size();
    while (last > 0 && h.bucket_counts[last - 1] == 0) --last;
    for (size_t i = 0; i < last; ++i) {
      if (i > 0) out += ",";
      out += std::to_string(h.bucket_counts[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters[name] = c->value();
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges[name] = g->value();
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->Snapshot();
  }
  return snap;
}

}  // namespace eslev
