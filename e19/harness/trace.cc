#include "e19/harness/trace.h"

#include <cstdio>

namespace e19 {

namespace {
// Bounds the sampled-span memory of one tracer.
constexpr size_t kMaxSpans = 1 << 20;
}  // namespace

const char* BoundaryName(Boundary b) {
  switch (b) {
    case Boundary::kServePush: return "serve.push";
    case Boundary::kCorePush: return "core.push";
    case Boundary::kServeAdvance: return "serve.advance";
    case Boundary::kCoreHeartbeat: return "core.heartbeat";
    case Boundary::kServePoll: return "serve.poll";
    case Boundary::kCoreFlush: return "core.flush";
    case Boundary::kCoreDrain: return "core.drain";
    case Boundary::kServeDispatch: return "serve.dispatch";
    case Boundary::kSessionDrain: return "serve.session_drain";
    case Boundary::kConsume: return "bench.consume";
    case Boundary::kServeRegister: return "serve.register";
    case Boundary::kPlanRegister: return "plan.register";
    case Boundary::kCheckpoint: return "recovery.checkpoint";
    case Boundary::kSample: return "bench.sample";
    case Boundary::kCount: break;
  }
  return "?";
}

void Tracer::Begin(Boundary b) {
  int record = -1;
  if (Sampled() && spans_.size() < kMaxSpans) {
    Span s;
    s.boundary = static_cast<int>(b);
    s.parent = stack_.empty() ? -1 : stack_.back().record;
    s.event = event_;
    record = static_cast<int>(spans_.size());
    spans_.push_back(s);
  }
  const int64_t now = NowNs();
  if (record >= 0) spans_[static_cast<size_t>(record)].start_ns = now;
  stack_.push_back({b, now, 0, record});
}

void Tracer::End() {
  const int64_t now = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t duration = now - open.start_ns;
  const int64_t self = duration - open.child_ns;
  const auto i = static_cast<size_t>(open.b);
  Totals& t = totals_[i];
  ++t.calls;
  t.total_ns += duration;
  t.self_ns += self;
  if (keep_self_[i]) self_times_[i].push_back(self);
  if (open.record >= 0) spans_[static_cast<size_t>(open.record)].end_ns = now;
  if (stack_.empty()) {
    top_level_ns_ += duration;
  } else {
    stack_.back().child_ns += duration;
  }
}

bool Tracer::WriteSpans(const std::string& path, const std::string& phase,
                        bool append) const {
  std::FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"phase\":\"%s\",\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                 "\"event\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 phase.c_str(), i,
                 BoundaryName(static_cast<Boundary>(s.boundary)), s.parent,
                 static_cast<long long>(s.event),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace e19
