// E19 tracing: spans around every call the benchmark makes into a layer.
//
// All spans are recorded on the producer thread: the sharded host runs
// its subscription callbacks inside DrainEmissions on the caller's
// thread, so even dispatcher fan-out happens there. Every call adds to
// per-boundary totals (calls, total time, self time); full span records
// are kept only for a 1-in-N sample of input events, plus every span
// outside the feed (setup, checkpoint). Records stay in memory until
// WriteSpans at the end of the run.

#ifndef ESLEV_E19_HARNESS_TRACE_H_
#define ESLEV_E19_HARNESS_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "e19/harness/stats.h"

namespace e19 {

/// \brief The layer boundaries the benchmark times.
enum class Boundary : int {
  kServePush = 0,   // QueryServer::PushTuple
  kCorePush,        // host Push (Engine push, or the sharded front end)
  kServeAdvance,    // QueryServer::AdvanceTime
  kCoreHeartbeat,   // host AdvanceTime
  kServePoll,       // QueryServer::Poll
  kCoreFlush,       // host Flush
  kCoreDrain,       // host DrainEmissions
  kServeDispatch,   // the callback QueryServer subscribed (fan-out)
  kSessionDrain,    // Session::Drain
  kConsume,         // the benchmark's consumer callback
  kServeRegister,   // Session::Register
  kPlanRegister,    // host RegisterQuery / ExecuteScript, per statement
  kCheckpoint,      // QueryServer::Checkpoint
  kSample,          // the benchmark sampling Metrics()
  kCount,
};

const char* BoundaryName(Boundary b);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Totals {
    uint64_t calls = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  /// \brief `sample_every` N: full spans for input events with
  /// index % N == 0.
  explicit Tracer(int64_t sample_every) : sample_every_(sample_every) {}

  /// \brief The input event the following calls work on (-1: none).
  void set_event(int64_t event) { event_ = event; }

  void Begin(Boundary b);
  void End();

  const Totals& totals(Boundary b) const {
    return totals_[static_cast<size_t>(b)];
  }
  /// \brief Per-call self times of `b`, kept only after KeepSelfTimes(b).
  void KeepSelfTimes(Boundary b) { keep_self_[static_cast<size_t>(b)] = true; }
  std::vector<int64_t>* self_times(Boundary b) {
    return &self_times_[static_cast<size_t>(b)];
  }
  /// \brief Wall time covered by spans with no parent.
  int64_t top_level_ns() const { return top_level_ns_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// \brief Append the sampled spans as JSON lines tagged with `phase`.
  /// Returns false when the file cannot be written.
  bool WriteSpans(const std::string& path, const std::string& phase,
                  bool append) const;

 private:
  struct Open {
    Boundary b;
    int64_t start_ns;
    int64_t child_ns;
    int record;  // index into spans_, or -1 when not sampled
  };

  bool Sampled() const {
    return event_ < 0 || (sample_every_ > 0 && event_ % sample_every_ == 0);
  }

  int64_t sample_every_;
  int64_t event_ = -1;
  std::vector<Open> stack_;
  std::array<Totals, static_cast<size_t>(Boundary::kCount)> totals_{};
  std::array<bool, static_cast<size_t>(Boundary::kCount)> keep_self_{};
  std::array<std::vector<int64_t>, static_cast<size_t>(Boundary::kCount)>
      self_times_;
  int64_t top_level_ns_ = 0;
  std::vector<Span> spans_;
};

/// \brief RAII span; a null tracer records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Boundary b) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(b);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace e19

#endif  // ESLEV_E19_HARNESS_TRACE_H_
