// E19 harness: one run of one workload. Prints a few human-readable
// lines and, last, one JSON object with the result (see e19/README.md).
//
//   e19 --workload <name> --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// makes the traced run that prints the per-layer metrics.

#include <malloc.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "e19/harness/host.h"
#include "e19/harness/stats.h"
#include "e19/harness/trace.h"
#include "e19/harness/workloads.h"

extern char** environ;

namespace e19 {
namespace {

using eslev::Status;

// ---- recorded trace fingerprints --------------------------------------------

// Fingerprints of the seeds the benchmark was tuned on. A change to the
// generators in src/rfid that alters these traces fails the run instead
// of silently moving what later changes are measured on.
struct Recorded {
  const char* workload;
  uint32_t seed;
  const char* fingerprint;
};
#include "e19/harness/recorded.inc"

const char* RecordedFingerprint(const std::string& workload, uint32_t seed) {
  for (const Recorded& r : kRecorded) {
    if (workload == r.workload && seed == r.seed) return r.fingerprint;
  }
  return nullptr;
}

// ---- process probes ----------------------------------------------------------

int64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

// Bytes malloc has handed out, over all arenas and mmapped chunks.
// Unlike page-granular RSS this does not depend on how fragmented the
// allocator was before the host existed.
int64_t HeapBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<int64_t>(mi.uordblks + mi.hblkhd);
}

// ---- placement ---------------------------------------------------------------

// On a shared host each vCPU is slowed, in stretches of a few seconds and
// independently of the others, by whatever the host runs beside it (up
// to 1.5x for this engine's cache-heavy code); left alone, the scheduler
// keeps the producer on one such CPU for a whole run. And it sometimes
// wakes the shard workers onto the producer's CPU, which serialises the
// sharded host and cuts its CPU per event by a third in some rounds and
// not in others. So every phase, once its host is built, probes all CPUs
// the process may use at once, pins the producer to the one that ran a
// fixed job fastest and each shard worker to one of the others, in order
// of speed.

// A fixed job, independent of the engine: string-keyed hash-map updates
// over a few hundred KB, the kind of work a busy core neighbour slows.
std::atomic<uint64_t> probe_sink{0};  // keeps the job from being optimised out
int64_t ProbeJobNs() {
  const int64_t c0 = ThreadCpuNs();
  std::unordered_map<std::string, uint64_t> m;
  uint64_t x = 88172645463325252ull;
  uint64_t sink = 0;
  for (int i = 0; i < 12000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    auto [it, inserted] = m.try_emplace("tag-" + std::to_string(x % 4096), i);
    if (!inserted) sink += std::exchange(it->second, i);
  }
  probe_sink.fetch_add(sink, std::memory_order_relaxed);
  return ThreadCpuNs() - c0;
}

/// The CPUs the process was started on.
const cpu_set_t& ProcessCpus() {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    sched_getaffinity(0, sizeof(s), &s);
    return s;
  }();
  return set;
}

/// Pin thread `tid` (0: the calling thread) to `set`.
void PinThread(pid_t tid, const cpu_set_t& set) {
  sched_setaffinity(tid, sizeof(set), &set);
}

void PinThreadToCpu(pid_t tid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  PinThread(tid, one);
}

/// Threads of this process other than the caller, oldest first. While a
/// host lives these are its shard workers: the harness starts no others.
std::vector<pid_t> OtherThreads() {
  const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10));
    if (tid > 0 && tid != self) tids.push_back(tid);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

/// The CPUs of `allowed`, fastest first at running ProbeJobNs right now
/// (best of three tries per CPU, all CPUs at once).
std::vector<int> CpusBySpeed(const cpu_set_t& allowed) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  std::vector<int64_t> best(cpus.size(), INT64_MAX);
  {
    std::vector<std::jthread> probes;  // joined when the block ends
    for (size_t i = 0; i < cpus.size(); ++i) {
      probes.emplace_back([&, i] {
        PinThreadToCpu(0, cpus[i]);
        for (int k = 0; k < 3; ++k) best[i] = std::min(best[i], ProbeJobNs());
      });
    }
  }
  std::vector<size_t> order(cpus.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return best[a] < best[b]; });
  std::vector<int> ranked;
  for (size_t i : order) ranked.push_back(cpus[i]);
  return ranked;
}

/// Pin the calling thread (the producer) to the fastest CPU of `allowed`
/// and let the shard workers run on all the others.
void PlaceThreads(const cpu_set_t& allowed) {
  const std::vector<int> cpus = CpusBySpeed(allowed);
  if (cpus.size() < 2) return;
  PinThreadToCpu(0, cpus[0]);
  cpu_set_t rest = allowed;
  CPU_CLR(cpus[0], &rest);
  for (pid_t worker : OtherThreads()) PinThread(worker, rest);
}

// Options a workload does not set must be the engine defaults, so no
// ESLEV_* override from the caller's environment may leak in.
void ClearEslevEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("ESLEV_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

// ---- running a schedule ---------------------------------------------------

/// Every call into the system under test, and the ones that failed.
struct Calls {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Check(const Status& st) {
    ++attempted;
    if (!st.ok()) {
      ++failed;
      if (errors.size() < 5) errors.push_back(st.ToString());
    }
  }
};

/// Open-loop state: evenly spaced due times, generator lateness, heap
/// peak and the generator backlog per quarter of the phase.
struct OpenLoop {
  int64_t t0_ns = 0;
  double period_ns = 0;
  std::vector<int64_t> late_ns;
  // Sample the heap every 251 inputs and read the backlog after the last
  // push. The cadence is odd, so samples land at every point of the poll
  // cycle (64 or 256 inputs), not only right after a poll emptied the
  // outboxes. The heap probe (mallinfo2) stalls the producer for about a
  // millisecond, so a pass that probes measures no latency.
  bool probe = false;
  int64_t heap_peak = 0;
  double backlog_sum[4] = {0, 0, 0, 0};
  double backlog_n[4] = {0, 0, 0, 0};
  // Metrics() sampled every `sample_every` inputs (traced run only).
  uint32_t sample_every = 0;
  std::vector<LayerCounts> samples;
};

void RunSchedule(const Workload& w, System* sys, Tracer* tracer, Calls* calls,
                 OpenLoop* open) {
  const size_t n = w.inputs.size();
  for (const Step& step : w.schedule) {
    switch (step.kind) {
      case Step::Kind::kPush: {
        if (tracer != nullptr) tracer->set_event(step.input);
        if (open != nullptr) {
          const int64_t due =
              open->t0_ns + static_cast<int64_t>(static_cast<double>(step.input) *
                                                 open->period_ns);
          int64_t now = NowNs();
          while (now < due) now = NowNs();
          const int64_t late = now - due;
          open->late_ns.push_back(late);
          const size_t quarter = std::min<size_t>(3, step.input * 4 / n);
          open->backlog_sum[quarter] += static_cast<double>(late) / open->period_ns;
          open->backlog_n[quarter] += 1;
          if (open->probe && step.input % 251 == 0) {
            open->heap_peak = std::max(open->heap_peak, HeapBytes());
          }
          if (open->sample_every != 0 && step.input % open->sample_every == 0) {
            ScopedSpan span(tracer, Boundary::kSample);
            auto snap = sys->Metrics();
            if (snap.ok()) open->samples.push_back(ReadLayerCounts(*snap));
          }
        }
        calls->Check(sys->Push(w.inputs[step.input]));
        break;
      }
      case Step::Kind::kHeartbeat:
        calls->Check(sys->Heartbeat(step.ts));
        break;
      case Step::Kind::kPoll:
        calls->Check(sys->Poll());
        break;
    }
  }
  if (tracer != nullptr) tracer->set_event(-1);
}

/// Outcome of one phase on one freshly built system.
struct Phase {
  double setup_s = 0;
  int64_t heap0 = 0;  // heap bytes just before the host was built
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  int64_t thread_cpu_ns = 0;
  int64_t top_level_ns = 0;  // traced: top-level span time inside wall_ns
  Calls calls;
  Digests digests;
  uint64_t unmapped = 0;
  LayerCounts end_counts;  // Metrics() after Finish
  std::vector<uint64_t> shard_counts;
  int64_t wal_bytes = 0;
  double checkpoint_ms = 0;
  int64_t checkpoint_bytes = 0;
  LayerCounts backlog;  // Metrics() right after the last open-loop push
};

struct PhaseOptions {
  Tracer* tracer = nullptr;
  OpenLoop* open = nullptr;
  std::vector<int64_t>* latency = nullptr;
  bool single_engine = false;
  bool checkpoint = false;
};

int64_t DirectoryBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

/// Build a fresh system (timed as set-up), run the whole schedule and
/// the final heartbeat/flush/drains, then read its state outside the
/// timed region.
eslev::Result<Phase> RunPhase(const Workload& w, const std::string& workdir,
                              int instance, const PhaseOptions& po) {
  Phase phase;
  Consumer consumer(w.queries, &w.completion);
  SystemOptions so;
  so.tracer = po.tracer;
  so.workdir = workdir;
  so.instance = instance;
  so.single_engine = po.single_engine;
  phase.heap0 = HeapBytes();
  if (po.open != nullptr) po.open->heap_peak = phase.heap0;
  PinThread(0, ProcessCpus());  // before the host starts its workers
  const int64_t setup_start = NowNs();
  ESLEV_ASSIGN_OR_RETURN(std::unique_ptr<System> sys,
                         BuildSystem(w, &consumer, so));
  phase.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  PlaceThreads(ProcessCpus());

  if (po.open != nullptr) {
    po.open->t0_ns = NowNs() + 1000000;
    if (po.latency != nullptr) {
      consumer.StartLatency(po.open->t0_ns, po.open->period_ns, po.latency);
    }
  }
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t thread0 = ThreadCpuNs();
  const int64_t top0 = po.tracer != nullptr ? po.tracer->top_level_ns() : 0;
  const int64_t t0 = NowNs();
  RunSchedule(w, sys.get(), po.tracer, &phase.calls, po.open);
  if (po.open != nullptr && po.open->probe) {
    po.open->heap_peak = std::max(po.open->heap_peak, HeapBytes());
    auto snap = sys->Metrics();
    if (snap.ok()) phase.backlog = ReadLayerCounts(*snap);
  }
  phase.calls.Check(sys->Finish(w.final_time));
  phase.wall_ns = NowNs() - t0;
  if (po.tracer != nullptr) phase.top_level_ns = po.tracer->top_level_ns() - top0;
  phase.thread_cpu_ns = ThreadCpuNs() - thread0;
  phase.cpu_ns = ProcessCpuNs() - cpu0;
  consumer.StopLatency();

  phase.digests = consumer.digests();
  phase.unmapped = consumer.unmapped();
  auto snap = sys->Metrics();
  phase.calls.Check(snap.status());
  if (snap.ok()) phase.end_counts = ReadLayerCounts(*snap);
  phase.shard_counts = sys->ShardCounts();
  if (!sys->WalPath().empty()) {
    std::error_code ec;
    phase.wal_bytes =
        static_cast<int64_t>(std::filesystem::file_size(sys->WalPath(), ec));
  }
  if (po.checkpoint) {
    const std::string dir = workdir + "/checkpoint";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    const int64_t c0 = NowNs();
    phase.calls.Check(sys->Checkpoint(dir));
    phase.checkpoint_ms = static_cast<double>(NowNs() - c0) / 1e6;
    phase.checkpoint_bytes = DirectoryBytes(dir);
    std::filesystem::remove_all(dir, ec);
  }
  return phase;
}

/// Failed operations of one phase: failed calls, missing/extra/corrupted
/// emissions, ingest late drops, outbox drops, and emissions the
/// benchmark could not map back to an input.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void Add(const std::string& label, const Workload& w, const Phase& p) {
    attempted += p.calls.attempted;
    for (const auto& [query, d] : w.expected) attempted += d.count;
    failed += p.calls.failed;
    for (const std::string& e : p.calls.errors) problems.push_back(label + ": " + e);
    const OutputCheck check = CompareDigests(w.expected, p.digests);
    failed += check.failed;
    for (const std::string& s : check.problems) problems.push_back(label + ": " + s);
    auto count = [&](int64_t n, const char* what) {
      if (n <= 0) return;
      failed += static_cast<uint64_t>(n);
      problems.push_back(label + ": " + std::to_string(n) + " " + what);
    };
    count(p.end_counts.ingest_late_dropped, "ingest late drop(s)");
    count(p.end_counts.outbox_dropped, "outbox drop(s)");
    count(static_cast<int64_t>(p.unmapped),
          "emission(s) not mapped to a completing input");
  }
};

// ---- JSON output ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, tally.attempted));
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The best value: the highest of a higher-is-better one, the lowest of
/// a lower-is-better one. On a shared host a repetition or pass either
/// runs at full speed or is slowed by a neighbour (the values are
/// bimodal); the best one is what the neighbour left alone, and it is
/// what a change to the engine moves. A cost the engine pays every time
/// still shows. The same holds for a pass's heap peak, which grows with
/// the bursts a stalled producer sends into the shard queues and
/// outboxes.
double Best(const std::vector<double>& values, bool higher_is_better) {
  if (values.empty()) return 0;
  return higher_is_better ? *std::max_element(values.begin(), values.end())
                          : *std::min_element(values.begin(), values.end());
}

// ---- the two kinds of run ---------------------------------------------------

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir = ".";
};

/// Run fn(0), fn(1), ...: at least `min_reps` times, then until
/// `budget_s` seconds have passed, at most `max_reps` times.
template <typename Fn>
void Repeat(double budget_s, int min_reps, int max_reps, Fn fn) {
  const int64_t start = NowNs();
  for (int rep = 0; rep < max_reps; ++rep) {
    if (rep >= min_reps &&
        static_cast<double>(NowNs() - start) / 1e9 >= budget_s) {
      break;
    }
    fn(rep);
  }
}

/// The end-to-end run: rounds of one open-loop pass at the workload's
/// fixed rate and closed-loop repetitions, each on a fresh host, until
/// `seconds` are spent. Timings and heap growth are the best value (see
/// Best); set-up time is a median.
int MeasuredRun(const Args& args, const Workload& w, Tally* tally,
                std::vector<Metric>* metrics) {
  const double n = static_cast<double>(w.inputs.size());
  std::vector<double> setup_s;

  // Set-up samples, which also warm the allocator and code paths.
  for (int i = 0; i < 10; ++i) {
    Consumer consumer(w.queries, &w.completion);
    SystemOptions so;
    so.workdir = args.workdir;
    so.instance = 100 + i;
    const int64_t t0 = NowNs();
    auto sys = BuildSystem(w, &consumer, so);
    if (!sys.ok()) {
      std::fprintf(stderr, "e19: set-up failed: %s\n",
                   sys.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  uint64_t expected_emissions = 0;
  for (const auto& [query, d] : w.expected) expected_emissions += d.count;
  std::vector<int64_t> latency;
  latency.reserve(expected_emissions + expected_emissions / 8 + 1024);
  std::vector<double> eps, cpu_per_mevent, p50, p99, late_p99, heap_mb;
  size_t min_samples = SIZE_MAX;
  int flagged = 0;
  double end_backlog = 0;
  LayerCounts end_counts;
  bool failed = false;
  int rounds = 0;
  int instance = 0;  // keeps WAL paths of successive hosts apart
  int reps_per_round = 1;
  Repeat(args.seconds, 5, 200, [&](int round) {
    if (failed) return;
    rounds = round + 1;
    const std::string label = "round " + std::to_string(round);
    // Every fourth round probes the heap and the backlog, the others
    // measure latency (see OpenLoop::probe).
    const bool probe = round % 4 == 0;
    OpenLoop open;
    open.period_ns = 1e9 / w.rate;
    open.late_ns.reserve(w.inputs.size());
    open.probe = probe;
    latency.clear();
    PhaseOptions po;
    po.open = &open;
    po.latency = probe ? nullptr : &latency;
    auto pass = RunPhase(w, args.workdir, instance++, po);
    if (!pass.ok()) {
      std::fprintf(stderr, "e19: %s failed: %s\n", label.c_str(),
                   pass.status().ToString().c_str());
      failed = true;
      return;
    }
    tally->Add(label + " open loop", w, *pass);
    setup_s.push_back(pass->setup_s);
    int64_t reps_wall_ns = 0;
    for (int r = 0; r < reps_per_round; ++r) {
      auto rep = RunPhase(w, args.workdir, instance++, PhaseOptions{});
      if (!rep.ok()) {
        std::fprintf(stderr, "e19: %s failed: %s\n", label.c_str(),
                     rep.status().ToString().c_str());
        failed = true;
        return;
      }
      tally->Add(label + " closed loop " + std::to_string(r), w, *rep);
      setup_s.push_back(rep->setup_s);
      eps.push_back(n / (static_cast<double>(rep->wall_ns) / 1e9));
      cpu_per_mevent.push_back(static_cast<double>(rep->cpu_ns) / 1e9 / (n / 1e6));
      reps_wall_ns += rep->wall_ns;
    }
    // About as much closed-loop time per round as open-loop time: the
    // best repetition needs as many tries as the best pass.
    reps_per_round = std::clamp(
        static_cast<int>(std::lround(static_cast<double>(pass->wall_ns) *
                                     reps_per_round / static_cast<double>(reps_wall_ns))),
        1, 8);
    if (probe) {
      heap_mb.push_back(static_cast<double>(open.heap_peak - pass->heap0) /
                        (1 << 20));
      end_counts = pass->backlog;
      return;
    }
    min_samples = std::min(min_samples, latency.size());
    p50.push_back(static_cast<double>(NearestRank(&latency, 50)) / 1e3);
    p99.push_back(static_cast<double>(NearestRank(&latency, 99)) / 1e3);
    late_p99.push_back(static_cast<double>(NearestRank(&open.late_ns, 99)) / 1e3);
    const double first_q = Ratio(open.backlog_sum[0], open.backlog_n[0]);
    const double last_q = Ratio(open.backlog_sum[3], open.backlog_n[3]);
    if (last_q > 2 * first_q + 1) ++flagged;
    end_backlog = last_q;
  });
  if (failed) return 1;

  auto list = [](const char* what, const std::vector<double>& v) {
    std::printf("%s:", what);
    for (double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  std::printf("%d rounds of one open-loop pass at %.0f events/s (%.2f s) and "
              "%zu closed-loop repetitions in all\n",
              rounds, w.rate, n / w.rate, eps.size());
  list("closed loop events/s per repetition", eps);
  list("closed loop CPU s per million events per repetition", cpu_per_mevent);
  list("open loop p50 us per latency pass", p50);
  list("open loop p99 us per latency pass", p99);
  list("open loop heap growth MB per probing pass", heap_mb);
  std::printf("latency: %zu passes, >= %zu samples per pass, %zu beyond p99 "
              "(need >= 10)\n",
              p99.size(), min_samples, SamplesBeyond(min_samples, 99));
  std::printf("open loop: generator late p99 %.1f us (median of passes), "
              "generator backlog %.1f events at the end of the last pass; "
              "at the end of the last probing pass: shard queues %lld, "
              "ingest buffered %lld, outboxes pending %lld\n",
              Median(late_p99), end_backlog,
              static_cast<long long>(end_counts.queue_depth_sum),
              static_cast<long long>(end_counts.ingest_depth +
                                     end_counts.ingest_pending),
              static_cast<long long>(end_counts.outbox_pending_sum));
  if (flagged > 0) {
    std::printf("FLAG: generator backlog grew across %d of %zu open-loop "
                "passes: the rate is above capacity there and latency "
                "measures run length\n",
                flagged, p99.size());
  }

  metrics->push_back({"events_per_s", Best(eps, true), "events/s"});
  metrics->push_back({"cpu_s_per_mevent", Best(cpu_per_mevent, false), "s"});
  metrics->push_back({"latency_p50_us", Best(p50, false), "us"});
  metrics->push_back({"latency_p99_us", Best(p99, false), "us"});
  metrics->push_back({"setup_s", Median(setup_s), "s"});
  metrics->push_back({"mem_peak_mb", Best(heap_mb, false), "MB"});
  return 0;
}

/// Which workloads each per-layer metric describes; elsewhere it prints 0.
bool Applies(const std::string& metric, const std::string& workload) {
  static const std::map<std::string, std::vector<std::string>> kScope = {
      {"core.push_self_ns", {"dedup_dense", "tenant_cep"}},
      {"core.push_p99_ns", {"dedup_dense", "tenant_cep"}},
      {"core.heartbeat_self_ns", {"tenant_cep", "sharded_fullpath"}},
      {"core.sharded.", {"sharded_fullpath"}},
      {"serve.", {"tenant_cep", "sharded_fullpath"}},
      {"exec.", {"dedup_dense", "sharded_fullpath"}},
      {"cep.", {"tenant_cep"}},
      {"ingest.", {"sharded_fullpath"}},
      {"recovery.", {"sharded_fullpath"}},
  };
  // The longest matching prefix decides.
  size_t best = 0;
  const std::vector<std::string>* scope = nullptr;
  for (const auto& [prefix, workloads] : kScope) {
    if (metric.rfind(prefix, 0) == 0 && prefix.size() > best) {
      best = prefix.size();
      scope = &workloads;
    }
  }
  if (scope == nullptr) return true;
  return std::find(scope->begin(), scope->end(), workload) != scope->end();
}

int TracedRun(const Args& args, const Workload& w, Tally* tally,
              std::vector<Metric>* metrics) {
  const double n = static_cast<double>(w.inputs.size());
  constexpr int64_t kSampleEvery = 64;
  const std::string span_file =
      args.workdir + "/spans-" + w.name + "-" + std::to_string(args.seed) +
      ".jsonl";
  std::error_code ec;
  std::filesystem::remove(span_file, ec);
  bool spans_ok = true;

  // Traced set-ups: registration and planning cost.
  Tracer setup_tracer(kSampleEvery);
  size_t pipelines = 0;
  for (int i = 0; i < 5; ++i) {
    Consumer consumer(w.queries, &w.completion);
    SystemOptions so;
    so.tracer = &setup_tracer;
    so.workdir = args.workdir;
    so.instance = 100 + i;
    auto sys = BuildSystem(w, &consumer, so);
    if (!sys.ok()) {
      std::fprintf(stderr, "e19: set-up failed: %s\n",
                   sys.status().ToString().c_str());
      return 1;
    }
    pipelines = (*sys)->Pipelines();
  }
  spans_ok &= setup_tracer.WriteSpans(span_file, "setup", true);

  // Traced open loop, sampling Metrics() at a fixed event cadence.
  OpenLoop open;
  open.period_ns = 1e9 / w.rate;
  open.late_ns.reserve(w.inputs.size());
  // About 200 samples per pass; odd, so they do not always land right
  // after a poll (every 64 or 256 inputs) and read empty outboxes.
  open.sample_every = static_cast<uint32_t>(w.inputs.size() / 200) | 1;
  Tracer open_tracer(kSampleEvery);
  PhaseOptions po;
  po.tracer = &open_tracer;
  po.open = &open;
  auto open_phase = RunPhase(w, args.workdir, 0, po);
  if (!open_phase.ok()) {
    std::fprintf(stderr, "e19: open loop failed: %s\n",
                 open_phase.status().ToString().c_str());
    return 1;
  }
  tally->Add("traced open-loop", w, *open_phase);
  spans_ok &= open_tracer.WriteSpans(span_file, "open", true);

  // Generator lateness from a plain pass: the traced pass's Metrics()
  // samples stall the producer (on the sharded host, a round trip
  // through every shard queue).
  OpenLoop plain_open;
  plain_open.period_ns = open.period_ns;
  plain_open.late_ns.reserve(w.inputs.size());
  PhaseOptions plain_po;
  plain_po.open = &plain_open;
  auto plain_phase = RunPhase(w, args.workdir, 1, plain_po);
  if (!plain_phase.ok()) {
    std::fprintf(stderr, "e19: open loop failed: %s\n",
                 plain_phase.status().ToString().c_str());
    return 1;
  }
  tally->Add("plain open-loop", w, *plain_phase);

  // Closed loop, untraced and traced repetitions interleaved.
  std::vector<double> eps_plain;
  std::vector<double> eps_traced;
  std::vector<double> worker_cpu;
  Tracer::Totals totals[static_cast<size_t>(Boundary::kCount)] = {};
  std::vector<int64_t> push_self;
  int64_t traced_wall = 0;
  int64_t traced_top = 0;
  int traced_reps = 0;
  Phase first_plain;
  bool failed = false;
  Repeat(args.seconds * 0.5, 3, 12, [&](int rep) {
    if (failed) return;
    PhaseOptions plain;
    plain.checkpoint = rep == 0 && w.serve_setup.wal;
    auto p = RunPhase(w, args.workdir, 2 * rep + 1, plain);
    Tracer tracer(kSampleEvery);
    tracer.KeepSelfTimes(Boundary::kCorePush);
    PhaseOptions traced;
    traced.tracer = &tracer;
    auto t = p.ok() ? RunPhase(w, args.workdir, 2 * rep + 2, traced) : p;
    if (!p.ok() || !t.ok()) {
      std::fprintf(stderr, "e19: closed loop failed: %s\n",
                   (p.ok() ? t : p).status().ToString().c_str());
      failed = true;
      return;
    }
    tally->Add("closed-loop rep " + std::to_string(rep), w, *p);
    tally->Add("traced closed-loop rep " + std::to_string(rep), w, *t);
    eps_plain.push_back(n / (static_cast<double>(p->wall_ns) / 1e9));
    eps_traced.push_back(n / (static_cast<double>(t->wall_ns) / 1e9));
    worker_cpu.push_back(static_cast<double>(p->cpu_ns - p->thread_cpu_ns) / n);
    if (rep == 0) {
      first_plain = *p;
      spans_ok &= tracer.WriteSpans(span_file, "closed", true);
    }
    for (size_t b = 0; b < static_cast<size_t>(Boundary::kCount); ++b) {
      const Tracer::Totals& bt = tracer.totals(static_cast<Boundary>(b));
      totals[b].calls += bt.calls;
      totals[b].total_ns += bt.total_ns;
      totals[b].self_ns += bt.self_ns;
    }
    const std::vector<int64_t>& self = *tracer.self_times(Boundary::kCorePush);
    push_self.insert(push_self.end(), self.begin(), self.end());
    traced_wall += t->wall_ns;
    traced_top += t->top_level_ns;
    ++traced_reps;
  });
  if (failed) return 1;

  // The same job over one Engine host (sharded workload only).
  double speedup = 0;
  if (w.serve && w.serve_setup.shards > 0) {
    std::vector<double> eps_single;
    for (int rep = 0; rep < 3; ++rep) {
      PhaseOptions single;
      single.single_engine = true;
      auto p = RunPhase(w, args.workdir, 50 + rep, single);
      if (!p.ok()) {
        std::fprintf(stderr, "e19: one-engine closed loop failed: %s\n",
                     p.status().ToString().c_str());
        return 1;
      }
      tally->Add("one-engine rep " + std::to_string(rep), w, *p);
      eps_single.push_back(n / (static_cast<double>(p->wall_ns) / 1e9));
    }
    speedup = Ratio(Median(eps_plain), Median(eps_single));
  }

  auto tot = [&](Boundary b) -> const Tracer::Totals& {
    return totals[static_cast<size_t>(b)];
  };
  auto per_call = [&](Boundary b, bool self) {
    const Tracer::Totals& t = tot(b);
    return Ratio(static_cast<double>(self ? t.self_ns : t.total_ns),
                 static_cast<double>(t.calls));
  };
  const double reps = std::max(1, traced_reps);
  const double dispatches = static_cast<double>(tot(Boundary::kServeDispatch).calls);
  const double deliveries = static_cast<double>(tot(Boundary::kConsume).calls);

  // Peaks over the open loop's Metrics() samples.
  LayerCounts peak;
  for (const LayerCounts& s : open.samples) {
    peak.window_buffer = std::max(peak.window_buffer, s.window_buffer);
    peak.seq_retained = std::max(peak.seq_retained, s.seq_retained);
    peak.queue_depth_max = std::max(peak.queue_depth_max, s.queue_depth_max);
    peak.outbox_pending_max =
        std::max(peak.outbox_pending_max, s.outbox_pending_max);
    peak.ingest_depth =
        std::max(peak.ingest_depth, s.ingest_depth + s.ingest_pending);
  }
  const LayerCounts& end = open_phase->end_counts;
  const double offered = static_cast<double>(
      end.ingest_released + end.ingest_late_dropped + end.ingest_depth);
  double skew = 0;
  if (!first_plain.shard_counts.empty()) {
    double max_count = 0;
    double sum = 0;
    for (uint64_t c : first_plain.shard_counts) {
      max_count = std::max(max_count, static_cast<double>(c));
      sum += static_cast<double>(c);
    }
    skew = Ratio(max_count, sum / static_cast<double>(first_plain.shard_counts.size()));
  }
  std::vector<int64_t> late = plain_open.late_ns;
  const bool sharded = w.serve && w.serve_setup.shards > 0;
  const double wall = static_cast<double>(traced_wall);

  std::vector<Metric> all = {
      {"core.push_self_ns", per_call(Boundary::kCorePush, true), "ns"},
      {"core.push_p99_ns", static_cast<double>(NearestRank(&push_self, 99)), "ns"},
      {"core.heartbeat_self_ns", per_call(Boundary::kCoreHeartbeat, true), "ns"},
      {"core.sharded.front_ns", sharded ? per_call(Boundary::kCorePush, true) : 0, "ns"},
      {"core.sharded.flush_ns", per_call(Boundary::kCoreFlush, false), "ns"},
      {"core.sharded.drain_self_ns",
       Ratio(static_cast<double>(tot(Boundary::kCoreDrain).self_ns), dispatches), "ns"},
      {"core.sharded.worker_cpu_ns", Median(worker_cpu), "ns"},
      {"core.sharded.queue_depth_peak", static_cast<double>(peak.queue_depth_max), "count"},
      {"core.sharded.shard_skew", skew, "ratio"},
      {"core.sharded.speedup_vs_single", speedup, "ratio"},
      {"serve.push_self_ns", per_call(Boundary::kServePush, true), "ns"},
      {"serve.dispatch_ns", per_call(Boundary::kServeDispatch, false), "ns"},
      {"serve.session_drain_self_ns",
       Ratio(static_cast<double>(tot(Boundary::kSessionDrain).self_ns), deliveries), "ns"},
      {"serve.fanout", Ratio(deliveries, dispatches), "ratio"},
      {"serve.deliveries", deliveries / reps, "count"},
      {"serve.pipeline_emissions", dispatches / reps, "count"},
      {"serve.pipelines", static_cast<double>(pipelines), "count"},
      {"serve.register_self_us",
       per_call(Boundary::kServeRegister, true) / 1e3, "us"},
      {"serve.outbox_peak", static_cast<double>(peak.outbox_pending_max), "count"},
      {"plan.register_us",
       Ratio(static_cast<double>(setup_tracer.totals(Boundary::kPlanRegister).total_ns),
             static_cast<double>(setup_tracer.totals(Boundary::kPlanRegister).calls)) / 1e3,
       "us"},
      {"exec.notexists.in", static_cast<double>(end.notexists_in), "count"},
      {"exec.notexists.keep_ratio",
       Ratio(static_cast<double>(end.notexists_out), static_cast<double>(end.notexists_in)),
       "ratio"},
      {"exec.notexists.window_peak", static_cast<double>(peak.window_buffer), "count"},
      {"cep.seq.in", static_cast<double>(end.seq_in), "count"},
      {"cep.seq.matches", static_cast<double>(end.seq_matches), "count"},
      {"cep.seq.retained_peak", static_cast<double>(peak.seq_retained), "count"},
      {"cep.seq.purged", static_cast<double>(end.seq_purged), "count"},
      {"cep.exseq.alerts", static_cast<double>(end.exseq_alerts), "count"},
      {"ingest.offered", offered, "count"},
      {"ingest.release_ratio", Ratio(static_cast<double>(end.ingest_emitted), offered),
       "ratio"},
      {"ingest.dups_suppressed", static_cast<double>(end.ingest_dups), "count"},
      {"ingest.spurious_filtered", static_cast<double>(end.ingest_spurious), "count"},
      {"ingest.buffered_peak", static_cast<double>(peak.ingest_depth), "count"},
      {"ingest.late_dropped", static_cast<double>(end.ingest_late_dropped), "count"},
      {"recovery.wal_bytes_per_event",
       Ratio(static_cast<double>(first_plain.wal_bytes), n), "B/event"},
      {"recovery.checkpoint_ms", first_plain.checkpoint_ms, "ms"},
      {"recovery.checkpoint_bytes", static_cast<double>(first_plain.checkpoint_bytes), "B"},
      {"gen.late_p99_us", static_cast<double>(NearestRank(&late, 99)) / 1e3, "us"},
      {"trace.overhead_pct",
       100 * Ratio(Median(eps_plain) - Median(eps_traced), Median(eps_plain)), "%"},
      {"trace.unaccounted_pct",
       100 * Ratio(wall - static_cast<double>(traced_top), wall), "%"},
  };

  // A Metrics() group the workload relies on that no key matched: the
  // key names changed, so its counts print as missing, not as zeros.
  for (const std::string& group : w.layer_groups) {
    if (!end.found.count(group)) {
      std::printf("MISSING: no Metrics() key for %s; its per-layer counts "
                  "below are missing, not zero\n",
                  group.c_str());
    }
  }
  std::printf("traced run: %d traced closed-loop reps, events/s %.0f traced vs "
              "%.0f untraced\n",
              traced_reps, Median(eps_traced), Median(eps_plain));
  if (w.serve) {
    std::printf("traced run: %.0f deliveries from %.0f pipeline emissions "
                "per rep\n",
                deliveries / reps, dispatches / reps);
  }
  std::printf("traced run: spans written to %s%s\n", span_file.c_str(),
              spans_ok ? "" : " (FAILED)");
  for (Metric& m : all) {
    if (!Applies(m.name, w.name)) m.value = 0;
    std::printf("  %-34s %14s %s\n", m.name.c_str(), FormatNumber(m.value).c_str(),
                m.unit.c_str());
  }
  *metrics = std::move(all);
  return 0;
}

int Main(int argc, char** argv) {
  ClearEslevEnvironment();
  ProcessCpus();  // before any pin
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<uint32_t>(std::stoul(value));
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      std::fprintf(stderr, "e19: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  auto made = MakeWorkload(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "e19: %s\n", made.status().ToString().c_str());
    return 2;
  }
  const Workload& w = *made;
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);

  Tally tally;
  const std::string fingerprint = Hex64(w.fingerprint);
  const char* recorded = RecordedFingerprint(w.name, args.seed);
  std::printf("e19 %s seed %u: %zu inputs, trace fingerprint %s (%s)\n",
              w.name.c_str(), args.seed, w.inputs.size(), fingerprint.c_str(),
              recorded == nullptr ? "seed not recorded"
              : fingerprint == recorded ? "matches recorded"
                                        : "DIFFERS from recorded");
  std::printf("e19 host: nproc %u, build %s, compiler %s\n",
              std::thread::hardware_concurrency(), E19_BUILD_TYPE, E19_COMPILER);
  bool correct = true;
  if (recorded != nullptr && fingerprint != recorded) {
    tally.problems.push_back("trace fingerprint " + fingerprint +
                             " differs from recorded " + recorded);
    correct = false;
  }
  for (const std::string& p : w.reference_problems) {
    tally.problems.push_back("reference: " + p);
    correct = false;
  }

  std::vector<Metric> metrics;
  const int rc = args.trace != 0 ? TracedRun(args, w, &tally, &metrics)
                                 : MeasuredRun(args, w, &tally, &metrics);
  if (rc != 0) return rc;
  for (const std::string& p : tally.problems) std::printf("FAIL %s\n", p.c_str());
  std::printf("output check: %llu failed of %llu attempted\n",
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  PrintResult(correct && tally.failed == 0, tally, metrics);
  return 0;
}

}  // namespace
}  // namespace e19

int main(int argc, char** argv) { return e19::Main(argc, argv); }
