// Shared machinery of the whole-stack benchmark: wall clocks, the
// process-wide allocation counter, percentiles, the completion digest,
// the in-memory span recorder, and the record one repetition of a
// workload produces.
//
// The benchmark measures every layer from outside: spans wrap the
// benchmark's own calls into a layer, and per-layer counts are read from
// the layers' existing public counters. Nothing under src/ knows it is
// being measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "core/request.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);
double seconds_since(Clock::time_point from);

// Heap allocations made by the whole process so far (the benchmark binary
// replaces the global operator new; see harness.cc).
std::uint64_t allocations();

// Peak resident set size of the process so far, in MB.
double peak_rss_mb();

// The machine's speed right now: the wall time of a fixed CPU workload
// (an event heap, hash-map churn with small allocations, a pointer chase
// and a sort; about 15 ms on a quiet machine) that lives in the benchmark
// and that no change to src/ touches, run on `threads` threads at once
// (the wall time until the last one finishes). On a shared host the same
// code runs up to about 1.6x slower for stretches of seconds to minutes;
// this kernel slows with it, so a repetition's wall time over the
// kernel's, taken right after it on as many threads as the repetition
// used, keeps the stack's cost and drops most of the machine's.
double reference_kernel_s(int threads);
// The single-threaded kernel's wall time the CPU-bound wall-clock metrics
// are scaled to: they read as if every repetition had run while the
// kernel took this long, about its time on a quiet machine.
constexpr double kReferenceS = 0.015;

// Nearest-rank percentile, q in [0, 1]; sorts `values` in place. 0 on
// empty input.
double percentile(std::vector<double>& values, double q);
double median(std::vector<double> values);

// FNV-1a over every field of the completion stream that a scheduling
// decision can change: bench_seed_digest's fields plus the failure flag.
std::uint64_t completion_digest(
    const std::vector<gfaas::core::CompletionRecord>& records);

// ---------------------------------------------------------------------------
// Span recorder. Spans are kept in memory, one buffer per recording
// thread, and written out when the benchmark ends. A span's parent is an
// index into the same thread's buffer (-1 for a root); spans of one
// request on different threads share the request id.
// ---------------------------------------------------------------------------
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;  // since the recorder was created
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int64_t request = -1;
};

class Tracer {
 public:
  class Buffer {
   public:
    // Opens a span; returns its index for end() and for children.
    std::int32_t begin(const char* name, std::int32_t parent,
                       std::int64_t request);
    void end(std::int32_t index);
    const std::vector<SpanRecord>& spans() const { return spans_; }

   private:
    friend class Tracer;
    explicit Buffer(Clock::time_point origin) : origin_(origin) {}
    Clock::time_point origin_;
    std::vector<SpanRecord> spans_;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // A buffer owned by the tracer for one recording thread; call once per
  // thread and keep the reference.
  Buffer& new_buffer();

  // Calls fn(const SpanRecord&) on every span named `name`.
  template <typename Fn>
  void for_each(const std::string& name, Fn fn) const {
    gfaas::common::MutexLock lock(&mu_);
    for (const auto& buffer : buffers_) {
      for (const SpanRecord& span : buffer->spans()) {
        if (name == span.name) fn(span);
      }
    }
  }
  // Sum of the durations of every span named `name`, in seconds.
  double total_s(const std::string& name) const;
  // Self time per span name: duration minus the part covered by the
  // span's children, in seconds.
  std::map<std::string, double> self_time_s() const;
  std::size_t span_count() const;

  // Writes every span as CSV (thread, index, name, start_ns, end_ns,
  // parent, request). Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable gfaas::common::Mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_ GUARDED_BY(mu_);
};

// Scoped span on a (nullable) buffer: with no buffer it records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer* buffer, const char* name, std::int32_t parent = -1,
             std::int64_t request = -1)
      : buffer_(buffer),
        index_(buffer != nullptr ? buffer->begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t index() const { return index_; }

 private:
  Tracer::Buffer* buffer_;
  std::int32_t index_;
};

// ---------------------------------------------------------------------------
// One repetition of a workload: set-up, then the measured phase.
// ---------------------------------------------------------------------------
struct Gate {
  std::string name;
  bool pass = false;
  std::string detail;
};

struct Rep {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  // failed + shed + expired + never resolved.
  std::uint64_t failed = 0;
  // Which of the run's traces this rep replayed.
  std::size_t trace = 0;
  // Completion-stream digest; only meaningful when `deterministic`.
  bool deterministic = false;
  std::uint64_t digest = 0;
  // The open-loop workload's schedule sets its pace, so its wall-clock
  // metrics are reported as measured; the replays run flat out, so theirs
  // are scaled to kReferenceS by the kernel run right after the rep.
  bool paced = false;
  // Threads the measured phase keeps busy; the reference kernel runs on
  // as many, and the rep's wall-clock metrics are scaled to its time on
  // a quiet machine at that thread count.
  int threads = 1;
  double reference_nominal_s = kReferenceS;
  // The reference kernel's time around this rep (the median of the runs
  // after the two reps before it, itself and the two after it).
  double reference_s = 0;
  // Position in the run's order of repetitions.
  std::size_t sequence = 0;
  // A rep whose measurement cannot be trusted (the serving workload's
  // open-loop generator fell behind its schedule). Invalid reps are
  // reported and left out of every median.
  bool valid = true;
  std::string invalid_reason;
  // The rep's headline wall-clock number, lower when the machine
  // disturbed it less: the replay wall time, or the serving workload's
  // p99 wall latency (its open loop fixes the phase length). Metrics with
  // no fold of their own come from the run's least disturbed valid rep.
  double disturbance = 0;
  std::string disturbance_name = "replay wall s";
  // Metric values by name (end-to-end and per-layer alike).
  std::map<std::string, double> values;
  std::vector<Gate> gates;
  // Human-readable facts worth printing once (sample counts, settings).
  std::vector<std::string> notes;

  void gate(std::string name, bool pass, std::string detail = "") {
    gates.push_back({std::move(name), pass, std::move(detail)});
  }
};

// The tail percentile the latency metrics report: the highest one with at
// least ten samples beyond it in every workload's repetition.
constexpr double kTailQuantile = 0.999;

// Fills sim_latency_{p50,p99,p99.9}_s from completed-request latencies
// (simulated seconds) and records the sample count as a note.
void add_sim_latency(Rep& rep, std::vector<double> latencies_s);
// Fills wall_latency_{p50,p99,p99.9}_ms from per-request wall latencies.
void add_wall_latency(Rep& rep, std::vector<double> latencies_ms);

struct WorkloadArgs {
  std::uint64_t seed = 1;
  // Per-layer spans are recorded into `tracer` when non-null.
  Tracer* tracer = nullptr;
};

// Each workload: builds its inputs from the seed, assembles the stack,
// runs the measured phase once and returns what it observed.
Rep run_replay_locality(const WorkloadArgs& args);
Rep run_replay_sharded(const WorkloadArgs& args);
Rep run_serve_ingress(const WorkloadArgs& args);
Rep run_elastic_chaos(const WorkloadArgs& args);

// Reference checks run once per process after the measured reps: they
// rebuild the same inputs and compare against an independent path.
std::vector<Gate> check_replay_locality(const WorkloadArgs& args,
                                        const Rep& measured);
std::vector<Gate> check_replay_sharded(const WorkloadArgs& args,
                                       const Rep& measured);

}  // namespace perfbench
