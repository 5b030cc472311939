#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>

#include "metrics/stats.h"

// ---------------------------------------------------------------------------
// Global allocation counter: every heap allocation in the process bumps
// one relaxed atomic, so allocs_per_req counts what the layers allocate
// while serving, on every thread.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}
}  // namespace

// malloc-backed new with free-backed delete is correct, but GCC models
// `new` as its builtin allocator and flags the inlined free() as a
// mismatch.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// One random cycle through 1 MB (Sattolo's shuffle).
std::vector<std::uint32_t> make_ring() {
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  std::vector<std::uint32_t> order(1u << 18);
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[xorshift(x) % i]);
  }
  std::vector<std::uint32_t> successor(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    successor[order[i]] = order[(i + 1) % order.size()];
  }
  return successor;
}

// The kernel's work; returns a value that depends on all of it.
std::uint64_t kernel_work(const std::vector<std::uint32_t>& ring) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t sink = 0;
  {
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
    for (std::uint32_t i = 0; i < 60000; ++i) {
      heap.emplace(xorshift(x) % (1u << 30), i);
      if (heap.size() > 4096) {
        sink += heap.top().second;
        heap.pop();
      }
    }
  }
  {
    std::unordered_map<std::uint64_t, std::unique_ptr<std::array<std::uint64_t, 6>>>
        map;
    for (int i = 0; i < 80000; ++i) {
      auto& slot = map[xorshift(x) & 0x3fff];
      if (slot != nullptr) {
        sink += (*slot)[0];
        slot.reset();
      } else {
        slot = std::make_unique<std::array<std::uint64_t, 6>>();
        (*slot)[0] = x;
      }
    }
  }
  std::uint32_t at = 0;
  for (int i = 0; i < 200000; ++i) at = ring[at];
  sink += at;
  {
    std::vector<std::uint64_t> keys(40000);
    for (auto& key : keys) key = xorshift(x);
    std::sort(keys.begin(), keys.end());
    sink += keys[keys.size() / 2];
  }
  return sink;
}

}  // namespace

double reference_kernel_s(int threads) {
  static const std::vector<std::uint32_t> ring = make_ring();
  // Keeps the work observable so the compiler cannot drop it.
  static std::atomic<std::uint64_t> keep{0};
  auto work = [] { keep.fetch_xor(kernel_work(ring), std::memory_order_relaxed); };
  const auto start = Clock::now();
  std::vector<std::thread> others;
  for (int t = 1; t < threads; ++t) others.emplace_back(work);
  work();
  for (std::thread& t : others) t.join();
  return seconds_since(start);
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[gfaas::metrics::nearest_rank(values.size(), q)];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

std::uint64_t completion_digest(
    const std::vector<gfaas::core::CompletionRecord>& records) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto add = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  };
  for (const auto& r : records) {
    add(static_cast<std::uint64_t>(r.id.value()));
    add(static_cast<std::uint64_t>(r.gpu.value()));
    add(static_cast<std::uint64_t>(r.arrival));
    add(static_cast<std::uint64_t>(r.dispatched));
    add(static_cast<std::uint64_t>(r.completed));
    add((r.cache_hit ? 1u : 0u) | (r.false_miss ? 2u : 0u) |
        (r.via_local_queue ? 4u : 0u) | (r.failed ? 8u : 0u) |
        (static_cast<std::uint64_t>(r.steal_hops) << 4));
  }
  return hash;
}

// --- spans ---

std::int32_t Tracer::Buffer::begin(const char* name, std::int32_t parent,
                                   std::int64_t request) {
  SpanRecord span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::Buffer::end(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
}

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Buffer& Tracer::new_buffer() {
  gfaas::common::MutexLock lock(&mu_);
  buffers_.push_back(std::unique_ptr<Buffer>(new Buffer(origin_)));
  return *buffers_.back();
}

double Tracer::total_s(const std::string& name) const {
  std::int64_t ns = 0;
  for_each(name, [&ns](const SpanRecord& span) { ns += span.end_ns - span.start_ns; });
  return static_cast<double>(ns) / 1e9;
}

std::map<std::string, double> Tracer::self_time_s() const {
  gfaas::common::MutexLock lock(&mu_);
  std::map<std::string, double> self;
  for (const auto& buffer : buffers_) {
    const std::vector<SpanRecord>& spans = buffer->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[spans[i].name] +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                              child_ns[i]) /
          1e9;
    }
  }
  return self;
}

std::size_t Tracer::span_count() const {
  gfaas::common::MutexLock lock(&mu_);
  std::size_t count = 0;
  for (const auto& buffer : buffers_) count += buffer->spans().size();
  return count;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread,index,name,start_ns,end_ns,parent,request\n");
  {
    gfaas::common::MutexLock lock(&mu_);
    for (std::size_t t = 0; t < buffers_.size(); ++t) {
      const std::vector<SpanRecord>& spans = buffers_[t]->spans();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        std::fprintf(out, "%zu,%zu,%s,%lld,%lld,%d,%lld\n", t, i, s.name,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.parent,
                     static_cast<long long>(s.request));
      }
    }
  }
  return std::fclose(out) == 0;
}

// --- latency metrics ---

void add_sim_latency(Rep& rep, std::vector<double> latencies_s) {
  const std::size_t n = latencies_s.size();
  rep.values["sim_latency_p50_s"] = percentile(latencies_s, 0.50);
  rep.values["sim_latency_p99_s"] = percentile(latencies_s, 0.99);
  rep.values["sim_latency_p99.9_s"] = percentile(latencies_s, kTailQuantile);
  rep.notes.push_back("sim latency samples " + std::to_string(n) + ", " +
                      std::to_string(static_cast<long long>(
                          static_cast<double>(n) * (1.0 - kTailQuantile))) +
                      " beyond p99.9");
}

void add_wall_latency(Rep& rep, std::vector<double> latencies_ms) {
  const std::size_t n = latencies_ms.size();
  rep.values["wall_latency_p50_ms"] = percentile(latencies_ms, 0.50);
  rep.values["wall_latency_p99_ms"] = percentile(latencies_ms, 0.99);
  rep.values["wall_latency_p99.9_ms"] = percentile(latencies_ms, kTailQuantile);
  rep.notes.push_back("wall latency samples " + std::to_string(n) + ", " +
                      std::to_string(static_cast<long long>(
                          static_cast<double>(n) * (1.0 - kTailQuantile))) +
                      " beyond p99.9");
}

}  // namespace perfbench
