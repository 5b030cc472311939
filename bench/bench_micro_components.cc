// Micro-benchmarks (google-benchmark) for the hot components of the
// scheduling path: event queue throughput, LRU policy ops, datastore
// put/get, memory allocator churn, global-queue model-index lookups, and
// one LALBO3 scheduling decision on a loaded cluster.
#include <benchmark/benchmark.h>

#include "cache/policy.h"
#include "cluster/experiment.h"
#include "common/rng.h"
#include "datastore/kv_store.h"
#include "gpu/memory_allocator.h"
#include "sim/simulator.h"
#include "trace/workload.h"

using namespace gfaas;

static void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int counter = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at((i * 7919) % 100000, [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000);

static void BM_LruPolicyAccess(benchmark::State& state) {
  cache::LruPolicy lru;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) lru.on_insert(ModelId(i));
  Rng rng(1);
  for (auto _ : state) {
    lru.on_access(ModelId(static_cast<std::int64_t>(rng.next_below(n))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruPolicyAccess)->Arg(8)->Arg(64);

static void BM_KvStorePutGet(benchmark::State& state) {
  datastore::KvStore store;
  Rng rng(2);
  for (auto _ : state) {
    const std::string key = "gpu/" + std::to_string(rng.next_below(32)) + "/status";
    store.put(key, "busy");
    benchmark::DoNotOptimize(store.get(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvStorePutGet);

static void BM_AllocatorPagedChurn(benchmark::State& state) {
  gpu::MemoryAllocator alloc(GiB(8));
  Rng rng(3);
  std::vector<gpu::PagedAllocation> live;
  for (auto _ : state) {
    if (live.size() < 4 || rng.uniform() < 0.5) {
      auto paged = alloc.allocate_paged(MB(1000 + 100 * rng.next_below(30)));
      if (paged.ok()) live.push_back(*paged);
    }
    if (!live.empty() && (live.size() >= 4 || rng.uniform() < 0.5)) {
      const std::size_t idx = static_cast<std::size_t>(rng.next_below(live.size()));
      benchmark::DoNotOptimize(alloc.free_paged(live[idx]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocatorPagedChurn);

static void BM_FullExperimentWS15(benchmark::State& state) {
  trace::WorkloadConfig wconfig;
  wconfig.working_set_size = 15;
  wconfig.window_minutes = 1;  // shortened window keeps iterations fast
  auto workload = trace::build_standard_workload(wconfig);
  for (auto _ : state) {
    cluster::ClusterConfig config;
    config.policy = core::PolicyName::kLalbO3;
    benchmark::DoNotOptimize(cluster::run_experiment(config, *workload));
  }
  state.SetItemsProcessed(state.iterations() * workload->requests.size());
}
BENCHMARK(BM_FullExperimentWS15)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
