// replay_locality: the paper's evaluation setting scaled up. One direct
// SchedulerEngine (LALB+O3, o3_limit 25) on 48 RTX 2080s (12 nodes x 4),
// 120 models, Poisson arrivals at 1600 requests/minute, replayed through
// SimCluster::replay with no Gateway and no threads. Algorithms 1-2 and
// the cache manager do most of the work; the serving front end, the
// ingress ring and the sharded tier are bypassed.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "cluster/experiment.h"
#include "common/log.h"
#include "harness.h"
#include "trace/workload.h"

namespace perfbench {
namespace {

using namespace gfaas;

// 12 trace-minutes at 1600 rpm: 19.2k requests, about 0.15 s of replay
// per repetition, so a run measures many short repetitions and each
// trace's best one falls in a quiet stretch of the machine.
constexpr std::int64_t kMinutes = 12;
constexpr std::int64_t kRpm = 1600;
constexpr std::size_t kModels = 120;
// Latency limit for goodput: the replay has no Gateway, so the limit is
// applied to the completion records (the serving workloads' SLO).
constexpr double kSloS = 30.0;

trace::Workload build_inputs(std::uint64_t seed) {
  trace::WorkloadConfig config;
  config.working_set_size = kModels;
  config.window_minutes = kMinutes;
  config.requests_per_minute = kRpm;
  config.arrivals = trace::ArrivalProcess::kPoisson;
  config.seed = seed;
  auto workload = trace::build_standard_workload(config);
  GFAAS_CHECK(workload.ok()) << workload.status().to_string();
  return std::move(*workload);
}

cluster::ClusterConfig cluster_config() {
  cluster::ClusterConfig config;
  config.nodes = 12;
  config.gpus_per_node = 4;
  config.policy = core::PolicyName::kLalbO3;
  config.o3_limit = 25;
  return config;
}

}  // namespace

Rep run_replay_locality(const WorkloadArgs& args) {
  Rep rep;
  rep.deterministic = true;
  Tracer::Buffer* spans =
      args.tracer != nullptr ? &args.tracer->new_buffer() : nullptr;

  // --- set-up: workload generation, then cluster assembly ---
  const auto t0 = Clock::now();
  Clock::time_point t1;
  trace::Workload workload;
  std::unique_ptr<cluster::SimCluster> cluster;
  {
    ScopedSpan setup(spans, "setup");
    {
      ScopedSpan build(spans, "trace.build", setup.index());
      workload = build_inputs(args.seed);
    }
    t1 = Clock::now();
    ScopedSpan assembly(spans, "cluster.assembly", setup.index());
    cluster = std::make_unique<cluster::SimCluster>(cluster_config(),
                                                    workload.registry);
    cluster->engine().track_duplicates_of(workload.top_model);
  }
  const auto t2 = Clock::now();
  rep.values["trace.build_s"] = seconds_between(t0, t1);
  rep.values["cluster.assembly_s"] = seconds_between(t1, t2);
  rep.values["setup_s"] = seconds_between(t0, t2);

  const std::size_t offered = workload.requests.size();
  rep.offered = offered;
  cluster::SchedulerEngine& engine = cluster->engine();

  // Per-request delivery stamps: the engine's completion hook runs once
  // per finished request, on this thread.
  std::vector<Clock::time_point> delivered(offered);
  std::vector<std::uint32_t> fired(offered, 0);
  engine.set_completion_hook([&](const core::CompletionRecord& record) {
    const auto id = static_cast<std::size_t>(record.id.value());
    delivered[id] = Clock::now();
    ++fired[id];
  });

  // --- measured phase: the whole replay, through the benchmark's submit
  // seam (a span around every engine.submit) ---
  const std::uint64_t allocs0 = allocations();
  const auto start = Clock::now();
  SimTime makespan = 0;
  {
    ScopedSpan replay(spans, "replay");
    const std::int32_t parent = replay.index();
    makespan = cluster->replay(
        workload.requests, [&engine, spans, parent](core::Request request) {
          ScopedSpan submit(spans, "engine.submit", parent,
                            request.id.value());
          engine.submit(std::move(request));
        });
  }
  const auto end = Clock::now();
  const std::uint64_t allocs = allocations() - allocs0;
  const double phase_s = seconds_between(start, end);
  rep.disturbance = phase_s;

  // --- results ---
  const auto& completions = engine.completions();
  rep.completed = completions.size();
  std::size_t resolved = 0, twice = 0;
  for (std::uint32_t f : fired) {
    resolved += f > 0 ? 1 : 0;
    twice += f > 1 ? 1 : 0;
  }
  rep.failed = engine.failures().size() + (offered - resolved);
  rep.digest = completion_digest(completions);
  rep.gate("every request resolves exactly once",
           resolved == offered && twice == 0 &&
               completions.size() + engine.failures().size() == offered,
           std::to_string(resolved) + "/" + std::to_string(offered) +
               " resolved, " + std::to_string(twice) + " twice");
  rep.gate("failed_share == 0", rep.failed == 0);

  std::vector<double> sim_latency, wall_latency;
  sim_latency.reserve(completions.size());
  wall_latency.reserve(completions.size());
  std::size_t misses = 0, local = 0, within_slo = 0;
  for (const auto& record : completions) {
    const double latency_s = sim_to_seconds(record.latency());
    sim_latency.push_back(latency_s);
    within_slo += latency_s <= kSloS ? 1 : 0;
    misses += record.cache_hit ? 0 : 1;
    local += record.via_local_queue ? 1 : 0;
    wall_latency.push_back(
        seconds_between(start,
                        delivered[static_cast<std::size_t>(record.id.value())]) *
        1e3);
  }
  add_sim_latency(rep, std::move(sim_latency));
  add_wall_latency(rep, std::move(wall_latency));

  const double n = static_cast<double>(offered);
  const double done = static_cast<double>(completions.size());
  rep.values["replay_rps"] = done / phase_s;
  rep.values["miss_ratio"] = static_cast<double>(misses) / done;
  rep.values["goodput"] = static_cast<double>(within_slo) / n;
  rep.values["gpu_seconds"] =
      static_cast<double>(cluster->gpu_count()) * sim_to_seconds(makespan);

  // --- per-layer ---
  rep.values["sim.events_per_req"] =
      static_cast<double>(cluster->simulator().events_executed()) / n;
  rep.values["core.policy_calls_per_req"] =
      static_cast<double>(engine.policy_invocations()) / n;
  rep.values["core.policy_s"] = static_cast<double>(engine.policy_wall_ns()) / 1e9;
  rep.values["core.policy_share"] = rep.values["core.policy_s"] / phase_s;
  rep.values["core.queue_len_mean"] =
      static_cast<double>(engine.policy_queue_len_sum()) /
      static_cast<double>(std::max<std::uint64_t>(engine.policy_invocations(), 1));
  rep.values["core.queue_len_max"] =
      static_cast<double>(engine.policy_queue_len_max());
  rep.values["core.false_miss_ratio"] =
      static_cast<double>(engine.false_misses()) / done;
  rep.values["cluster.local_queue_share"] = static_cast<double>(local) / done;
  const auto& cache_stats = cluster->cache().stats();
  rep.values["cache.hit_ratio"] =
      static_cast<double>(cache_stats.hits) /
      static_cast<double>(cache_stats.hits + cache_stats.misses);
  std::int64_t evictions = 0, loads = 0;
  double util = 0;
  for (std::size_t g = 0; g < cluster->gpu_count(); ++g) {
    evictions += cluster->gpu(g).counters().evictions;
    loads += cluster->gpu(g).counters().loads;
    util += cluster->gpu(g).sm_utilization(makespan);
  }
  rep.values["cache.evictions_per_kreq"] = static_cast<double>(evictions) / n * 1e3;
  rep.values["cache.loads_per_kreq"] = static_cast<double>(loads) / n * 1e3;
  rep.values["gpu.sm_utilization"] = util / static_cast<double>(cluster->gpu_count());
  rep.values["gpu.top_model_duplicates"] = engine.average_top_duplicates(makespan);
  rep.values["datastore.puts_per_req"] =
      static_cast<double>(cluster->datastore().revision()) / n;
  rep.values["allocs_per_req"] = static_cast<double>(allocs) / n;
  if (args.tracer != nullptr) {
    rep.values["cluster.submit_s"] = args.tracer->total_s("engine.submit");
    rep.values["sim.dispatch_self_s"] =
        phase_s - rep.values["cluster.submit_s"];
  }
  return rep;
}

std::vector<Gate> check_replay_locality(const WorkloadArgs& args,
                                        const Rep& measured) {
  // The library's own runner on the same inputs, without the benchmark's
  // submit seam or completion hook: equal digests prove the seam changes
  // no scheduling decision.
  const trace::Workload workload = build_inputs(args.seed);
  std::vector<core::CompletionRecord> records;
  cluster::run_experiment(cluster_config(), workload, &records);
  const std::uint64_t reference = completion_digest(records);
  char detail[96];
  std::snprintf(detail, sizeof(detail), "%016llx vs run_experiment %016llx",
                static_cast<unsigned long long>(measured.digest),
                static_cast<unsigned long long>(reference));
  return {{"digest equals cluster::run_experiment", reference == measured.digest,
           detail}};
}

}  // namespace perfbench
