// replay_sharded: the sharded serving tier as it would run. 4 scheduler
// shards on a 4-thread worker pool over 256 GPUs, 256 models at 9000
// requests/minute. The shard router, the epoch barrier, the steal
// balancer and the pool carry the cost; the cache almost always hits, so
// a cache-manager change should leave this workload unchanged. The
// measured phase is the wall time of the whole ShardedCluster::replay(),
// not the critical-path projection the shard stats also report.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/log.h"
#include "harness.h"
#include "shard/experiment.h"
#include "trace/workload.h"

namespace perfbench {
namespace {

using namespace gfaas;

// 5 trace-minutes at 9000 rpm: 45k requests, about 0.35 s of pooled
// replay, so a run measures many short repetitions and each trace's best
// one falls in a quiet stretch of the machine.
constexpr std::int64_t kMinutes = 5;
constexpr std::int64_t kRpm = 9000;
constexpr std::size_t kModels = 256;
constexpr std::size_t kShards = 4;
constexpr int kThreads = 4;
constexpr double kSloS = 30.0;

trace::Workload build_inputs(std::uint64_t seed) {
  trace::WorkloadConfig config;
  config.working_set_size = kModels;
  config.window_minutes = kMinutes;
  config.requests_per_minute = kRpm;
  config.seed = seed;
  auto workload = trace::build_standard_workload(config);
  GFAAS_CHECK(workload.ok()) << workload.status().to_string();
  return std::move(*workload);
}

cluster::ClusterConfig cluster_config() {
  cluster::ClusterConfig config;
  config.nodes = 64;
  config.gpus_per_node = 4;
  return config;
}

shard::ShardedOptions sharded_options(int threads) {
  shard::ShardedOptions options;
  options.threads = threads;
  return options;
}

// Hot-model spreading and offline ring-weight calibration, exactly as
// shard::run_sharded_experiment prepares its cluster (the reference check
// compares against that runner, so any drift here fails the digest gate).
void calibrate(shard::ShardedCluster& sharded, const trace::Workload& workload) {
  const shard::ShardedOptions& options = sharded.options();
  const std::size_t shards = sharded.shard_count();
  std::unordered_map<std::int64_t, std::size_t> per_model;
  for (const core::Request& request : workload.requests) {
    ++per_model[request.model.value()];
  }
  const double total = static_cast<double>(workload.requests.size());
  for (const auto& [model, count] : per_model) {
    const double share = static_cast<double>(count) / total;
    const auto copies = static_cast<std::uint32_t>(std::ceil(
        share * static_cast<double>(shards) * options.hot_model_spread));
    if (copies > 1) sharded.router().set_replication(ModelId(model), copies);
  }
  const double fair = total / static_cast<double>(shards);
  for (int round = 0; round < options.calibration_rounds; ++round) {
    std::vector<double> load(shards, 0.0);
    for (const core::Request& request : workload.requests) {
      load[sharded.route(request.model,
                         static_cast<std::uint64_t>(request.id.value()))] += 1.0;
    }
    std::vector<double> weights = sharded.router().weights();
    for (std::size_t s = 0; s < shards; ++s) {
      weights[s] *= std::sqrt(fair / std::max(load[s], 1.0));
      weights[s] = std::clamp(weights[s], 0.2, 5.0);
    }
    sharded.router().set_weights(weights);
  }
  sharded.engine(sharded.route(workload.top_model))
      .track_duplicates_of(workload.top_model);
}

}  // namespace

Rep run_replay_sharded(const WorkloadArgs& args) {
  Rep rep;
  rep.deterministic = true;
  rep.threads = kThreads;
  // Four kernels at once share the caches and memory of a 4-core machine
  // and take about 1.45x as long as one.
  rep.reference_nominal_s = 0.022;
  Tracer::Buffer* spans =
      args.tracer != nullptr ? &args.tracer->new_buffer() : nullptr;

  // --- set-up: workload, ShardedCluster construction, calibration ---
  const auto t0 = Clock::now();
  Clock::time_point t1, t2;
  trace::Workload workload;
  std::unique_ptr<shard::ShardedCluster> sharded;
  {
    ScopedSpan setup(spans, "setup");
    {
      ScopedSpan build(spans, "trace.build", setup.index());
      workload = build_inputs(args.seed);
    }
    t1 = Clock::now();
    {
      ScopedSpan construct(spans, "ShardedCluster.construct", setup.index());
      sharded = std::make_unique<shard::ShardedCluster>(
          shard::partition_config(cluster_config(), kShards), workload.registry,
          sharded_options(kThreads));
    }
    t2 = Clock::now();
    ScopedSpan calibration(spans, "shard.calibrate", setup.index());
    calibrate(*sharded, workload);
  }
  const auto t3 = Clock::now();
  rep.values["trace.build_s"] = seconds_between(t0, t1);
  rep.values["cluster.assembly_s"] = seconds_between(t1, t2);
  rep.values["shard.calibration_s"] = seconds_between(t2, t3);
  rep.values["setup_s"] = seconds_between(t0, t3);

  const std::size_t offered = workload.requests.size();
  rep.offered = offered;
  std::vector<std::size_t> routed(kShards, 0);
  for (const core::Request& request : workload.requests) {
    ++routed[sharded->route(request.model,
                            static_cast<std::uint64_t>(request.id.value()))];
  }
  rep.values["shard.routed_share_max"] =
      static_cast<double>(*std::max_element(routed.begin(), routed.end())) /
      static_cast<double>(offered);

  // Completion hooks run on the pool's worker threads; each request's
  // slot is stamped by the first (and only) delivery.
  std::vector<Clock::time_point> delivered(offered);
  std::unique_ptr<std::atomic<std::uint32_t>[]> fired(
      new std::atomic<std::uint32_t>[offered]());
  for (std::size_t s = 0; s < kShards; ++s) {
    sharded->engine(s).set_completion_hook(
        [&delivered, &fired](const core::CompletionRecord& record) {
          const auto id = static_cast<std::size_t>(record.id.value());
          if (fired[id].fetch_add(1, std::memory_order_relaxed) == 0) {
            delivered[id] = Clock::now();
          }
        });
  }

  // --- measured phase: the whole pooled replay ---
  const std::uint64_t allocs0 = allocations();
  const auto start = Clock::now();
  shard::ShardedReplayStats stats;
  {
    ScopedSpan replay(spans, "ShardedCluster.replay");
    stats = sharded->replay(workload.requests);
  }
  const auto end = Clock::now();
  const std::uint64_t allocs = allocations() - allocs0;
  const double phase_s = seconds_between(start, end);
  rep.disturbance = phase_s;

  // --- results ---
  const std::vector<core::CompletionRecord> completions = sharded->completions();
  const std::vector<core::CompletionRecord> failures = sharded->failures();
  rep.completed = completions.size();
  std::size_t resolved = 0, twice = 0;
  for (std::size_t i = 0; i < offered; ++i) {
    const std::uint32_t f = fired[i].load(std::memory_order_relaxed);
    resolved += f > 0 ? 1 : 0;
    twice += f > 1 ? 1 : 0;
  }
  rep.failed = failures.size() + (offered - resolved);
  rep.digest = completion_digest(completions);
  rep.gate("every request resolves exactly once",
           resolved == offered && twice == 0 &&
               completions.size() + failures.size() == offered,
           std::to_string(resolved) + "/" + std::to_string(offered) +
               " resolved, " + std::to_string(twice) + " twice");
  rep.gate("failed_share == 0", rep.failed == 0);

  SimTime makespan = 0;
  std::vector<double> sim_latency, wall_latency;
  sim_latency.reserve(completions.size());
  wall_latency.reserve(completions.size());
  std::size_t misses = 0, local = 0, within_slo = 0;
  for (const auto& record : completions) {
    makespan = std::max(makespan, record.completed);
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
      static_cast<double>(sharded->total_gpu_count()) * sim_to_seconds(makespan);

  // --- per-layer: shard ---
  const double critical = static_cast<double>(stats.critical_path_ns) / 1e9;
  const double serial = static_cast<double>(stats.serial_ns) / 1e9;
  const double total_work = static_cast<double>(stats.total_work_ns) / 1e9;
  rep.values["shard.replay_wall_s"] = phase_s;
  rep.values["shard.critical_path_s"] = critical;
  rep.values["shard.serial_s"] = serial;
  rep.values["shard.total_work_s"] = total_work;
  rep.values["shard.handoff_s"] = phase_s - critical - serial;
  const double max_work = static_cast<double>(
      *std::max_element(stats.shard_work_ns.begin(), stats.shard_work_ns.end()));
  rep.values["shard.work_imbalance"] =
      max_work / (static_cast<double>(stats.total_work_ns) /
                  static_cast<double>(stats.shard_work_ns.size()));
  rep.values["shard.epochs"] = static_cast<double>(stats.epochs);
  rep.values["shard.steals"] = static_cast<double>(stats.steals);
  rep.values["shard.evacuations"] = static_cast<double>(stats.evacuations);

  // --- per-layer: the shard engines, summed ---
  std::uint64_t events = 0, invocations = 0, policy_ns = 0, queue_sum = 0;
  std::size_t queue_max = 0;
  std::int64_t false_misses = 0, hits = 0, cache_misses = 0, evictions = 0,
               loads = 0, puts = 0;
  double util = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    cluster::SimCluster& cell = sharded->shard(s);
    const cluster::SchedulerEngine& engine = cell.engine();
    events += cell.simulator().events_executed();
    invocations += engine.policy_invocations();
    policy_ns += engine.policy_wall_ns();
    queue_sum += engine.policy_queue_len_sum();
    queue_max = std::max(queue_max, engine.policy_queue_len_max());
    false_misses += engine.false_misses();
    hits += cell.cache().stats().hits;
    cache_misses += cell.cache().stats().misses;
    puts += cell.datastore().revision();
    for (std::size_t g = 0; g < cell.gpu_count(); ++g) {
      evictions += cell.gpu(g).counters().evictions;
      loads += cell.gpu(g).counters().loads;
      util += cell.gpu(g).sm_utilization(makespan);
    }
  }
  rep.values["sim.events_per_req"] = static_cast<double>(events) / n;
  rep.values["core.policy_calls_per_req"] = static_cast<double>(invocations) / n;
  rep.values["core.policy_s"] = static_cast<double>(policy_ns) / 1e9;
  // Shards run concurrently: the share is of the time the engines ran.
  rep.values["core.policy_share"] = rep.values["core.policy_s"] / total_work;
  rep.values["core.queue_len_mean"] =
      static_cast<double>(queue_sum) /
      static_cast<double>(std::max<std::uint64_t>(invocations, 1));
  rep.values["core.queue_len_max"] = static_cast<double>(queue_max);
  rep.values["core.false_miss_ratio"] = static_cast<double>(false_misses) / done;
  rep.values["cluster.local_queue_share"] = static_cast<double>(local) / done;
  rep.values["cache.hit_ratio"] =
      static_cast<double>(hits) / static_cast<double>(hits + cache_misses);
  rep.values["cache.evictions_per_kreq"] = static_cast<double>(evictions) / n * 1e3;
  rep.values["cache.loads_per_kreq"] = static_cast<double>(loads) / n * 1e3;
  rep.values["gpu.sm_utilization"] =
      util / static_cast<double>(sharded->total_gpu_count());
  rep.values["gpu.top_model_duplicates"] =
      sharded->engine(sharded->route(workload.top_model))
          .average_top_duplicates(makespan);
  rep.values["datastore.puts_per_req"] = static_cast<double>(puts) / n;
  rep.values["allocs_per_req"] = static_cast<double>(allocs) / n;
  return rep;
}

std::vector<Gate> check_replay_sharded(const WorkloadArgs& args,
                                       const Rep& measured) {
  // The same replay run inline (threads = 1) by the library's own sharded
  // runner: pooled and inline replays must make identical decisions.
  const trace::Workload workload = build_inputs(args.seed);
  std::vector<core::CompletionRecord> records;
  shard::run_sharded_experiment(cluster_config(), kShards, workload,
                                sharded_options(1), &records);
  const std::uint64_t inline_digest = completion_digest(records);
  char detail[96];
  std::snprintf(detail, sizeof(detail), "pooled %016llx vs inline %016llx",
                static_cast<unsigned long long>(measured.digest),
                static_cast<unsigned long long>(inline_digest));
  return {{"pooled digest equals inline (threads = 1)",
           inline_digest == measured.digest, detail}};
}

}  // namespace perfbench
