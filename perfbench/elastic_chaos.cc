// elastic_chaos: writes next to reads. A SimCluster serves a bursty
// diurnal trace through a Gateway (SLO 30 s, 2 retries, hedging after 2 s
// of waiting) while a
// reactive Autoscaler grows and drains the fleet and a ChaosInjector kills
// whole PCIe domains and gray-degrades others 8x: the shape of
// bench_chaos at three times its traffic and fleet. Domains degrade at
// half bench_chaos's rate, so the requests that execute on a degraded GPU
// (about 0.5%, each near 8x its service time) stay below p99 and p99
// measures queueing; at the full rate they straddle p99 and the metric
// jumps between about 3 s and 10 s from trace to trace. It loads the engine's
// mutating verbs (add/fence/remove/kill_gpu, cancel_request,
// hedge_dispatch) and the Gateway's shed, retry and hedge paths, which the
// other workloads only read past; it is the only workload that measures
// autoscale/ and chaos/. Deterministic and single-threaded.
//
// The Gateway's SLO is its 30 s default: at 10 s it denies the retry of a
// request whose GPU died in a burst, and that request fails, on some seeds
// and not others. Goodput keeps the tighter target: completions within
// kGoodputLimitS of arrival.
#include <algorithm>
#include <memory>
#include <utility>

#include "autoscale/autoscaler.h"
#include "chaos/fault_injector.h"
#include "cluster/experiment.h"
#include "common/log.h"
#include "gateway/gateway.h"
#include "harness.h"
#include "trace/workload.h"

namespace perfbench {
namespace {

using namespace gfaas;

// 90 trace-minutes (two diurnal periods) between 180 and 720 rpm with
// 10% of minutes surged 2x: about 44k requests, 0.3 s of replay per
// repetition.
constexpr std::int64_t kMinutes = 90;
constexpr std::int64_t kPeriod = 45;
constexpr std::int64_t kTroughRpm = 180;
constexpr std::int64_t kPeakRpm = 720;
constexpr std::size_t kModels = 16;
constexpr int kGpusPerNode = 2;  // one failure domain
constexpr std::size_t kMinGpus = 36;
constexpr std::size_t kMaxGpus = 72;
constexpr double kGoodputLimitS = 10.0;

trace::Workload build_inputs(std::uint64_t seed) {
  trace::WorkloadConfig config;
  config.working_set_size = kModels;
  config.seed = seed;
  trace::DiurnalConfig diurnal;
  diurnal.window_minutes = kMinutes;
  diurnal.period_minutes = kPeriod;
  diurnal.trough_rpm = kTroughRpm;
  diurnal.peak_rpm = kPeakRpm;
  diurnal.burst_probability = 0.1;
  diurnal.burst_multiplier = 2.0;
  diurnal.seed = seed;
  auto workload = trace::build_diurnal_workload(config, diurnal);
  GFAAS_CHECK(workload.ok()) << workload.status().to_string();
  return std::move(*workload);
}

// The serving stack under chaos; members in construction order.
struct Stack {
  explicit Stack(const trace::Workload& workload, std::uint64_t seed)
      : cluster(cluster_config(), workload.registry),
        gateway(&cluster, gateway_config()),
        scaler(&cluster, std::make_unique<autoscale::ReactivePolicy>(),
               autoscaler_config()),
        injector(&cluster, chaos::make_fault_schedule(fault_config(seed))) {}

  static cluster::ClusterConfig cluster_config() {
    cluster::ClusterConfig config;
    config.nodes = static_cast<int>(kMinGpus) / kGpusPerNode;
    config.gpus_per_node = kGpusPerNode;
    config.shared_pcie_per_node = true;  // a domain dies as one unit
    return config;
  }
  static gateway::GatewayConfig gateway_config() {
    gateway::GatewayConfig config;
    config.max_in_flight = 768;
    config.default_slo = sec(30);
    config.max_retries = 2;
    config.hedge_budget_fraction = 2.0 / 30.0;
    return config;
  }
  static autoscale::AutoscalerConfig autoscaler_config() {
    autoscale::AutoscalerConfig config;
    config.evaluation_interval = sec(5);
    config.cold_start = sec(15);
    config.min_gpus = kMinGpus;
    config.max_gpus = kMaxGpus;
    return config;
  }
  static chaos::FaultScheduleConfig fault_config(std::uint64_t seed) {
    const double domains = static_cast<double>(kMinGpus / kGpusPerNode);
    chaos::FaultScheduleConfig config;
    config.seed = seed;
    config.horizon = minutes(kMinutes);
    config.domain_kills_per_hour = 0.10 * domains;
    config.degrades_per_hour = 0.4 * domains;
    config.degrade_factor = 8.0;
    config.max_degrade = minutes(8);
    return config;
  }

  cluster::SimCluster cluster;
  gateway::Gateway gateway;
  autoscale::Autoscaler scaler;
  chaos::ChaosInjector injector;
};

// What one request's result callback observed.
struct Outcome {
  Clock::time_point delivered;
  std::uint32_t fired = 0;
  gateway::Disposition disposition = gateway::Disposition::kCompleted;
  bool cache_hit = false;
  SimTime latency = 0;
};

}  // namespace

Rep run_elastic_chaos(const WorkloadArgs& args) {
  Rep rep;
  rep.deterministic = true;
  Tracer::Buffer* spans =
      args.tracer != nullptr ? &args.tracer->new_buffer() : nullptr;

  // --- set-up: workload, then the serving stack ---
  const auto t0 = Clock::now();
  Clock::time_point t1;
  trace::Workload workload;
  std::unique_ptr<Stack> stack;
  {
    ScopedSpan setup(spans, "setup");
    {
      ScopedSpan build(spans, "trace.build", setup.index());
      workload = build_inputs(args.seed);
    }
    t1 = Clock::now();
    ScopedSpan assembly(spans, "cluster.assembly", setup.index());
    stack = std::make_unique<Stack>(workload, args.seed);
    stack->cluster.engine().track_duplicates_of(workload.top_model);
  }
  const auto t2 = Clock::now();
  rep.values["trace.build_s"] = seconds_between(t0, t1);
  rep.values["cluster.assembly_s"] = seconds_between(t1, t2);
  rep.values["setup_s"] = seconds_between(t0, t2);

  const std::vector<core::Request>& requests = workload.requests;
  const std::size_t offered = requests.size();
  rep.offered = offered;
  std::vector<Outcome> outcomes(offered);
  cluster::SimCluster& cluster = stack->cluster;
  gateway::Gateway& gateway = stack->gateway;

  // --- measured phase: schedule every arrival into the Gateway, arm the
  // controllers, run the simulation dry ---
  const std::uint64_t allocs0 = allocations();
  const auto start = Clock::now();
  SimTime makespan = 0;
  {
    ScopedSpan replay(spans, "replay");
    const std::int32_t parent = replay.index();
    for (std::size_t i = 0; i < offered; ++i) {
      cluster.simulator().schedule_at(requests[i].arrival, [&, i, parent] {
        ScopedSpan submit(spans, "Gateway.submit", parent,
                          static_cast<std::int64_t>(i));
        gateway.submit(requests[i], [&outcomes, i](const gateway::GatewayResult& r) {
          Outcome& out = outcomes[i];
          out.delivered = Clock::now();
          ++out.fired;
          out.disposition = r.disposition;
          out.cache_hit = r.record.cache_hit;
          out.latency = r.record.latency();
        });
      });
    }
    stack->scaler.start(requests.back().arrival);
    stack->injector.arm();
    cluster.run_to_completion();
    stack->scaler.finalize();
  }
  const auto end = Clock::now();
  const std::uint64_t allocs = allocations() - allocs0;
  const double phase_s = seconds_between(start, end);
  rep.disturbance = phase_s;

  // --- results ---
  const cluster::SchedulerEngine& engine = cluster.engine();
  std::vector<core::CompletionRecord> records = engine.completions();
  records.insert(records.end(), engine.failures().begin(), engine.failures().end());
  rep.digest = completion_digest(records);
  SimTime useful = 0;
  std::size_t local = 0;
  for (const auto& record : engine.completions()) {
    makespan = std::max(makespan, record.completed);
    useful += record.completed - record.dispatched;
    local += record.via_local_queue ? 1 : 0;
  }

  std::size_t resolved = 0, twice = 0, completed = 0, within_limit = 0, misses = 0;
  std::vector<double> sim_latency, wall_latency;
  for (std::size_t i = 0; i < offered; ++i) {
    const Outcome& out = outcomes[i];
    resolved += out.fired > 0 ? 1 : 0;
    twice += out.fired > 1 ? 1 : 0;
    if (out.fired == 0) continue;
    wall_latency.push_back(seconds_between(start, out.delivered) * 1e3);
    if (out.disposition != gateway::Disposition::kCompleted) continue;
    ++completed;
    misses += out.cache_hit ? 0 : 1;
    sim_latency.push_back(sim_to_seconds(out.latency));
    within_limit += sim_latency.back() <= kGoodputLimitS ? 1 : 0;
  }
  const gateway::GatewayCounters& c = gateway.counters();
  rep.completed = completed;
  rep.failed = offered - completed;
  rep.gate("every request resolves exactly once",
           resolved == offered && twice == 0 &&
               static_cast<std::size_t>(c.completed + c.failed + c.shed + c.expired) ==
                   offered,
           std::to_string(resolved) + "/" + std::to_string(offered) +
               " resolved, " + std::to_string(twice) + " twice");
  const chaos::ChaosCounters& faults = stack->injector.counters();
  rep.gate("chaos injected kills and degrades",
           faults.domain_kills > 0 && faults.degrades > 0);

  const double n = static_cast<double>(offered);
  const double done = static_cast<double>(std::max<std::size_t>(completed, 1));
  add_sim_latency(rep, std::move(sim_latency));
  add_wall_latency(rep, std::move(wall_latency));
  rep.values["replay_rps"] = static_cast<double>(completed) / phase_s;
  rep.values["miss_ratio"] = static_cast<double>(misses) / done;
  rep.values["goodput"] = static_cast<double>(within_limit) / n;
  rep.values["gpu_seconds"] = stack->scaler.gpu_seconds(makespan);

  // --- per-layer ---
  rep.values["sim.events_per_req"] =
      static_cast<double>(cluster.simulator().events_executed()) / n;
  rep.values["core.policy_calls_per_req"] =
      static_cast<double>(engine.policy_invocations()) / n;
  rep.values["core.policy_s"] = static_cast<double>(engine.policy_wall_ns()) / 1e9;
  rep.values["core.policy_share"] = rep.values["core.policy_s"] / phase_s;
  rep.values["core.queue_len_mean"] =
      static_cast<double>(engine.policy_queue_len_sum()) /
      static_cast<double>(std::max<std::uint64_t>(engine.policy_invocations(), 1));
  rep.values["core.queue_len_max"] = static_cast<double>(engine.policy_queue_len_max());
  rep.values["core.false_miss_ratio"] = static_cast<double>(engine.false_misses()) / done;
  rep.values["cluster.local_queue_share"] =
      static_cast<double>(local) /
      static_cast<double>(std::max<std::size_t>(engine.completions().size(), 1));
  const auto& cache_stats = cluster.cache().stats();
  rep.values["cache.hit_ratio"] =
      static_cast<double>(cache_stats.hits) /
      static_cast<double>(cache_stats.hits + cache_stats.misses);
  std::int64_t evictions = 0, loads = 0;
  double util = 0;
  for (std::size_t g = 0; g < cluster.gpu_count(); ++g) {
    evictions += cluster.gpu(g).counters().evictions;
    loads += cluster.gpu(g).counters().loads;
    util += cluster.gpu(g).sm_utilization(makespan);
  }
  rep.values["cache.evictions_per_kreq"] = static_cast<double>(evictions) / n * 1e3;
  rep.values["cache.loads_per_kreq"] = static_cast<double>(loads) / n * 1e3;
  rep.values["gpu.sm_utilization"] = util / static_cast<double>(cluster.gpu_count());
  rep.values["gpu.top_model_duplicates"] =
      engine.average_top_duplicates(cluster.simulator().now());
  rep.values["datastore.puts_per_req"] =
      static_cast<double>(cluster.datastore().revision()) / n;
  rep.values["gateway.shed"] = static_cast<double>(c.shed);
  rep.values["gateway.expired"] = static_cast<double>(c.expired);
  rep.values["gateway.retries"] = static_cast<double>(c.retries);
  rep.values["gateway.retries_denied"] = static_cast<double>(c.retries_denied);
  rep.values["gateway.hedges"] = static_cast<double>(c.hedges);
  rep.values["gateway.hedge_wins"] = static_cast<double>(c.hedge_wins);
  rep.values["gateway.dup_overhead"] =
      static_cast<double>(engine.cancelled_execution_time()) /
      static_cast<double>(std::max<SimTime>(useful, 1));
  const autoscale::AutoscalerCounters& scale = stack->scaler.counters();
  rep.values["autoscale.gpus_added"] = static_cast<double>(scale.gpus_added);
  rep.values["autoscale.gpus_retired"] = static_cast<double>(scale.gpus_retired);
  rep.values["autoscale.powered_mean"] =
      stack->scaler.powered_timeline().time_weighted_mean(makespan);
  rep.values["chaos.kills"] = static_cast<double>(faults.domain_kills);
  rep.values["chaos.degrades"] = static_cast<double>(faults.degrades);
  rep.values["allocs_per_req"] = static_cast<double>(allocs) / n;
  if (args.tracer != nullptr) {
    rep.values["gateway.submit_s"] = args.tracer->total_s("Gateway.submit");
    rep.values["sim.dispatch_self_s"] = phase_s - rep.values["gateway.submit_s"];
  }
  return rep;
}

}  // namespace perfbench
