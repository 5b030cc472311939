#include "autoscale/autoscaler.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/log.h"
#include "telemetry/telemetry.h"

namespace gfaas::autoscale {

// Instrument pointers resolved once at set_telemetry().
struct Autoscaler::TelemetryHandles {
  telemetry::Counter* ticks = nullptr;
  telemetry::Counter* scale_ups = nullptr;
  telemetry::Counter* scale_downs = nullptr;
  telemetry::Counter* gpus_added = nullptr;
  telemetry::Counter* gpus_retired = nullptr;
  telemetry::Counter* gpus_replaced = nullptr;
};

std::vector<GpuId> select_drain_victims(const std::vector<GpuId>& idle_hot_first,
                                        const cache::CacheManager& cache,
                                        std::size_t count) {
  // Rank each idle candidate by the number of resident models it is the
  // sole unfenced holder of (fencing such a GPU evicts the fleet's only
  // warm copy and forces a cold reload on the next request). Among
  // equals, prefer the coldest — the least-frequently-dispatched GPU,
  // i.e. the furthest back in the engine's hot-first idle ordering.
  //
  // Selection is greedy one victim at a time against *remaining* holder
  // counts: once a victim is chosen its copies no longer count, so two
  // GPUs that are each other's only duplicate for a model cannot both be
  // drained in one batch while an equally cheap victim exists.
  struct Candidate {
    std::size_t coldness;  // 0 = coldest
    GpuId gpu;
    std::vector<ModelId> models;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(idle_hot_first.size());
  std::unordered_map<std::int64_t, std::size_t> holders;  // model -> unfenced copies
  for (std::size_t pos = 0; pos < idle_hot_first.size(); ++pos) {
    const GpuId gpu = idle_hot_first[pos];
    candidates.push_back(
        {idle_hot_first.size() - 1 - pos, gpu, cache.state(gpu).models()});
    for (ModelId model : candidates.back().models) {
      holders.emplace(model.value(), cache.duplicate_count(model));
    }
  }

  std::vector<GpuId> victims;
  count = std::min(count, candidates.size());
  victims.reserve(count);
  while (victims.size() < count) {
    std::size_t best = candidates.size();
    std::size_t best_sole = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (!candidates[i].gpu.valid()) continue;  // already picked
      std::size_t sole = 0;
      for (ModelId model : candidates[i].models) {
        if (holders[model.value()] <= 1) ++sole;
      }
      if (best == candidates.size() || sole < best_sole ||
          (sole == best_sole && candidates[i].coldness < candidates[best].coldness)) {
        best = i;
        best_sole = sole;
      }
    }
    Candidate& victim = candidates[best];
    victims.push_back(victim.gpu);
    victim.gpu = GpuId();
    for (ModelId model : victim.models) --holders[model.value()];
  }
  return victims;
}

Autoscaler::Autoscaler(cluster::ElasticCluster* cluster,
                       std::unique_ptr<ScalingPolicy> policy, AutoscalerConfig config)
    : cluster_(cluster), policy_(std::move(policy)), config_(config) {
  GFAAS_CHECK(cluster_ != nullptr && policy_ != nullptr);
  GFAAS_CHECK(config_.min_gpus >= 1 && config_.max_gpus >= config_.min_gpus);
  GFAAS_CHECK(config_.evaluation_interval > 0 && config_.cold_start >= 0);
  policy_->bind(config_.evaluation_interval);
}

Autoscaler::~Autoscaler() = default;

void Autoscaler::set_telemetry(telemetry::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    tel_.reset();
    return;
  }
  auto handles = std::make_unique<TelemetryHandles>();
  telemetry::MetricRegistry& m = telemetry->metrics();
  handles->ticks = m.counter("autoscale.ticks");
  handles->scale_ups = m.counter("autoscale.scale_up_decisions");
  handles->scale_downs = m.counter("autoscale.scale_down_decisions");
  handles->gpus_added = m.counter("autoscale.gpus_added");
  handles->gpus_retired = m.counter("autoscale.gpus_retired");
  handles->gpus_replaced = m.counter("autoscale.gpus_replaced");
  tel_ = std::move(handles);
  // Billed-capacity breakdown, sampled each exporter tick.
  telemetry->add_probe([this](telemetry::MetricRegistry& reg) {
    serial_.AssertHeld();  // probes run on the executor worker thread
    const double schedulable =
        static_cast<double>(cluster_->engine().schedulable_gpu_count());
    reg.gauge("autoscale.fleet.schedulable")->set(schedulable);
    reg.gauge("autoscale.fleet.provisioning")
        ->set(static_cast<double>(provisioning_));
    reg.gauge("autoscale.fleet.draining")
        ->set(static_cast<double>(draining_.size()));
    reg.gauge("autoscale.fleet.powered")
        ->set(schedulable + static_cast<double>(provisioning_) +
              static_cast<double>(draining_.size()));
  });
}

void Autoscaler::start(SimTime horizon) {
  serial_.AssertHeld();
  GFAAS_CHECK(!started_) << "autoscaler already started";
  started_ = true;
  horizon_ = horizon;
  record_fleet();
  if (!config_.enabled) return;
  schedule_tick();
}

void Autoscaler::finalize() {
  serial_.AssertHeld();
  reap_drained();
  record_fleet();
  GFAAS_CHECK(provisioning_ == 0 && draining_.empty())
      << "finalize with in-flight membership changes";
}

void Autoscaler::schedule_tick() {
  cluster_->executor().schedule_after(config_.evaluation_interval, [this] {
    serial_.AssertHeld();  // timer callbacks fire on the worker thread
    tick();
  });
}

void Autoscaler::tick() {
  ++counters_.ticks;
  if (tel_) tel_->ticks->add();
  reap_drained();

  // Dead capacity is re-provisioned, not drained: a chaos kill removes
  // GPUs without any scale-down decision, and no policy is guaranteed to
  // notice (a mostly-idle fleet can sit below min_gpus indefinitely).
  // Backfill the floor before consulting the policy so the configured
  // minimum is an invariant, not a suggestion.
  const std::size_t committed_floor =
      cluster_->engine().schedulable_gpu_count() + provisioning_;
  if (committed_floor < config_.min_gpus) {
    const std::size_t deficit = config_.min_gpus - committed_floor;
    for (std::size_t i = 0; i < deficit; ++i) begin_cold_start();
    counters_.gpus_replaced += static_cast<std::int64_t>(deficit);
    if (tel_) tel_->gpus_replaced->add(static_cast<std::int64_t>(deficit));
    record_fleet();
  }

  const FleetView view = snapshot();
  const ScalingDecision decision = policy_->evaluate(view);
  apply(decision);

  // Re-arm while the trace is still arriving or the fleet has committed
  // work / membership changes outstanding; otherwise let the executor's
  // event queue drain so the run terminates.
  const bool keep_ticking = cluster_->executor().now() < horizon_ ||
                            cluster_->engine().pending() > 0 || provisioning_ > 0 ||
                            !draining_.empty();
  if (keep_ticking) schedule_tick();
}

FleetView Autoscaler::snapshot() const {
  const cluster::SchedulerEngine& engine = cluster_->engine();
  FleetView view;
  view.now = cluster_->executor().now();
  view.schedulable_gpus = engine.schedulable_gpu_count();
  view.provisioning_gpus = provisioning_;
  view.draining_gpus = draining_.size();
  view.idle_gpus = engine.idle_gpu_count();
  view.queue_len = engine.global_queue().size();
  view.in_flight = engine.in_flight();
  view.local_pending = engine.local_pending();
  view.min_gpus = config_.min_gpus;
  view.max_gpus = config_.max_gpus;
  return view;
}

void Autoscaler::apply(const ScalingDecision& decision) {
  // The min/max clamps live here, not in the policies (policy.h contract):
  // a decision can never push committed capacity above max_gpus...
  const std::size_t committed =
      cluster_->engine().schedulable_gpu_count() + provisioning_;
  const std::size_t add =
      std::min(decision.add, config_.max_gpus > committed
                                 ? config_.max_gpus - committed
                                 : 0);
  if (add > 0) {
    ++counters_.scale_up_decisions;
    if (tel_) tel_->scale_ups->add();
    for (std::size_t i = 0; i < add; ++i) begin_cold_start();
    record_fleet();
  }
  if (decision.remove > 0) {
    ++counters_.scale_down_decisions;
    if (tel_) tel_->scale_downs->add();
    begin_drain(decision.remove);
    reap_drained();  // idle victims with no local work retire immediately
  }
}

void Autoscaler::begin_cold_start() {
  ++provisioning_;
  SimTime delay = config_.cold_start;
  if (config_.cold_start_delay_hook) {
    const SimTime extra = config_.cold_start_delay_hook(cold_starts_begun_);
    GFAAS_CHECK(extra >= 0) << "negative cold-start delay injection";
    delay += extra;
  }
  ++cold_starts_begun_;
  cluster_->executor().schedule_after(delay, [this] {
    serial_.AssertHeld();  // timer callbacks fire on the worker thread
    GFAAS_CHECK(provisioning_ > 0);
    --provisioning_;
    cluster_->add_gpu(config_.spec);
    ++counters_.gpus_added;
    if (tel_) tel_->gpus_added->add();
    record_fleet();
  });
}

void Autoscaler::begin_drain(std::size_t count) {
  // ...and never drain the serving fleet below min_gpus — provisioning
  // GPUs do not count toward the floor, they cannot serve yet.
  const std::size_t schedulable = cluster_->engine().schedulable_gpu_count();
  count = std::min(count, schedulable > config_.min_gpus
                              ? schedulable - config_.min_gpus
                              : 0);
  const std::vector<GpuId> victims =
      select_drain_victims(cluster_->engine().idle_gpus(), cluster_->cache(), count);
  for (const GpuId victim : victims) {
    cluster_->fence_gpu(victim);
    draining_.push_back(victim);
  }
  record_fleet();
}

void Autoscaler::reap_drained() {
  bool changed = false;
  for (auto it = draining_.begin(); it != draining_.end();) {
    if (!cluster_->engine().is_registered(*it)) {
      // The GPU died (chaos kill) while draining: the engine already
      // retired it from every index, so just drop it from the drain
      // list — it was never cleanly drained, so it does not count as a
      // retirement.
      it = draining_.erase(it);
      changed = true;
    } else if (cluster_->gpu_drained(*it)) {
      cluster_->remove_gpu(*it);
      ++counters_.gpus_retired;
      if (tel_) tel_->gpus_retired->add();
      it = draining_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  if (changed) record_fleet();
}

void Autoscaler::record_fleet() {
  const SimTime now = cluster_->executor().now();
  const double schedulable =
      static_cast<double>(cluster_->engine().schedulable_gpu_count());
  powered_.set(now, schedulable + static_cast<double>(provisioning_) +
                        static_cast<double>(draining_.size()));
  schedulable_.set(now, schedulable);
  if (config_.membership_hook) config_.membership_hook();
}

}  // namespace gfaas::autoscale
