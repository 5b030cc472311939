// Executor-agnostic assembly of the full component stack from Fig. 2:
// Cache Manager, per-node GPU Managers and the Scheduler engine, wired
// to whatever sim::Executor the caller provides.
//
// SimCluster (evaluation mode, discrete-event simulator) and
// RealTimeCluster (deployment mode, wall-clock executor) both delegate
// their construction and dynamic-membership verbs here, so the two modes
// assemble identical stacks and can never drift apart structurally.
#pragma once

#include <memory>
#include <vector>

#include "cache/cache_manager.h"
#include "cluster/config.h"
#include "cluster/engine.h"
#include "datastore/kv_store.h"
#include "gpu/pcie.h"
#include "gpu/virtual_gpu.h"
#include "models/latency_model.h"
#include "models/zoo.h"

namespace gfaas::cluster {

class ClusterAssembly {
 public:
  ClusterAssembly(sim::Executor* executor, const ClusterConfig& config,
                  const models::ModelRegistry& registry);
  ~ClusterAssembly();

  // The paper's etcd channel (§III-E) carries component state between
  // processes. Here every component shares one address space and
  // gateway::Gateway is the one front door, so nothing in src/ writes to
  // this store; it stays only for perfbench's datastore counter.
  datastore::KvStore& datastore() { return *store_; }
  cache::CacheManager& cache() { return *cache_; }
  const cache::CacheManager& cache() const { return *cache_; }
  SchedulerEngine& engine() { return *engine_; }
  const SchedulerEngine& engine() const { return *engine_; }
  const models::LatencyOracle& oracle() const { return *oracle_; }
  gpu::VirtualGpu& gpu(std::size_t index) { return *gpus_[index]; }
  std::size_t gpu_count() const { return gpus_.size(); }
  const ClusterConfig& config() const { return config_; }

  // Provisions one GPU as its own node (dedicated PCIe link and GPU
  // Manager) and joins it to the cache/engine. Ids are dense and never
  // reused; the VirtualGpu object stays owned (and addressable through
  // gpu()) after removal so post-run accounting can still read it.
  GpuId add_gpu(const gpu::GpuSpec& spec);

  // --- failure domains (src/chaos) ---
  // A domain is one node: its GPUs share the host PCIe link and the GPU
  // Manager, so correlated hardware faults (PSU, PCIe switch, host
  // kernel panic) take out the whole group at once. Autoscaler-added
  // GPUs are single-GPU nodes, i.e. each is its own domain. Domains are
  // never renumbered; a fully-killed domain simply has no registered
  // members left.
  std::size_t domain_count() const { return domain_gpus_.size(); }
  const std::vector<GpuId>& domain_gpus(std::size_t domain) const;
  // Chaos verb: kills every still-registered GPU of the domain in one
  // step (see SchedulerEngine::kill_gpu for per-GPU semantics). Members
  // already removed or killed are skipped.
  void kill_domain(std::size_t domain);
  // Chaos verb: gray-degrades (factor > 1) or heals (factor = 1) every
  // still-registered GPU of the domain — a correlated straggler (thermal
  // event, oversubscribed host) rather than a crash.
  void degrade_domain(std::size_t domain, double factor);

 private:
  ClusterConfig config_;
  sim::Executor* executor_;
  std::unique_ptr<datastore::KvStore> store_;
  std::unique_ptr<cache::CacheManager> cache_;
  std::unique_ptr<models::ModelRegistry> registry_;
  std::unique_ptr<models::LatencyOracle> oracle_;
  std::vector<std::unique_ptr<gpu::PcieLink>> links_;
  std::vector<std::unique_ptr<gpu::VirtualGpu>> gpus_;
  std::vector<std::unique_ptr<GpuManager>> managers_;
  std::vector<std::vector<GpuId>> domain_gpus_;  // domain ordinal -> members
  std::unique_ptr<SchedulerEngine> engine_;
};

}  // namespace gfaas::cluster
