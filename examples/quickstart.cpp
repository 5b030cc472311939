// Quickstart: serve a model-inference function through the gFaaS
// Gateway on a simulated GPU cluster in ~40 lines.
//
// What happens under the hood (paper Fig. 2): the Gateway admits each
// invocation and hands it to the Scheduler (LALB + out-of-order
// dispatch), which places it on one of 12 virtual RTX 2080 GPUs; the
// GPU Manager uploads the model on a miss, and the Cache Manager keeps it
// resident so repeat invocations skip the upload.
#include <cstdio>

#include "cluster/experiment.h"
#include "gateway/gateway.h"
#include "models/zoo.h"

using namespace gfaas;

int main() {
  // A 3-node x 4-GPU cluster (the paper's testbed), LALB+O3 scheduling,
  // with the whole Table I catalog registered.
  cluster::SimCluster cluster(cluster::ClusterConfig{},
                              models::ModelRegistry::full_catalog());
  gateway::Gateway gateway(&cluster);

  const auto model = models::find_model("resnet50");
  if (!model.ok()) {
    std::fprintf(stderr, "lookup failed: %s\n", model.status().to_string().c_str());
    return 1;
  }
  std::printf("serving model '%s' through the Gateway on %zu GPUs\n",
              model->name.c_str(), cluster.gpu_count());

  // Invoke it three times. The first pays the model upload (cold, ~4s);
  // the rest hit the GPU cache (~1.3s).
  int failures = 0;
  for (int i = 0; i < 3; ++i) {
    core::Request request;
    request.id = RequestId(i);
    request.model = model->id;
    gateway.submit(request, [i, &failures](const gateway::GatewayResult& result) {
      if (result.disposition != gateway::Disposition::kCompleted) {
        std::fprintf(stderr, "invocation %d: %s\n", i,
                     gateway::disposition_name(result.disposition));
        ++failures;
        return;
      }
      const core::CompletionRecord& record = result.record;
      std::printf("invocation %d: %.2fs on gpu-%lld (%s)\n", i,
                  sim_to_seconds(record.latency()),
                  static_cast<long long>(record.gpu.value()),
                  record.cache_hit ? "cache hit" : "cache miss: model uploaded");
    });
    cluster.run_to_completion();
  }
  return failures == 0 ? 0 : 1;
}
