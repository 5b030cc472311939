// Table I reproduction: the 22-model catalog with occupation size in GPU
// memory, loading time, and inference latency at batch 32 — plus the
// load-time regression the scheduler derives from them (§IV-A).
#include <cstdio>

#include "metrics/reporter.h"
#include "models/latency_model.h"
#include "models/zoo.h"

using namespace gfaas;

int main() {
  std::printf("=== Table I: models used in the evaluation ===\n");
  metrics::Table table(
      {"Model", "Size(MB)", "Loading time(s)", "Inference time(s, batch 32)"});
  for (const auto& profile : models::table1_catalog()) {
    table.add_row({profile.name, std::to_string(profile.occupation / MB(1)),
                   metrics::Table::fmt(sim_to_seconds(profile.load_time)),
                   metrics::Table::fmt(sim_to_seconds(profile.infer_time_b32))});
  }
  std::printf("%s\n", table.to_string().c_str());

  auto load_model = models::LoadTimeModel::fit(models::table1_catalog());
  if (load_model.ok()) {
    std::printf(
        "Load-time regression across the catalog (t = base + size/bandwidth):\n"
        "  base cost:          %.2f s (process start + context init)\n"
        "  implied bandwidth:  %.2f GB/s effective upload\n",
        sim_to_seconds(load_model->base_cost()), load_model->bandwidth_bps() / 1e9);
  }
  return 0;
}
