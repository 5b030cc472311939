// perfbench: the whole-stack benchmark.
//
//   perfbench --workload NAME --seed N --seconds T --trace 0|1 [--spans PATH]
//
// Repeats one workload (set-up + measured phase) until T seconds have
// passed, then prints every metric by name and unit, the attempted /
// succeeded / failed counts, the correctness gates, and as its last line
// one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// A fixed reference kernel runs after every repetition and measures how
// fast the shared machine is running; the replays' wall-clock metrics are
// scaled by it (see reference_kernel_s in harness.h).
//
// --trace 0 reports the end-to-end metrics: wall-clock ones as the median
// over each trace's repetitions, averaged over the traces; simulated ones
// averaged over the traces; set-up time the median over all repetitions;
// the rest from the least disturbed repetition. --trace 1
// interleaves untraced repetitions with traced ones (spans around the
// benchmark's calls into each layer) and reports the per-layer metrics of
// the least disturbed traced one; tracing_overhead is the gap between the
// best traced and the best untraced repetition. End-to-end numbers never
// come from traced repetitions. Exits non-zero when any gate fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

// How a run folds its repetitions into one value.
enum class Fold {
  // The least disturbed repetition's value.
  kRepresentative,
  // A pure function of the seed on the simulated workloads (bit-identical
  // from run to run): the mean over the run's traces there; on the serving
  // workload, whose values ride on the wall clock, the median over its
  // valid repetitions.
  kTraceMean,
  // Wall-clock numbers (on the replays scaled to the reference kernel,
  // see Rep::paced): the median over each trace's repetitions, then the
  // mean over the traces without the highest and the lowest, which evens
  // out how costly each trace's inputs are.
  kWall,
  kMedian,
};

struct MetricDef {
  const char* name;
  const char* unit;
  Fold fold;
};

// Every workload reports every end-to-end metric. On the trace replays
// all requests are handed over when the replay starts, so a request's
// wall latency is the time from then until its result is delivered.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s", Fold::kMedian},
    {"peak_rss_mb", "MB", Fold::kRepresentative},
    {"replay_rps", "req/s", Fold::kWall},
    {"sim_latency_p50_s", "sim_s", Fold::kTraceMean},
    {"sim_latency_p99_s", "sim_s", Fold::kTraceMean},
    {"sim_latency_p99.9_s", "sim_s", Fold::kTraceMean},
    {"miss_ratio", "ratio", Fold::kTraceMean},
    {"goodput", "ratio", Fold::kTraceMean},
    {"gpu_seconds", "GPU_s", Fold::kTraceMean},
    {"wall_latency_p50_ms", "ms", Fold::kWall},
    {"wall_latency_p99_ms", "ms", Fold::kWall},
    {"wall_latency_p99.9_ms", "ms", Fold::kWall},
};

// Per-layer metrics, grouped by the src/ module they measure. A metric
// of a layer a workload does not load reads 0 there.
const MetricDef kPerLayer[] = {
    {"sim.events_per_req", "count/req", Fold::kTraceMean},
    {"sim.dispatch_self_s", "s", Fold::kRepresentative},
    {"core.policy_calls_per_req", "count/req", Fold::kTraceMean},
    {"core.policy_s", "s", Fold::kRepresentative},
    {"core.policy_share", "ratio", Fold::kRepresentative},
    {"core.queue_len_mean", "count", Fold::kTraceMean},
    {"core.queue_len_max", "count", Fold::kTraceMean},
    {"core.false_miss_ratio", "ratio", Fold::kTraceMean},
    {"cluster.submit_s", "s", Fold::kRepresentative},
    {"cluster.local_queue_share", "ratio", Fold::kTraceMean},
    {"cluster.assembly_s", "s", Fold::kRepresentative},
    {"realtime.events_per_req", "count/req", Fold::kRepresentative},
    {"cache.hit_ratio", "ratio", Fold::kTraceMean},
    {"cache.evictions_per_kreq", "count/kreq", Fold::kTraceMean},
    {"cache.loads_per_kreq", "count/kreq", Fold::kTraceMean},
    {"gpu.sm_utilization", "ratio", Fold::kTraceMean},
    {"gpu.top_model_duplicates", "count", Fold::kTraceMean},
    {"datastore.puts_per_req", "count/req", Fold::kTraceMean},
    {"trace.build_s", "s", Fold::kRepresentative},
    {"shard.replay_wall_s", "s", Fold::kRepresentative},
    {"shard.critical_path_s", "s", Fold::kRepresentative},
    {"shard.serial_s", "s", Fold::kRepresentative},
    {"shard.total_work_s", "s", Fold::kRepresentative},
    {"shard.handoff_s", "s", Fold::kRepresentative},
    {"shard.work_imbalance", "ratio", Fold::kRepresentative},
    {"shard.calibration_s", "s", Fold::kRepresentative},
    {"shard.epochs", "count", Fold::kTraceMean},
    {"shard.steals", "count", Fold::kTraceMean},
    {"shard.evacuations", "count", Fold::kTraceMean},
    {"shard.routed_share_max", "ratio", Fold::kTraceMean},
    {"gateway.admit_lag_p50_ms", "ms", Fold::kRepresentative},
    {"gateway.admit_lag_p99_ms", "ms", Fold::kRepresentative},
    {"gateway.submit_s", "s", Fold::kRepresentative},
    {"gateway.shed", "count", Fold::kTraceMean},
    {"gateway.expired", "count", Fold::kTraceMean},
    {"gateway.retries", "count", Fold::kTraceMean},
    {"gateway.retries_denied", "count", Fold::kTraceMean},
    {"gateway.hedges", "count", Fold::kTraceMean},
    {"gateway.hedge_wins", "count", Fold::kTraceMean},
    {"gateway.dup_overhead", "ratio", Fold::kTraceMean},
    {"ingress.enqueue_p50_us", "us", Fold::kRepresentative},
    {"ingress.enqueue_p99_us", "us", Fold::kRepresentative},
    {"ingress.ring_full_retries", "count", Fold::kRepresentative},
    {"ingress.batch_mean", "count", Fold::kRepresentative},
    {"ingress.max_batch", "count", Fold::kRepresentative},
    {"callbacks.fanout_lag_p99_ms", "ms", Fold::kRepresentative},
    {"generator.lateness_p99_ms", "ms", Fold::kRepresentative},
    {"generator.lateness_max_ms", "ms", Fold::kRepresentative},
    {"autoscale.gpus_added", "count", Fold::kTraceMean},
    {"autoscale.gpus_retired", "count", Fold::kTraceMean},
    {"autoscale.powered_mean", "count", Fold::kTraceMean},
    {"chaos.kills", "count", Fold::kTraceMean},
    {"chaos.degrades", "count", Fold::kTraceMean},
    {"allocs_per_req", "count/req", Fold::kTraceMean},
    {"machine.reference_ms", "ms", Fold::kMedian},
    {"tracing_overhead", "ratio", Fold::kRepresentative},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

struct WorkloadEntry {
  const char* name;
  Rep (*run)(const WorkloadArgs&);
  std::vector<Gate> (*check)(const WorkloadArgs&, const Rep&);
};

const WorkloadEntry kWorkloads[] = {
    {"replay_locality", run_replay_locality, check_replay_locality},
    {"replay_sharded", run_replay_sharded, check_replay_sharded},
    {"serve_ingress", run_serve_ingress, nullptr},
    {"elastic_chaos", run_elastic_chaos, nullptr},
};

bool parse(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value);
    } else if (flag == "--trace") {
      options->trace = std::atoi(value) != 0;
    } else if (flag == "--spans") {
      options->spans_path = value;
    } else {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0;
}

double median_of(const std::vector<const Rep*>& reps, const std::string& name) {
  std::vector<double> values;
  for (const Rep* rep : reps) {
    auto it = rep->values.find(name);
    if (it != rep->values.end()) values.push_back(it->second);
  }
  return median(std::move(values));
}

// Mean without the highest and the lowest value (of five or more).
double trimmed_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::size_t from = 0, to = values.size();
  if (values.size() >= 5) {
    ++from;
    --to;
  }
  double sum = 0;
  for (std::size_t i = from; i < to; ++i) sum += values[i];
  return sum / static_cast<double>(to - from);
}

// Each run replays kTraces independent traces whose seeds derive from
// --seed, so the simulated metrics average over several traces instead of
// resting on one.
constexpr std::size_t kTraces = 8;

std::uint64_t trace_seed(std::uint64_t seed, std::size_t trace) {
  return seed * kTraces + trace;
}

Fold fold_of(const std::string& name) {
  for (const MetricDef& def : kEndToEnd) {
    if (name == def.name) return def.fold;
  }
  for (const MetricDef& def : kPerLayer) {
    if (name == def.name) return def.fold;
  }
  return Fold::kRepresentative;
}

// Scales a replay's wall-clock metrics to the reference kernel's time.
void scale_to_reference(Rep& rep) {
  const double factor = rep.reference_nominal_s / rep.reference_s;
  rep.values["replay_rps"] /= factor;
  for (const char* name :
       {"wall_latency_p50_ms", "wall_latency_p99_ms", "wall_latency_p99.9_ms"}) {
    rep.values[name] *= factor;
  }
}

// A rep's headline wall-clock number, on the replays over the reference
// kernel's time.
double cost(const Rep& rep) {
  return rep.paced ? rep.disturbance : rep.disturbance / rep.reference_s;
}

const Rep* least_disturbed(const std::vector<const Rep*>& reps) {
  const Rep* best = nullptr;
  for (const Rep* rep : reps) {
    if (best == nullptr || cost(*rep) < cost(*best)) best = rep;
  }
  return best;
}

void print_metrics(const char* title, const MetricDef* defs, std::size_t count,
                   const std::map<std::string, double>& values,
                   const std::set<std::string>& present, bool deterministic) {
  std::printf("%s\n", title);
  for (std::size_t i = 0; i < count; ++i) {
    const MetricDef& def = defs[i];
    if (present.count(def.name) == 0) {
      std::printf("  %-28s %14s %-10s\n", def.name, "n/a", def.unit);
      continue;
    }
    const bool exact = def.fold == Fold::kTraceMean && deterministic;
    std::printf("  %-28s %14.6g %-10s%s\n", def.name, values.at(def.name),
                def.unit, exact ? " exact" : "");
  }
}

int run(const Options& options) {
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (options.workload == w.name) entry = &w;
  }
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }

  // --- measured repetitions ---
  // Repetition i replays trace i % kTraces; traced runs pair each traced
  // repetition with an untraced one on the same trace.
  std::vector<Rep> untraced, traced;
  std::unique_ptr<Tracer> last_tracer;
  // The reference kernel's time after each repetition, in run order.
  std::vector<double> kernel_s;
  const auto begin = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool enough = (options.trace ? traced.size() : untraced.size()) >= kTraces;
    if (enough && seconds_since(begin) >= options.seconds) break;
    const std::size_t trace = (options.trace ? i / 2 : i) % kTraces;
    WorkloadArgs args;
    args.seed = trace_seed(options.seed, trace);
    std::unique_ptr<Tracer> tracer;
    if (options.trace && i % 2 == 1) {
      tracer = std::make_unique<Tracer>();
      args.tracer = tracer.get();
    }
    Rep rep = entry->run(args);
    rep.trace = trace;
    rep.sequence = i;
    kernel_s.push_back(reference_kernel_s(rep.threads));
    if (tracer != nullptr) {
      traced.push_back(std::move(rep));
      last_tracer = std::move(tracer);
    } else {
      untraced.push_back(std::move(rep));
    }
  }
  const double rss_mb = peak_rss_mb();

  // One kernel run is noisy; the median of the runs around a rep still
  // follows the machine's slower swings.
  for (std::vector<Rep>* reps : {&untraced, &traced}) {
    for (Rep& rep : *reps) {
      const std::size_t from = rep.sequence >= 2 ? rep.sequence - 2 : 0;
      const std::size_t to = std::min(rep.sequence + 3, kernel_s.size());
      rep.reference_s = median(std::vector<double>(kernel_s.begin() + from,
                                                   kernel_s.begin() + to));
      rep.values["machine.reference_ms"] = kernel_s[rep.sequence] * 1e3;
      if (!rep.paced) scale_to_reference(rep);
    }
  }

  std::vector<const Rep*> all, valid_untraced, valid_traced;
  for (const Rep& rep : untraced) {
    all.push_back(&rep);
    if (rep.valid) valid_untraced.push_back(&rep);
  }
  for (const Rep& rep : traced) {
    all.push_back(&rep);
    if (rep.valid) valid_traced.push_back(&rep);
  }
  // The first repetition of each trace, in trace order.
  std::vector<const Rep*> per_trace;
  for (std::size_t k = 0; k < kTraces; ++k) {
    for (const Rep* rep : all) {
      if (rep->trace == k) {
        per_trace.push_back(rep);
        break;
      }
    }
  }
  const Rep& first = *per_trace.front();

  // --- gates ---
  std::vector<Gate> gates;
  std::map<std::string, std::size_t> failing;
  std::vector<std::string> gate_order;
  for (const Rep* rep : all) {
    for (const Gate& gate : rep->gates) {
      if (failing.count(gate.name) == 0) {
        failing[gate.name] = 0;
        gate_order.push_back(gate.name);
      }
      if (!gate.pass) ++failing[gate.name];
    }
  }
  for (const std::string& name : gate_order) {
    gates.push_back({name, failing[name] == 0,
                     failing[name] == 0
                         ? "all " + std::to_string(all.size()) + " reps"
                         : std::to_string(failing[name]) + " of " +
                               std::to_string(all.size()) + " reps failed"});
  }
  if (first.deterministic) {
    bool same = true;
    std::string digests;
    for (const Rep* head : per_trace) {
      for (const Rep* rep : all) {
        same = same && (rep->trace != head->trace || rep->digest == head->digest);
      }
      char digest[24];
      std::snprintf(digest, sizeof(digest), "%s%016llx", digests.empty() ? "" : " ",
                    static_cast<unsigned long long>(head->digest));
      digests += digest;
    }
    gates.push_back({"completion digest repeats across reps of a trace", same,
                     digests});
  }
  const std::vector<const Rep*>& measured =
      options.trace ? valid_traced : valid_untraced;
  gates.push_back({"at least one valid rep", !measured.empty(),
                   std::to_string(valid_untraced.size() + valid_traced.size()) +
                       " of " + std::to_string(all.size()) + " valid"});
  if (entry->check != nullptr) {
    WorkloadArgs args;
    args.seed = trace_seed(options.seed, first.trace);
    for (Gate& gate : entry->check(args, first)) gates.push_back(std::move(gate));
  }
  bool correct = true;
  for (const Gate& gate : gates) correct = correct && gate.pass;

  // --- counts ---
  std::uint64_t attempted = 0, succeeded = 0, failed = 0;
  const std::vector<Rep>& counted = options.trace ? traced : untraced;
  for (const Rep& rep : counted) {
    attempted += rep.offered;
    succeeded += rep.completed;
    failed += rep.failed;
  }

  // --- metrics ---
  std::map<std::string, double> values;
  std::set<std::string> present;
  const Rep* representative = least_disturbed(measured);
  if (representative != nullptr) {
    values = representative->values;
    for (const auto& [name, value] : values) present.insert(name);
  }
  for (auto& [name, value] : values) {
    std::vector<double> samples;
    switch (fold_of(name)) {
      case Fold::kRepresentative:
        break;
      case Fold::kTraceMean:
        if (first.deterministic) {
          double sum = 0;
          for (const Rep* rep : per_trace) sum += rep->values.at(name);
          value = sum / static_cast<double>(per_trace.size());
        } else {
          value = median_of(measured, name);
        }
        break;
      case Fold::kWall: {
        std::map<std::size_t, std::vector<double>> by_trace;
        for (const Rep* rep : measured) {
          by_trace[rep->trace].push_back(rep->values.at(name));
        }
        for (auto& [trace, v] : by_trace) samples.push_back(median(std::move(v)));
        value = trimmed_mean(std::move(samples));
        break;
      }
      case Fold::kMedian:
        value = median_of(all, name);
        break;
    }
  }
  values["peak_rss_mb"] = rss_mb;
  present.insert("peak_rss_mb");
  if (options.trace) {
    const Rep* base = least_disturbed(valid_untraced);
    values["tracing_overhead"] =
        base != nullptr && representative != nullptr
            ? cost(*representative) / cost(*base) - 1.0
            : 0.0;
    present.insert("tracing_overhead");
  }
  bool finite = true;
  for (const auto& [name, value] : values) finite = finite && std::isfinite(value);
  gates.push_back({"every metric is finite", finite, ""});
  correct = correct && finite;

  // --- report ---
  std::printf("workload %s  seed %llu  trace %s  reps %zu untraced + %zu traced "
              "in %.1f s\n",
              entry->name, static_cast<unsigned long long>(options.seed),
              options.trace ? "on" : "off", untraced.size(), traced.size(),
              seconds_since(begin));
  for (const std::string& note : first.notes) std::printf("  %s\n", note.c_str());
  std::printf("  %s per rep:", first.disturbance_name.c_str());
  for (const Rep* rep : all) {
    std::printf(" %.4f%s%s", rep->disturbance, rep == representative ? "*" : "",
                rep->valid ? "" : "(invalid)");
  }
  std::printf("  (* least disturbed)\n");
  std::printf("  reference kernel ms per rep:");
  for (const Rep* rep : all) {
    std::printf(" %.2f", rep->values.at("machine.reference_ms"));
  }
  std::printf("\n");
  for (const Rep* rep : all) {
    if (!rep->valid) std::printf("  INVALID rep: %s\n", rep->invalid_reason.c_str());
  }
  std::printf("requests  attempted %llu  succeeded %llu  failed %llu  "
              "failed_share %.6g\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(succeeded),
              static_cast<unsigned long long>(failed),
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0);
  if (options.trace) {
    print_metrics("per-layer (least disturbed traced rep; exact: mean over "
                  "traces; n/a: layer not loaded)",
                  kPerLayer, std::size(kPerLayer), values, present,
                  first.deterministic);
    std::printf("span self time, last traced rep (%zu spans)\n",
                last_tracer->span_count());
    for (const auto& [name, self_s] : last_tracer->self_time_s()) {
      std::printf("  %-28s %14.6f s\n", name.c_str(), self_s);
    }
    if (!options.spans_path.empty()) {
      if (last_tracer->write_csv(options.spans_path)) {
        std::printf("spans written to %s\n", options.spans_path.c_str());
      } else {
        std::printf("cannot write spans to %s\n", options.spans_path.c_str());
        correct = false;
      }
    }
  } else {
    print_metrics(first.paced
                      ? "end-to-end (wall clock: trimmed mean over traces of "
                        "each trace's median rep; setup_s: median; others: "
                        "median over reps)"
                      : "end-to-end (exact: mean over traces; wall clock: "
                        "scaled to the reference kernel, trimmed mean over "
                        "traces of each trace's median rep; setup_s: median)",
                  kEndToEnd, std::size(kEndToEnd), values, present,
                  first.deterministic);
  }
  std::printf("gates\n");
  for (const Gate& gate : gates) {
    std::printf("  %s  %s%s%s%s\n", gate.pass ? "PASS" : "FAIL", gate.name.c_str(),
                gate.detail.empty() ? "" : "  (", gate.detail.c_str(),
                gate.detail.empty() ? "" : ")");
  }

  // --- result line ---
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  const MetricDef* defs = options.trace ? kPerLayer : kEndToEnd;
  const std::size_t count =
      options.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (std::size_t i = 0; i < count; ++i) {
    char item[160];
    const auto it = values.find(defs[i].name);
    std::snprintf(item, sizeof(item),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name,
                  it != values.end() && std::isfinite(it->second) ? it->second : 0.0,
                  defs[i].unit);
    json += item;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parse(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds T "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  return perfbench::run(options);
}
