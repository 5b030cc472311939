// Key-space layout for the per-function records the FaaS watchdog
// containers (src/faas) keep in the datastore:
//
//   fn/<name>/latency        last reported invocation latency (µs)
//   fn/<name>/invocations    cumulative invocation count
//
// The paper's components also swap GPU status, LRU lists and model
// locations through etcd (§III-E). In this reproduction the Scheduler,
// Cache Manager and GPU Managers share one address space and read that
// state from each other directly, so it has no keys here.
#pragma once

#include <string>

namespace gfaas::datastore::keys {

std::string fn_latency(const std::string& fn_name);
std::string fn_invocations(const std::string& fn_name);

}  // namespace gfaas::datastore::keys
