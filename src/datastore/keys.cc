#include "datastore/keys.h"

namespace gfaas::datastore::keys {

std::string fn_latency(const std::string& fn_name) {
  return "fn/" + fn_name + "/latency";
}
std::string fn_invocations(const std::string& fn_name) {
  return "fn/" + fn_name + "/invocations";
}

}  // namespace gfaas::datastore::keys
