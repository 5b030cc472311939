#include "models/zoo.h"

#include <algorithm>

#include "common/log.h"

namespace gfaas::models {

namespace {

struct Row {
  const char* name;
  std::int64_t size_mb;
  double load_s;
  double infer_s;
};

// Table I of the paper, in row order.
constexpr Row kTable1[] = {
    {"squeezenet1.1", 1269, 2.41, 1.28},
    {"resnet18", 1313, 2.52, 1.25},
    {"resnet34", 1357, 2.60, 1.25},
    {"squeezenet1.0", 1435, 2.32, 1.33},
    {"alexnet", 1437, 2.81, 1.25},
    {"resnext50.32x4d", 1555, 2.64, 1.29},
    {"densenet121", 1601, 2.49, 1.28},
    {"densenet169", 1631, 2.56, 1.30},
    {"densenet201", 1665, 2.67, 1.40},
    {"resnet50", 1701, 2.67, 1.28},
    {"resnet101", 1757, 2.95, 1.30},
    {"resnet152", 1827, 3.10, 1.31},
    {"densenet161", 1919, 2.75, 1.32},
    {"inception.v3", 2157, 4.42, 1.63},
    {"resnext101.32x8d", 2191, 3.51, 1.33},
    {"vgg11", 2903, 3.94, 1.29},
    {"wideresnet502", 3611, 3.16, 1.31},
    {"wideresnet1012", 3831, 3.91, 1.32},
    {"vgg13", 3887, 3.98, 1.30},
    {"vgg16", 3907, 4.04, 1.27},
    {"vgg16.bn", 3907, 4.03, 1.26},
    {"vgg19", 3947, 4.07, 1.33},
};

std::vector<ModelProfile> build_catalog() {
  std::vector<ModelProfile> out;
  out.reserve(std::size(kTable1));
  std::int64_t id = 0;
  for (const Row& row : kTable1) {
    ModelProfile p;
    p.id = ModelId(id);
    p.name = row.name;
    p.occupation = MB(row.size_mb);
    p.load_time = seconds_to_sim(row.load_s);
    p.infer_time_b32 = seconds_to_sim(row.infer_s);
    out.push_back(std::move(p));
    ++id;
  }
  return out;
}

}  // namespace

const std::vector<ModelProfile>& table1_catalog() {
  static const std::vector<ModelProfile> catalog = build_catalog();
  return catalog;
}

StatusOr<ModelProfile> find_model(const std::string& name) {
  for (const auto& p : table1_catalog()) {
    if (p.name == name) return p;
  }
  return Status::NotFound("no catalog model named " + name);
}

Status ModelRegistry::register_model(const ModelProfile& profile) {
  if (!profile.id.valid()) {
    return Status::InvalidArgument("model id is invalid");
  }
  if (contains(profile.id)) {
    return Status::AlreadyExists("model id " + std::to_string(profile.id.value()) +
                                 " already registered");
  }
  profiles_.push_back(profile);
  return Status::Ok();
}

StatusOr<ModelProfile> ModelRegistry::get(ModelId id) const {
  for (const auto& p : profiles_) {
    if (p.id == id) return p;
  }
  return Status::NotFound("model id " + std::to_string(id.value()) + " not registered");
}

StatusOr<ModelProfile> ModelRegistry::get_by_name(const std::string& name) const {
  for (const auto& p : profiles_) {
    if (p.name == name) return p;
  }
  return Status::NotFound("model " + name + " not registered");
}

bool ModelRegistry::contains(ModelId id) const {
  return std::any_of(profiles_.begin(), profiles_.end(),
                     [&](const ModelProfile& p) { return p.id == id; });
}

ModelRegistry ModelRegistry::full_catalog() {
  ModelRegistry registry;
  for (const auto& p : table1_catalog()) {
    GFAAS_CHECK(registry.register_model(p).ok());
  }
  return registry;
}

}  // namespace gfaas::models
