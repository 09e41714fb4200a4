#include "policy/evolution_policy.h"

#include <algorithm>
#include <cctype>

#include "common/str_util.h"

namespace eve {

Status EvolutionPolicy::Validate() const {
  if (options.synchronizer.max_rewritings <= 0) {
    return Status::InvalidArgument(
        "EvolutionPolicy: synchronizer.max_rewritings must be positive");
  }
  if (options.synchronizer.max_pc_hops < 1) {
    return Status::InvalidArgument(
        "EvolutionPolicy: synchronizer.max_pc_hops must be >= 1");
  }
  if (options.policy.cap_max_rewritings <= 0) {
    return Status::InvalidArgument(
        "EvolutionPolicy: policy.cap_max_rewritings must be positive");
  }
  return options.qc.Validate();
}

Status EvolutionPolicy::ApplyTo(EveSystem& system) const {
  EVE_RETURN_IF_ERROR(Validate());
  system.options() = options;
  system.mkb().set_selective_invalidation(selective_invalidation);
  return Status::OK();
}

EvolutionPolicy EvolutionPolicy::Exhaustive() {
  EvolutionPolicy p;
  p.name = "exhaustive";
  return p;  // All defaults: PolicyMode::kExhaustive, seed enumeration.
}

EvolutionPolicy EvolutionPolicy::Balanced() {
  EvolutionPolicy p;
  p.name = "balanced";
  p.options.policy.mode = PolicyMode::kBalanced;
  p.options.policy.cap_max_rewritings = 32;
  return p;
}

EvolutionPolicy EvolutionPolicy::LatencyBound() {
  EvolutionPolicy p;
  p.name = "latency_bound";
  p.options.policy.mode = PolicyMode::kLatencyBound;
  p.options.policy.cap_max_rewritings = 8;
  p.options.synchronizer.max_pc_hops = 2;
  p.options.synchronizer.max_rewritings = 32;
  p.serving.default_deadline = std::chrono::milliseconds(50);
  p.serving.max_epoch_lag = 4;
  return p;
}

Result<EvolutionPolicy> PolicyPresetByName(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  if (lower == "exhaustive") return EvolutionPolicy::Exhaustive();
  if (lower == "balanced") return EvolutionPolicy::Balanced();
  if (lower == "latency_bound" || lower == "latency-bound") {
    return EvolutionPolicy::LatencyBound();
  }
  return Status::InvalidArgument(
      StrFormat("unknown policy preset \"%.*s\" (expected exhaustive, "
                "balanced, or latency_bound)",
                static_cast<int>(name.size()), name.data()));
}

}  // namespace eve
