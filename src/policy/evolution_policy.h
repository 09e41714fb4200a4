// EvolutionPolicy: a named preset over the option structs of the EVE
// pipeline.
//
// Tuning an EVE deployment touches three knob sets: EveOptions (enumeration,
// decision policy, ranking, maintenance), MetaKnowledgeBase memo retention
// (set_selective_invalidation), and ServingOptions (admission / deadlines).
// EvolutionPolicy bundles one of each under a name, with
//   * Validate() with actionable errors,
//   * three presets: Exhaustive() (the seed's always-enumerate behavior,
//     byte-identical and tested), Balanced() (selective skip/cap with the
//     seed's enumeration breadth), LatencyBound() (tightened caps plus
//     serving deadlines),
//   * ApplyTo(system), which installs the options on a live system.
// Custom policies start from a preset and set the member structs' fields.

#ifndef EVE_POLICY_EVOLUTION_POLICY_H_
#define EVE_POLICY_EVOLUTION_POLICY_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "eve/eve_system.h"
#include "serve/frontend.h"

namespace eve {

/// A named evolution-pipeline configuration.
struct EvolutionPolicy {
  /// Preset name ("exhaustive", "balanced", "latency_bound", or "custom").
  std::string name = "custom";
  EveOptions options;
  ServingOptions serving;
  /// MKB memo retention across mutations (delta-aware invalidation).
  bool selective_invalidation = true;

  /// Checks cross-field consistency: synchronizer.max_rewritings positive,
  /// synchronizer.max_pc_hops >= 1, policy.cap_max_rewritings positive, QC
  /// weights valid.
  Status Validate() const;

  /// The options for EveSystem construction.
  EveOptions ToEveOptions() const { return options; }
  /// The options for ServingFrontEnd construction.
  ServingOptions ToServingOptions() const { return serving; }
  /// Applies this policy to a live system: replaces its options and sets
  /// the MKB invalidation mode.  Validates first.
  Status ApplyTo(EveSystem& system) const;

  // --- Presets -------------------------------------------------------------

  /// The seed behavior: decision layer bypassed, every pair enumerates with
  /// the default options.  Byte-identical reports (tested).
  static EvolutionPolicy Exhaustive();
  /// Skip/cap pre-checks on, enumeration breadth unchanged, capped pairs
  /// tightened to 32 rewritings.
  static EvolutionPolicy Balanced();
  /// Balanced plus aggressively tightened enumeration (2 PC hops, 32-result
  /// cap, 8-result cap on capped pairs) and serving deadlines for
  /// deadline-bound deployments.
  static EvolutionPolicy LatencyBound();
};

/// Looks up a preset by name ("exhaustive", "balanced", "latency_bound";
/// case-insensitive).  Used by the --policy / EVE_POLICY driver flag.
Result<EvolutionPolicy> PolicyPresetByName(std::string_view name);

}  // namespace eve

#endif  // EVE_POLICY_EVOLUTION_POLICY_H_
