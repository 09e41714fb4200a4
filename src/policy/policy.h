// The selective rewriting policy: a decision layer that runs BEFORE
// enumeration for each (change, view) pair and classifies it as
//
//   * skip -- the change provably cannot affect the view (skip-unaffected)
//             or provably leaves it no legal rewriting (skip-dead); the
//             enumeration is bypassed and the report is exactly what full
//             enumeration would have produced;
//   * cap  -- enumerate, but with a tightened strategy subset and result
//             cap (the dominated CVS pair fan-out is pruned when an exact
//             equivalent covering replacement is known to exist);
//   * full -- enumerate with the base options (the seed behavior).
//
// All pre-checks are O(view) + memoized MKB lookups: attribute-coverage
// bitsets over the referenced attributes, reachability through the
// memoized transitive PC closure, and overlap estimates from the existing
// estimator (misd/overlap_estimator.h).
//
// Soundness of skip relies on monotonicity of the synchronizer's fold:
// the blockers of the drop strategy (an indispensable reference, a
// non-dispensable FROM item, the all-outputs guard, the single-FROM-item
// guard) can only get stricter as earlier fold rounds shrink the view, and
// the discovery strategies (replace-relation, join-in, cvs-pair) all
// enumerate the memoized PC closure of the affected FROM item -- an empty
// closure, or a non-replaceable item for the relation-level strategies,
// rules them out regardless of fold state.  tests/policy_test.cc verifies
// every skip against full enumeration (the oracle).

#ifndef EVE_POLICY_POLICY_H_
#define EVE_POLICY_POLICY_H_

#include <cstdint>
#include <string>

#include "esql/ast.h"
#include "misd/mkb.h"
#include "space/schema_change.h"
#include "synch/synchronizer.h"

namespace eve {

/// Operating mode of the policy layer.
enum class PolicyMode {
  /// Decision layer bypassed: every pair enumerates with the base options.
  /// Byte-identical to the seed's always-enumerate behavior (tested); this
  /// is the equivalence oracle for the selective modes.
  kExhaustive,
  /// Skip + cap pre-checks enabled with the base enumeration options.
  kBalanced,
  /// Skip + cap with aggressively tightened caps (for deadline-bound
  /// serving); trades rewriting spectrum breadth for latency.
  kLatencyBound,
};

std::string_view PolicyModeToString(PolicyMode mode);

/// Knobs of the decision layer (carried inside EveOptions).
struct PolicyConfig {
  PolicyMode mode = PolicyMode::kExhaustive;
  /// Cap decisions tighten max_rewritings to at most this many (never
  /// raising the base option).
  int cap_max_rewritings = 32;
};

/// Classification of one (change, view) pair.
enum class PolicyAction : uint8_t {
  kFull = 0,
  kCap = 1,
  kSkipUnaffected = 2,
  kSkipDead = 3,
};

std::string_view PolicyActionToString(PolicyAction action);

/// The decision for one (change, view) pair.
struct PolicyDecision {
  PolicyAction action = PolicyAction::kFull;
  /// Effective enumeration options for this pair (== the base options for
  /// kFull; tightened for kCap; unused for the skip actions).
  SynchronizerOptions options;
  /// Static description of the triggering pre-check (for reports/curves).
  const char* reason = "always-enumerate";

  bool skipped() const {
    return action == PolicyAction::kSkipUnaffected ||
           action == PolicyAction::kSkipDead;
  }
};

/// Per-decision counters, accumulated by EveSystem across schema changes
/// (EveSystem::policy_stats()).
struct PolicyStats {
  int64_t decisions = 0;
  int64_t full = 0;
  int64_t capped = 0;
  int64_t skipped_unaffected = 0;
  int64_t skipped_dead = 0;
  /// Enumeration work actually spent: candidates derived and offered to
  /// the synchronizer's sinks, summed over all enumerated pairs.
  int64_t candidates_considered = 0;
  /// Candidates that survived to ranking.
  int64_t candidates_ranked = 0;

  PolicyStats& operator+=(const PolicyStats& other);
  std::string ToString() const;
};

/// The pre-enumeration decision engine.  Stateless apart from borrowed
/// references; one instance per NotifySchemaChange, shared across the
/// per-view workers (Decide is const and touches only internally
/// synchronized MKB memos).
class PolicyEngine {
 public:
  /// `mkb` must reflect the PRE-change state and outlive the engine.
  PolicyEngine(const MetaKnowledgeBase& mkb, const PolicyConfig& config,
               const SynchronizerOptions& base);

  /// Classifies (view, change).  Never returns a skip in kExhaustive mode.
  PolicyDecision Decide(const ViewDefinition& view,
                        const SchemaChange& change) const;

 private:
  const MetaKnowledgeBase& mkb_;
  PolicyConfig config_;
  SynchronizerOptions base_;
};

}  // namespace eve

#endif  // EVE_POLICY_POLICY_H_
