// ViewSynchronizer: generates the legal rewritings of a view affected by a
// capability change (paper §3.3; algorithms SVS [LNR97b] and, in spirit,
// CVS [NLR98]).
//
// The synchronizer must be given the PRE-change MKB: the constraints that
// mention the disappearing capability are exactly what licenses its
// replacement.  (EVE applies the change to the space/MKB only after
// synchronization; see eve/eve_system.h.)
//
// Strategies, in increasing sophistication:
//   * rename            -- pure reference rewriting for rename changes;
//   * drop              -- remove dispensable components that referenced the
//                          deleted capability;
//   * replace-relation  -- substitute the whole FROM item through a PC edge
//                          covering all attributes the view still needs;
//   * join-in           -- keep the relation (attribute deletions only) and
//                          join a PC-related relation to recover the lost
//                          attribute through a JC;
//   * cvs-pair          -- substitute one FROM item by a *join of two*
//                          PC-related relations whose mappings jointly cover
//                          the needed attributes (complex substitution).
//
// Every returned rewriting passes CheckLegality against the original view.

#ifndef EVE_SYNCH_SYNCHRONIZER_H_
#define EVE_SYNCH_SYNCHRONIZER_H_

#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "esql/ast.h"
#include "misd/mkb.h"
#include "space/schema_change.h"
#include "synch/partial.h"
#include "synch/rewriting.h"
#include "synch/strategy_set.h"

namespace eve {

/// Knobs for the rewriting search.
struct SynchronizerOptions {
  /// The enabled discovery strategies (replace-relation, join-in, cvs-pair)
  /// as an enum-bitmask; rename and drop are always available.  The policy
  /// layer's cap decisions tighten this per (change, view) pair.
  StrategySet strategies = StrategySet::All();
  /// Additionally enumerate rewritings that drop each subset of the
  /// dispensable SELECT items (the full "spectrum" of paper footnote 2).
  /// Off by default: those rewritings are dominated in information
  /// preservation.
  bool enumerate_drop_subsets = false;
  /// Add the PC target-side selection to the rewritten view so the
  /// replacement uses exactly the constrained fragment (tightens the extent
  /// relationship).
  bool apply_target_selection = true;
  /// Hard cap on returned rewritings.
  int max_rewritings = 256;
  /// Replacement discovery follows chains of up to this many PC constraints
  /// (transitively derived edges; 1 = direct constraints only).
  int max_pc_hops = 4;
};

/// The view synchronizer.
class ViewSynchronizer {
 public:
  /// `mkb` must outlive the synchronizer and reflect the PRE-change state.
  explicit ViewSynchronizer(const MetaKnowledgeBase& mkb,
                            SynchronizerOptions options = {});

  /// Generates the legal rewritings of `view` under `change`: the
  /// surviving candidates of SynchronizeCandidates, materialized.
  ///
  /// Governance (`ctx`): each derived candidate charges one unit of the
  /// candidate budget, and MKB closure misses charge the row budget.  When
  /// the candidate budget or the deadline runs out mid-enumeration the call
  /// still SUCCEEDS, returning the legal best-so-far rewritings with
  /// `truncated` set (graceful degradation); cancellation and injected
  /// faults surface as hard errors.
  Result<SynchronizationResult> Synchronize(
      const ViewDefinition& view, const SchemaChange& change,
      const ExecContext& ctx = ExecContext::Unlimited()) const;

  /// Delta-native API: generates the legal rewriting candidates of `view`
  /// under `change` as (base, op-log) pairs, leaving materialization to the
  /// consumer (it is lazy and one-shot per candidate).  Candidates are
  /// already legality-checked, deduplicated, and capped -- converting each
  /// with RewriteCandidate::ToRewriting yields exactly Synchronize()'s
  /// result.  Governance semantics match Synchronize().
  Result<CandidateSynchronizationResult> SynchronizeCandidates(
      const ViewDefinition& view, const SchemaChange& change,
      const ExecContext& ctx = ExecContext::Unlimited()) const;

 private:
  class Impl;
  const MetaKnowledgeBase& mkb_;
  SynchronizerOptions options_;
};

}  // namespace eve

#endif  // EVE_SYNCH_SYNCHRONIZER_H_
