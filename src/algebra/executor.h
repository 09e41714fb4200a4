// Executor: evaluates an E-SQL view definition over an information space,
// producing the view extent.
//
// Since the plan/execute split, this header holds only the execution half:
// ExecutePrepared replays a PreparedView (resolved FROM items, bound
// clauses, pushdown sets, cost-ordered join order -- see plan/planner.h),
// joining over row-id vectors against the base relations (hash join on
// equality clauses through per-Relation cached indexes, nested-loop
// otherwise) and materializing tuples only for the final projection.
// ExecuteView is the one-shot convenience wrapper (prepare + execute);
// replay loops should prepare once -- directly or through a PlanCache --
// and execute per round.
//
// ExecutePrepared is const over the plan and the relations (per-Relation
// caches are internally synchronized), so one plan may be executed from
// many threads concurrently as long as nothing mutates the base data.

#ifndef EVE_ALGEBRA_EXECUTOR_H_
#define EVE_ALGEBRA_EXECUTOR_H_

#include "algebra/provider.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "esql/ast.h"
#include "expr/eval.h"
#include "plan/planner.h"
#include "plan/prepared_view.h"
#include "storage/relation.h"

namespace eve {

/// Executes a prepared plan (see plan/planner.h).  The caller is
/// responsible for plan freshness: a plan over mutated relations must be
/// re-prepared first (PreparedView::Validate, or use PlanCache which
/// revalidates automatically).  Result tuple *sets* are independent of the
/// plan's options; only row order may differ.
///
/// Governance: a limited `ctx` bounds the execution -- row-level work
/// (combos scanned, candidates emitted, residual evaluations, gathers) is
/// charged against the row budget with amortized deadline/cancellation
/// checks, and working-set/materialization footprints are charged against
/// the memory budget.  Violations surface as
/// DeadlineExceeded/Cancelled/ResourceExhausted; the default unlimited
/// context adds no per-row work.
Result<Relation> ExecutePrepared(
    const PreparedView& plan,
    const ExecContext& ctx = ExecContext::Unlimited());

/// Evaluates `view` against `provider`; the result relation's schema is the
/// view interface (output names, source attribute types).  Equivalent to
/// PrepareView + ExecutePrepared (both governed by `ctx`).
Result<Relation> ExecuteView(const ViewDefinition& view,
                             const RelationProvider& provider,
                             const ExecOptions& options = {},
                             const ExecContext& ctx = ExecContext::Unlimited());

}  // namespace eve

#endif  // EVE_ALGEBRA_EXECUTOR_H_
