// The pre-optimization reference executor: the equivalence oracle of the
// prepared executor (algebra/executor.h) and the `_Baseline` benchmark
// baseline.  Part of the test/benchmark-only eve_oracles library; the
// production library never links it.

#ifndef EVE_ORACLES_EXECUTOR_REFERENCE_H_
#define EVE_ORACLES_EXECUTOR_REFERENCE_H_

#include "algebra/provider.h"
#include "common/exec_context.h"
#include "common/result.h"
#include "esql/ast.h"
#include "plan/prepared_view.h"
#include "storage/relation.h"

namespace eve {

/// Fixed FROM-order left-deep joins materializing every intermediate tuple.
/// Governed per scanned / joined tuple; probes the `executor.reference`
/// fault site on entry.
Result<Relation> ExecuteViewReference(
    const ViewDefinition& view, const RelationProvider& provider,
    const ExecOptions& options = {},
    const ExecContext& ctx = ExecContext::Unlimited());

}  // namespace eve

#endif  // EVE_ORACLES_EXECUTOR_REFERENCE_H_
