// The seed's executor, kept frozen as the oracle declared in
// executor_reference.h.

#include "oracles/executor_reference.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/fault_injection.h"
#include "expr/comp_op.h"
#include "expr/eval.h"
#include "storage/hash_index.h"

namespace eve {

namespace {

// The reference executor is the seed's implementation kept frozen as an
// oracle, so it carries its own FROM resolution and binding construction
// instead of sharing the planner's.
struct ResolvedFrom {
  const FromItem* item;
  const Relation* relation;
  int offset;  // First column of this relation in the joined tuple.
};

Result<std::vector<ResolvedFrom>> ResolveAll(const ViewDefinition& view,
                                             const RelationProvider& provider) {
  std::vector<ResolvedFrom> out;
  int offset = 0;
  for (const FromItem& f : view.from_items) {
    EVE_ASSIGN_OR_RETURN(const Relation* rel,
                         provider.Resolve(f.site, f.relation));
    out.push_back(ResolvedFrom{&f, rel, offset});
    offset += rel->schema().size();
  }
  return out;
}

Result<Binding> MakeBinding(const std::vector<ResolvedFrom>& resolved) {
  Binding binding;
  for (const ResolvedFrom& rf : resolved) {
    const Schema& schema = rf.relation->schema();
    for (int i = 0; i < schema.size(); ++i) {
      EVE_RETURN_IF_ERROR(binding.Register(
          RelAttr{rf.item->name(), schema.attribute(i).name}, rf.offset + i));
    }
  }
  return binding;
}

// An equality clause usable as a hash-join key between the accumulated
// prefix and the relation being joined (reference executor).
struct JoinKey {
  int left_column;   // Column in the accumulated tuple.
  int right_column;  // Column within relation k (0-based inside relation).
};

}  // namespace

// The seed's executor, kept verbatim as the equivalence oracle and the
// benchmark baseline: fixed FROM-order left-deep joins, per-call index
// builds, and full materialization of every intermediate tuple.
Result<Relation> ExecuteViewReference(const ViewDefinition& view,
                                      const RelationProvider& provider,
                                      const ExecOptions& options,
                                      const ExecContext& ctx) {
  EVE_FAULT_POINT("executor.reference");
  ExecGovernor gov(ctx);
  EVE_RETURN_IF_ERROR(view.Validate());
  EVE_ASSIGN_OR_RETURN(std::vector<ResolvedFrom> resolved,
                       ResolveAll(view, provider));
  EVE_ASSIGN_OR_RETURN(Binding binding, MakeBinding(resolved));

  // Partition clauses by the join step at which they become evaluable.
  const int n = static_cast<int>(resolved.size());
  std::vector<std::vector<PrimitiveClause>> step_clauses(n);
  for (const ConditionItem& c : view.where) {
    int last = -1;
    for (const RelAttr& a : c.clause.Attributes()) {
      for (size_t i = 0; i < resolved.size(); ++i) {
        if (resolved[i].item->name() == a.relation) {
          last = std::max(last, static_cast<int>(i));
        }
      }
    }
    if (last < 0) {
      return Status::Internal("clause references no FROM item: " +
                              c.clause.ToString());
    }
    step_clauses[last].push_back(c.clause);
  }

  // Working set: joined tuples over FROM items [0..k].
  std::vector<Tuple> current;
  for (int k = 0; k < n; ++k) {
    const Relation& rel = *resolved[k].relation;
    EVE_ASSIGN_OR_RETURN(std::vector<BoundClause> bound,
                         BindAll(Conjunction(step_clauses[k]), binding));

    // Split this step's clauses into a hash-joinable equality (if any,
    // for k > 0) and residual predicates.
    std::optional<JoinKey> key;
    std::vector<BoundClause> residual;
    for (size_t ci = 0; ci < bound.size(); ++ci) {
      const BoundClause& bc = bound[ci];
      const int lo = resolved[k].offset;
      const int hi = lo + rel.schema().size();
      const bool lhs_in_k = bc.lhs_column >= lo && bc.lhs_column < hi;
      const bool rhs_is_col = bc.rhs_column >= 0;
      const bool rhs_in_k =
          rhs_is_col && bc.rhs_column >= lo && bc.rhs_column < hi;
      if (k > 0 && !key.has_value() && bc.op == CompOp::kEqual && rhs_is_col &&
          lhs_in_k != rhs_in_k) {
        key = lhs_in_k ? JoinKey{bc.rhs_column, bc.lhs_column - lo}
                       : JoinKey{bc.lhs_column, bc.rhs_column - lo};
      } else {
        residual.push_back(bc);
      }
    }

    std::vector<Tuple> next;
    if (k == 0) {
      // Base scan with local selection.
      for (int64_t row = 0; row < rel.cardinality(); ++row) {
        EVE_RETURN_IF_ERROR(gov.Charge());
        Tuple t = rel.TupleAt(row);
        if (EvalAll(bound, t)) next.push_back(std::move(t));
      }
    } else if (key.has_value()) {
      HashIndex index(rel, key->right_column);
      for (const Tuple& acc : current) {
        for (int64_t row : index.Lookup(acc.at(key->left_column))) {
          EVE_RETURN_IF_ERROR(gov.Charge());
          Tuple joined = rel.ConcatRow(acc, row);
          if (EvalAll(residual, joined)) next.push_back(std::move(joined));
        }
      }
    } else {
      // Nested-loop join (cross product + residual predicates).
      for (const Tuple& acc : current) {
        for (int64_t row = 0; row < rel.cardinality(); ++row) {
          EVE_RETURN_IF_ERROR(gov.Charge());
          Tuple joined = rel.ConcatRow(acc, row);
          if (EvalAll(residual, joined)) next.push_back(std::move(joined));
        }
      }
    }
    current = std::move(next);
  }
  // Charge the sub-stride tail so a small input still honors its
  // deadline/budget before results materialize.
  EVE_RETURN_IF_ERROR(gov.Flush());

  // Projection onto the SELECT list.
  std::vector<int> out_columns;
  std::vector<Attribute> out_attrs;
  for (const SelectItem& s : view.select_items) {
    EVE_ASSIGN_OR_RETURN(const int col, binding.Resolve(s.source));
    out_columns.push_back(col);
    // Find the source attribute to copy its type/size.
    const FromItem* f = view.FindFrom(s.source.relation);
    EVE_ASSIGN_OR_RETURN(const Relation* rel,
                         provider.Resolve(f->site, f->relation));
    const auto idx = rel->schema().IndexOf(s.source.attribute);
    if (!idx.has_value()) {
      return Status::NotFound("attribute " + s.source.ToString() +
                              " not in relation " + rel->name());
    }
    Attribute a = rel->schema().attribute(*idx);
    a.name = s.name();
    out_attrs.push_back(std::move(a));
  }

  Relation result(view.name, Schema(std::move(out_attrs)));
  for (const Tuple& t : current) {
    result.InsertUnchecked(t.Project(out_columns));
  }
  return options.distinct ? result.Distinct() : result;
}

}  // namespace eve
