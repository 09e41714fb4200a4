#include "policy/policy.h"

#include <algorithm>
#include <set>
#include <variant>
#include <vector>

#include "common/str_util.h"
#include "misd/overlap_estimator.h"

namespace eve {

std::string_view PolicyModeToString(PolicyMode mode) {
  switch (mode) {
    case PolicyMode::kExhaustive:
      return "exhaustive";
    case PolicyMode::kBalanced:
      return "balanced";
    case PolicyMode::kLatencyBound:
      return "latency_bound";
  }
  return "?";
}

std::string_view PolicyActionToString(PolicyAction action) {
  switch (action) {
    case PolicyAction::kFull:
      return "full";
    case PolicyAction::kCap:
      return "cap";
    case PolicyAction::kSkipUnaffected:
      return "skip-unaffected";
    case PolicyAction::kSkipDead:
      return "skip-dead";
  }
  return "?";
}

PolicyStats& PolicyStats::operator+=(const PolicyStats& other) {
  decisions += other.decisions;
  full += other.full;
  capped += other.capped;
  skipped_unaffected += other.skipped_unaffected;
  skipped_dead += other.skipped_dead;
  candidates_considered += other.candidates_considered;
  candidates_ranked += other.candidates_ranked;
  return *this;
}

std::string PolicyStats::ToString() const {
  return StrFormat(
      "policy: %lld decisions (%lld full, %lld capped, %lld skip-unaffected, "
      "%lld skip-dead), %lld candidates considered, %lld ranked",
      static_cast<long long>(decisions), static_cast<long long>(full),
      static_cast<long long>(capped),
      static_cast<long long>(skipped_unaffected),
      static_cast<long long>(skipped_dead),
      static_cast<long long>(candidates_considered),
      static_cast<long long>(candidates_ranked));
}

namespace {

// References of one FROM item within a view definition, mirroring the
// synchronizer's CollectReferences but over the plain AST (the decision
// runs before any overlay exists).
struct ItemRefs {
  std::set<std::string> attributes;
  // Blockers of the drop strategies (monotone across fold rounds; see the
  // header comment).
  bool any_indispensable_select = false;
  bool any_indispensable_where = false;
  bool all_select_replaceable = true;
  bool all_where_substitutable = true;  ///< replaceable or dispensable.
  int select_refs = 0;
};

ItemRefs CollectItemRefs(const ViewDefinition& view,
                         const std::string& from_name) {
  ItemRefs out;
  for (const SelectItem& s : view.select_items) {
    if (s.source.relation != from_name) continue;
    out.attributes.insert(s.source.attribute);
    ++out.select_refs;
    if (!s.dispensable) out.any_indispensable_select = true;
    if (!s.replaceable) out.all_select_replaceable = false;
  }
  for (const ConditionItem& c : view.where) {
    if (!c.clause.References(from_name)) continue;
    for (const RelAttr& a : c.clause.Attributes()) {
      if (a.relation == from_name) out.attributes.insert(a.attribute);
    }
    if (!c.dispensable) out.any_indispensable_where = true;
    if (!c.replaceable && !c.dispensable) out.all_where_substitutable = false;
  }
  return out;
}

// References to one specific attribute of a FROM item (delete-attribute).
struct AttrRefs {
  int select_refs = 0;
  bool referenced = false;
  bool any_indispensable = false;
};

AttrRefs CollectAttrRefs(const ViewDefinition& view,
                         const std::string& from_name,
                         const std::string& attr) {
  AttrRefs out;
  const RelAttr target{from_name, attr};
  for (const SelectItem& s : view.select_items) {
    if (s.source != target) continue;
    out.referenced = true;
    ++out.select_refs;
    if (!s.dispensable) out.any_indispensable = true;
  }
  for (const ConditionItem& c : view.where) {
    bool touches = false;
    for (const RelAttr& a : c.clause.Attributes()) {
      if (a == target) touches = true;
    }
    if (!touches) continue;
    out.referenced = true;
    if (!c.dispensable) out.any_indispensable = true;
  }
  return out;
}

}  // namespace

PolicyEngine::PolicyEngine(const MetaKnowledgeBase& mkb,
                           const PolicyConfig& config,
                           const SynchronizerOptions& base)
    : mkb_(mkb), config_(config), base_(base) {}

PolicyDecision PolicyEngine::Decide(const ViewDefinition& view,
                                    const SchemaChange& change) const {
  PolicyDecision decision;
  decision.options = base_;
  if (config_.mode == PolicyMode::kExhaustive) return decision;

  // Additions never invalidate existing views (the synchronizer returns
  // unaffected before looking at the view at all).
  if (std::holds_alternative<AddAttribute>(change) ||
      std::holds_alternative<AddRelation>(change)) {
    decision.action = PolicyAction::kSkipUnaffected;
    decision.reason = "addition";
    return decision;
  }

  const RelationId& changed = ChangedRelation(change);
  std::vector<const FromItem*> affected;
  for (const FromItem& f : view.from_items) {
    if (f.relation != changed.relation) continue;
    if (!f.site.empty() && f.site != changed.site) continue;
    affected.push_back(&f);
  }
  if (affected.empty()) {
    decision.action = PolicyAction::kSkipUnaffected;
    decision.reason = "no affected FROM item";
    return decision;
  }

  // Renames always synchronize transparently via a single candidate; the
  // only savings is the unreferenced-attribute case.
  if (const auto* ra = std::get_if<RenameAttribute>(&change)) {
    bool uses = false;
    for (const FromItem* f : affected) {
      uses = uses || CollectAttrRefs(view, f->name(), ra->from).referenced;
    }
    if (!uses) {
      decision.action = PolicyAction::kSkipUnaffected;
      decision.reason = "renamed attribute unreferenced";
    }
    return decision;
  }
  if (std::holds_alternative<RenameRelation>(change)) {
    return decision;  // kFull; a rename is one cheap candidate.
  }

  const auto* da = std::get_if<DeleteAttribute>(&change);

  // The memoized transitive-closure reachability check, shared by the
  // skip-dead and cap pre-checks.  A FROM item with an unresolvable name
  // behaves like one with an empty closure: every discovery strategy bails
  // on it (ResolveFromId fails before any edge is read).
  auto closure_of = [&](const FromItem& f) -> const std::vector<PcEdge>* {
    RelationId id;
    if (!f.site.empty()) {
      id = RelationId{f.site, f.relation};
    } else {
      auto resolved = mkb_.ResolveName(f.relation);
      if (!resolved.ok()) return nullptr;
      id = *resolved;
    }
    return &mkb_.PcEdgesFromTransitive(id, base_.max_pc_hops);
  };
  auto usable_closure_empty = [&](const FromItem& f) {
    const std::vector<PcEdge>* edges = closure_of(f);
    if (edges == nullptr || edges->empty()) return true;
    return std::all_of(edges->begin(), edges->end(), [&](const PcEdge& e) {
      return e.target == changed;
    });
  };

  if (da != nullptr) {
    // delete-attribute: affected iff some item references the attribute.
    bool referenced = false;
    bool provably_dead = false;
    for (const FromItem* f : affected) {
      const AttrRefs refs = CollectAttrRefs(view, f->name(), da->attribute);
      if (!refs.referenced) continue;
      referenced = true;
      // Drop blocked: an indispensable reference, or dropping the refs
      // would empty the SELECT list.  Both blockers are monotone.  With an
      // empty closure neither join-in nor replacement nor CVS can recover
      // the attribute, so the fold round for this item kills every partial.
      const bool drop_blocked =
          refs.any_indispensable ||
          refs.select_refs >= static_cast<int>(view.select_items.size());
      if (drop_blocked && usable_closure_empty(*f)) provably_dead = true;
    }
    if (!referenced) {
      decision.action = PolicyAction::kSkipUnaffected;
      decision.reason = "deleted attribute unreferenced";
      return decision;
    }
    if (provably_dead) {
      decision.action = PolicyAction::kSkipDead;
      decision.reason = "indispensable reference with empty PC closure";
      return decision;
    }
  } else {
    // delete-relation.
    bool provably_dead = false;
    for (const FromItem* f : affected) {
      const ItemRefs refs = CollectItemRefs(view, f->name());
      const bool drop_blocked =
          !f->dispensable || refs.any_indispensable_select ||
          refs.any_indispensable_where ||
          refs.select_refs >= static_cast<int>(view.select_items.size()) ||
          view.from_items.size() <= 1;
      // Join-in never applies to relation deletion; replace-relation and
      // CVS pairs both require a replaceable item and a non-empty closure.
      if (drop_blocked && (!f->replaceable || usable_closure_empty(*f))) {
        provably_dead = true;
      }
    }
    if (provably_dead) {
      decision.action = PolicyAction::kSkipDead;
      decision.reason = "no strategy applicable (drop blocked, closure empty)";
      return decision;
    }
  }

  // Cap pre-check: when EVERY affected item is known to admit an exact
  // equivalent whole-relation replacement covering all referenced
  // attributes, the quadratic CVS pair fan-out is dominated (a two-way
  // join can at best match the single equivalent's divergence at a higher
  // maintenance cost) and the enumeration cap can tighten.
  if (!base_.strategies.Has(Strategy::kCvsPair)) return decision;
  const bool cvs_dominated = std::all_of(
      affected.begin(), affected.end(), [&](const FromItem* f) {
        if (!f->replaceable) return false;
        const ItemRefs refs = CollectItemRefs(view, f->name());
        if (!refs.all_select_replaceable || !refs.all_where_substitutable) {
          return false;
        }
        const std::vector<PcEdge>* edges = closure_of(*f);
        if (edges == nullptr) return false;
        // Attribute-coverage bitset over the referenced attributes (the
        // same idiom as the synchronizer's CVS precheck); wider views fall
        // back to the direct set test.
        std::vector<const std::string*> attrs;
        attrs.reserve(refs.attributes.size());
        for (const std::string& a : refs.attributes) attrs.push_back(&a);
        const bool bitset = attrs.size() <= 64;
        const uint64_t full_mask =
            attrs.size() >= 64 ? ~uint64_t{0}
                               : ((uint64_t{1} << attrs.size()) - 1);
        for (const PcEdge& edge : *edges) {
          if (edge.type != PcRelationType::kEquivalent) continue;
          if (edge.target == changed) continue;
          bool covers;
          if (bitset) {
            uint64_t bits = 0;
            uint64_t bit = 1;
            for (const std::string* a : attrs) {
              if (edge.attribute_map.count(*a) > 0) bits |= bit;
              bit <<= 1;
            }
            covers = bits == full_mask;
          } else {
            covers = std::all_of(attrs.begin(), attrs.end(),
                                 [&](const std::string* a) {
                                   return edge.attribute_map.count(*a) > 0;
                                 });
          }
          if (!covers) continue;
          // The covering edge's overlap estimate must be exact (Fig. 9's
          // asterisked cases stay full).
          const auto overlap = EstimateIntersection(mkb_, edge);
          if (!overlap.ok() || !overlap->exact) continue;
          return true;
        }
        return false;
      });
  if (cvs_dominated) {
    decision.action = PolicyAction::kCap;
    decision.reason = "exact equivalent covering replacement exists";
    decision.options.strategies =
        base_.strategies.Without(Strategy::kCvsPair);
    decision.options.max_rewritings =
        std::min(base_.max_rewritings, config_.cap_max_rewritings);
  }
  return decision;
}

}  // namespace eve
