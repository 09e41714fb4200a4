// The seed's eager synchronizer implementation, kept verbatim as the
// equivalence oracle for the copy-on-write delta pipeline
// (src/synch/synchronizer.cc).
// Every strategy here deep-copies the working `Partial` -- including its
// whole ViewDefinition -- once per candidate; the delta pipeline must
// produce byte-identical SynchronizationResults (asserted by the corpus
// equivalence tests), so treat this file as frozen.

#include "oracles/synchronizer_eager.h"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/str_util.h"
#include "synch/legality.h"

namespace eve {

namespace {

// A partially synchronized view: the working definition plus accumulated
// provenance.  Strategies transform partials; for changes affecting several
// FROM items the partials are folded item by item.
struct Partial {
  ViewDefinition def;
  ExtentRel rel = ExtentRel::kEqual;
  bool exact = true;
  std::vector<ReplacementRecord> replacements;
  std::vector<std::string> dropped_attributes;
  std::vector<std::string> dropped_conditions;
  std::vector<std::string> notes;
  std::vector<std::string> strategies;

  void Compose(ExtentRel r, bool r_exact) {
    rel = ComposeExtentRel(rel, r);
    exact = exact && r_exact;
  }
};

Rewriting ToRewriting(Partial p) {
  Rewriting out;
  out.definition = std::move(p.def);
  out.extent_relation = p.rel;
  out.extent_exact = p.exact;
  out.replacements = std::move(p.replacements);
  out.dropped_attributes = std::move(p.dropped_attributes);
  out.dropped_conditions = std::move(p.dropped_conditions);
  out.notes = std::move(p.notes);
  // Deduplicate strategy tags, preserving order.
  std::vector<std::string> tags;
  for (std::string& s : p.strategies) {
    if (std::find(tags.begin(), tags.end(), s) == tags.end()) {
      tags.push_back(std::move(s));
    }
  }
  out.strategy = Join(tags, "+");
  return out;
}

std::string FreshFromName(const ViewDefinition& def, const std::string& base) {
  if (def.FindFrom(base) == nullptr) return base;
  for (int i = 2;; ++i) {
    const std::string candidate = StrFormat("%s_%d", base.c_str(), i);
    if (def.FindFrom(candidate) == nullptr) return candidate;
  }
}

// References (SELECT items / WHERE clauses) of `from_name` within `def`.
struct References {
  std::vector<int> select_indexes;                 // Items sourced from it.
  std::vector<int> where_indexes;                  // Clauses touching it.
  std::set<std::string> attributes;                // Attribute names used.
};

References CollectReferences(const ViewDefinition& def,
                             const std::string& from_name) {
  References out;
  for (size_t i = 0; i < def.select_items.size(); ++i) {
    if (def.select_items[i].source.relation == from_name) {
      out.select_indexes.push_back(static_cast<int>(i));
      out.attributes.insert(def.select_items[i].source.attribute);
    }
  }
  for (size_t i = 0; i < def.where.size(); ++i) {
    if (def.where[i].clause.References(from_name)) {
      out.where_indexes.push_back(static_cast<int>(i));
      for (const RelAttr& a : def.where[i].clause.Attributes()) {
        if (a.relation == from_name) out.attributes.insert(a.attribute);
      }
    }
  }
  return out;
}

// Removes the SELECT items / WHERE clauses at the given indexes, recording
// drops and extent contributions.  A dropped local condition or join
// condition widens the extent (superset); a dropped SELECT item leaves the
// extent on the common attributes untouched.
void ApplyDrops(Partial* p, const std::vector<int>& select_indexes,
                const std::vector<int>& where_indexes) {
  // Erase from the back so indexes stay valid.
  std::vector<int> sel = select_indexes;
  std::sort(sel.rbegin(), sel.rend());
  for (int i : sel) {
    p->dropped_attributes.push_back(p->def.select_items[i].name());
    p->def.select_items.erase(p->def.select_items.begin() + i);
  }
  std::vector<int> whe = where_indexes;
  std::sort(whe.rbegin(), whe.rend());
  for (int i : whe) {
    p->dropped_conditions.push_back(p->def.where[i].clause.ToString());
    p->def.where.erase(p->def.where.begin() + i);
    p->Compose(ExtentRel::kSuperset, /*exact=*/true);
  }
}

class EagerImpl {
 public:
  EagerImpl(const MetaKnowledgeBase& mkb, const SynchronizerOptions& options,
       const ViewDefinition& view, const SchemaChange& change)
      : mkb_(mkb), options_(options), original_(view), change_(change) {}

  Result<SynchronizationResult> Run() {
    SynchronizationResult result;
    EVE_RETURN_IF_ERROR(original_.Validate());

    const RelationId& changed = ChangedRelation(change_);
    const std::vector<std::string> affected_names = AffectedFromNames(changed);

    if (std::holds_alternative<AddAttribute>(change_) ||
        std::holds_alternative<AddRelation>(change_)) {
      return result;  // Additions never invalidate existing views.
    }

    if (const auto* ra = std::get_if<RenameAttribute>(&change_)) {
      bool uses = false;
      for (const std::string& fn : affected_names) {
        const References refs = CollectReferences(original_, fn);
        uses = uses || refs.attributes.count(ra->from) > 0;
      }
      if (!uses) return result;
      result.affected = true;
      result.rewritings.push_back(RenameAttributeRewriting(*ra, affected_names));
      return Finish(std::move(result));
    }

    if (const auto* rr = std::get_if<RenameRelation>(&change_)) {
      if (affected_names.empty()) return result;
      result.affected = true;
      result.rewritings.push_back(RenameRelationRewriting(*rr, affected_names));
      return Finish(std::move(result));
    }

    std::optional<std::string> deleted_attr;
    if (const auto* da = std::get_if<DeleteAttribute>(&change_)) {
      deleted_attr = da->attribute;
    }

    // delete-attribute / delete-relation: fold strategies over the affected
    // FROM items.
    std::vector<std::string> to_fix;
    for (const std::string& fn : affected_names) {
      if (deleted_attr.has_value()) {
        const References refs = CollectReferences(original_, fn);
        if (refs.attributes.count(*deleted_attr) > 0) to_fix.push_back(fn);
      } else {
        to_fix.push_back(fn);
      }
    }
    if (to_fix.empty()) return result;
    result.affected = true;

    Partial seed;
    seed.def = original_;
    std::vector<Partial> partials{std::move(seed)};
    for (const std::string& fn : to_fix) {
      std::vector<Partial> next;
      for (const Partial& p : partials) {
        std::vector<Partial> fixed = ResolveItem(p, fn, deleted_attr);
        next.insert(next.end(), std::make_move_iterator(fixed.begin()),
                    std::make_move_iterator(fixed.end()));
      }
      partials = std::move(next);
      if (partials.empty()) break;
    }
    for (Partial& p : partials) {
      result.rewritings.push_back(ToRewriting(std::move(p)));
    }
    if (options_.enumerate_drop_subsets) EnumerateDropSubsets(&result);
    return Finish(std::move(result));
  }

 private:
  // ---------------------------------------------------------------------
  // Affectedness & renames
  // ---------------------------------------------------------------------

  std::vector<std::string> AffectedFromNames(const RelationId& changed) const {
    std::vector<std::string> out;
    for (const FromItem& f : original_.from_items) {
      if (f.relation != changed.relation) continue;
      if (!f.site.empty() && f.site != changed.site) continue;
      out.push_back(f.name());
    }
    return out;
  }

  Rewriting RenameAttributeRewriting(
      const RenameAttribute& ra,
      const std::vector<std::string>& from_names) const {
    Partial p;
    p.def = original_;
    std::map<RelAttr, RelAttr> subst;
    for (const std::string& fn : from_names) {
      subst[RelAttr{fn, ra.from}] = RelAttr{fn, ra.to};
    }
    for (SelectItem& s : p.def.select_items) {
      const auto it = subst.find(s.source);
      if (it != subst.end()) {
        // Keep the exposed interface name stable across the rename.
        if (s.output_name.empty()) s.output_name = s.source.attribute;
        s.source = it->second;
      }
    }
    for (ConditionItem& c : p.def.where) c.clause = c.clause.Substitute(subst);
    p.strategies.push_back("rename");
    p.notes.push_back("attribute " + ra.from + " renamed to " + ra.to);
    Rewriting out = ToRewriting(std::move(p));
    out.renamed_attributes = subst;
    return out;
  }

  Rewriting RenameRelationRewriting(
      const RenameRelation& rr,
      const std::vector<std::string>& from_names) const {
    Partial p;
    p.def = original_;
    std::map<std::string, std::string> rel_map;
    for (FromItem& f : p.def.from_items) {
      if (f.relation != rr.relation.relation) continue;
      if (!f.site.empty() && f.site != rr.relation.site) continue;
      const std::string old_name = f.name();
      f.relation = rr.new_name;
      if (f.alias.empty()) rel_map[old_name] = rr.new_name;
    }
    for (SelectItem& s : p.def.select_items) {
      const auto it = rel_map.find(s.source.relation);
      if (it != rel_map.end()) s.source.relation = it->second;
    }
    for (ConditionItem& c : p.def.where) {
      c.clause = c.clause.RenameRelations(rel_map);
    }
    (void)from_names;
    p.strategies.push_back("rename");
    p.notes.push_back("relation " + rr.relation.ToString() + " renamed to " +
                      rr.new_name);
    Rewriting out = ToRewriting(std::move(p));
    out.renamed_relations = rel_map;
    return out;
  }

  // ---------------------------------------------------------------------
  // Per-item resolution
  // ---------------------------------------------------------------------

  std::vector<Partial> ResolveItem(const Partial& base,
                                   const std::string& from_name,
                                   const std::optional<std::string>& attr) const {
    std::vector<Partial> out;
    auto append = [&out](std::optional<Partial> p) {
      if (p.has_value()) out.push_back(std::move(*p));
    };
    auto extend = [&out](std::vector<Partial> ps) {
      out.insert(out.end(), std::make_move_iterator(ps.begin()),
                 std::make_move_iterator(ps.end()));
    };

    // Collected once per (partial, FROM item); every strategy below reads
    // the same reference set instead of re-scanning the definition.
    const References refs = CollectReferences(base.def, from_name);

    if (attr.has_value()) {
      append(DropStrategyForAttribute(base, from_name, *attr));
      if (options_.strategies.Has(Strategy::kJoinIn)) {
        extend(JoinInStrategies(base, from_name, *attr));
      }
    } else {
      append(DropStrategyForRelation(base, from_name, refs));
    }
    if (options_.strategies.Has(Strategy::kReplaceRelation)) {
      extend(ReplaceRelationStrategies(base, from_name));
    }
    if (options_.strategies.Has(Strategy::kCvsPair)) {
      extend(CvsPairStrategies(base, from_name, refs));
    }
    return out;
  }

  // --- Drop strategies ---------------------------------------------------

  // delete-attribute: drop exactly the references to from_name.attr.
  std::optional<Partial> DropStrategyForAttribute(const Partial& base,
                                                  const std::string& from_name,
                                                  const std::string& attr) const {
    Partial p = base;
    std::vector<int> sel;
    std::vector<int> whe;
    const RelAttr target{from_name, attr};
    for (size_t i = 0; i < p.def.select_items.size(); ++i) {
      if (p.def.select_items[i].source == target) {
        if (!p.def.select_items[i].dispensable) return std::nullopt;
        sel.push_back(static_cast<int>(i));
      }
    }
    for (size_t i = 0; i < p.def.where.size(); ++i) {
      bool touches = false;
      for (const RelAttr& a : p.def.where[i].clause.Attributes()) {
        if (a == target) touches = true;
      }
      if (touches) {
        if (!p.def.where[i].dispensable) return std::nullopt;
        whe.push_back(static_cast<int>(i));
      }
    }
    if (sel.empty() && whe.empty()) return std::nullopt;
    ApplyDrops(&p, sel, whe);
    if (p.def.select_items.empty()) return std::nullopt;
    MaybeDropUnusedFrom(&p, from_name);
    p.strategies.push_back("drop");
    p.notes.push_back("dropped references to deleted attribute " + from_name +
                      "." + attr);
    return p;
  }

  // delete-relation: drop the FROM item with everything it feeds.
  std::optional<Partial> DropStrategyForRelation(
      const Partial& base, const std::string& from_name,
      const References& refs) const {
    const FromItem* item = base.def.FindFrom(from_name);
    if (item == nullptr || !item->dispensable) return std::nullopt;
    Partial p = base;
    for (int i : refs.select_indexes) {
      if (!p.def.select_items[i].dispensable) return std::nullopt;
    }
    for (int i : refs.where_indexes) {
      if (!p.def.where[i].dispensable) return std::nullopt;
    }
    if (refs.select_indexes.size() >= p.def.select_items.size()) {
      return std::nullopt;  // Would drop every output attribute.
    }
    if (p.def.from_items.size() <= 1) return std::nullopt;
    ApplyDrops(&p, refs.select_indexes, refs.where_indexes);
    std::erase_if(p.def.from_items,
                  [&](const FromItem& f) { return f.name() == from_name; });
    // Removing a (joined) relation widens the extent on common attributes.
    p.Compose(ExtentRel::kSuperset, /*exact=*/true);
    p.strategies.push_back("drop");
    p.notes.push_back("dropped deleted relation " + from_name);
    return p;
  }

  // Drops the FROM item if nothing references it anymore and it is
  // dispensable; a dangling dispensable relation only multiplies tuples.
  void MaybeDropUnusedFrom(Partial* p, const std::string& from_name) const {
    if (p->def.RelationIsUsed(from_name)) return;
    const FromItem* item = p->def.FindFrom(from_name);
    if (item == nullptr || !item->dispensable) return;
    if (p->def.from_items.size() <= 1) return;
    std::erase_if(p->def.from_items,
                  [&](const FromItem& f) { return f.name() == from_name; });
    p->notes.push_back("dropped now-unreferenced relation " + from_name);
    p->Compose(ExtentRel::kSuperset, /*exact=*/true);
  }

  // --- Whole-relation replacement -----------------------------------------

  Result<RelationId> ResolveFromId(const FromItem& item) const {
    if (!item.site.empty()) return RelationId{item.site, item.relation};
    return mkb_.ResolveName(item.relation);
  }

  std::vector<Partial> ReplaceRelationStrategies(
      const Partial& base, const std::string& from_name) const {
    std::vector<Partial> out;
    const FromItem* item = base.def.FindFrom(from_name);
    if (item == nullptr || !item->replaceable) return out;
    const auto id = ResolveFromId(*item);
    if (!id.ok()) return out;
    for (const PcEdge& edge : mkb_.PcEdgesFromTransitive(id.value(), options_.max_pc_hops)) {
      if (edge.target == ChangedRelation(change_)) continue;
      auto p = TryReplaceRelation(base, from_name, edge);
      if (p.has_value()) out.push_back(std::move(*p));
    }
    return out;
  }

  std::optional<Partial> TryReplaceRelation(const Partial& base,
                                            const std::string& from_name,
                                            const PcEdge& edge) const {
    Partial p = base;
    const std::string new_name = FreshFromName(p.def, edge.target.relation);

    // Map / drop SELECT items sourced from the replaced relation.
    std::map<RelAttr, RelAttr> subst;
    std::vector<int> dropped_sel;
    bool anything_mapped = false;
    for (size_t i = 0; i < p.def.select_items.size(); ++i) {
      SelectItem& s = p.def.select_items[i];
      if (s.source.relation != from_name) continue;
      const auto mapped = edge.attribute_map.find(s.source.attribute);
      if (mapped != edge.attribute_map.end() && s.replaceable) {
        subst[s.source] = RelAttr{new_name, mapped->second};
        anything_mapped = true;
      } else if (s.dispensable) {
        dropped_sel.push_back(static_cast<int>(i));
      } else {
        return std::nullopt;  // Indispensable and not substitutable.
      }
    }

    // Map / drop WHERE clauses touching the replaced relation.
    std::vector<int> dropped_whe;
    for (size_t i = 0; i < p.def.where.size(); ++i) {
      ConditionItem& c = p.def.where[i];
      if (!c.clause.References(from_name)) continue;
      bool mappable = c.replaceable;
      for (const RelAttr& a : c.clause.Attributes()) {
        if (a.relation == from_name &&
            edge.attribute_map.count(a.attribute) == 0) {
          mappable = false;
        }
      }
      if (mappable) {
        for (const RelAttr& a : c.clause.Attributes()) {
          if (a.relation == from_name) {
            subst[a] = RelAttr{new_name, edge.attribute_map.at(a.attribute)};
          }
        }
        anything_mapped = true;
      } else if (c.dispensable) {
        dropped_whe.push_back(static_cast<int>(i));
      } else {
        return std::nullopt;
      }
    }
    if (!anything_mapped) return std::nullopt;  // Degenerate: plain drop.

    ApplyDrops(&p, dropped_sel, dropped_whe);
    // Rewrite surviving references.
    for (SelectItem& s : p.def.select_items) {
      const auto it = subst.find(s.source);
      if (it != subst.end()) {
        if (s.output_name.empty()) s.output_name = s.source.attribute;
        s.source = it->second;
      }
    }
    for (ConditionItem& c : p.def.where) c.clause = c.clause.Substitute(subst);

    // Swap the FROM item.
    for (FromItem& f : p.def.from_items) {
      if (f.name() == from_name) {
        f.site = edge.target.site;
        f.relation = edge.target.relation;
        f.alias = new_name == edge.target.relation ? "" : new_name;
        break;
      }
    }

    // Optionally pin the replacement to the constrained fragment.
    const bool target_selected = !edge.target_selection.IsTrue();
    bool applied_selection = false;
    if (target_selected && options_.apply_target_selection) {
      const std::map<std::string, std::string> rel_map{
          {edge.target.relation, new_name}};
      const Conjunction renamed = edge.target_selection.RenameRelations(rel_map);
      for (const PrimitiveClause& clause : renamed.clauses()) {
        ConditionItem ci;
        ci.clause = clause;
        p.def.where.push_back(std::move(ci));
      }
      applied_selection = true;
      p.notes.push_back("added PC fragment condition on " + new_name);
    }

    p.Compose(ReplacementExtentRel(edge, applied_selection),
              ReplacementExtentExact(edge, applied_selection));

    ReplacementRecord record;
    record.replaced = edge.source;
    record.replacement = edge.target;
    record.replaced_from_name = from_name;
    record.replacement_from_name = new_name;
    record.edge = edge;
    record.joined_in = false;
    p.replacements.push_back(std::move(record));
    p.strategies.push_back("replace-relation");
    p.notes.push_back("replaced " + edge.source.ToString() + " by " +
                      edge.target.ToString());
    return p;
  }

  // Extent relationship of a whole-relation replacement (see Fig. 9/10).
  static ExtentRel ReplacementExtentRel(const PcEdge& edge,
                                        bool applied_selection) {
    const bool src_sel = !edge.source_selection.IsTrue();
    const bool dst_sel = !edge.target_selection.IsTrue();
    if (src_sel) return ExtentRel::kUnknown;  // Only a fragment of R is known.
    if (edge.type == PcRelationType::kIncomparable) return ExtentRel::kUnknown;
    // R (whole) relates to the target fragment per the edge type.
    if (!dst_sel || applied_selection) {
      switch (edge.type) {
        case PcRelationType::kSubset:
          return ExtentRel::kSuperset;  // New view uses a bigger relation.
        case PcRelationType::kEquivalent:
          return ExtentRel::kEqual;
        case PcRelationType::kSuperset:
          return ExtentRel::kSubset;
        case PcRelationType::kIncomparable:
          return ExtentRel::kUnknown;
      }
    }
    // Target fragment selected but the view uses all of R2: R rel sigma(R2)
    // and sigma(R2) subseteq R2.
    switch (edge.type) {
      case PcRelationType::kSubset:
      case PcRelationType::kEquivalent:
        return ExtentRel::kSuperset;
      case PcRelationType::kSuperset:
      case PcRelationType::kIncomparable:
        return ExtentRel::kUnknown;
    }
    return ExtentRel::kUnknown;
  }

  static bool ReplacementExtentExact(const PcEdge& edge, bool applied_selection) {
    if (edge.type == PcRelationType::kIncomparable) return false;
    const bool src_sel = !edge.source_selection.IsTrue();
    if (src_sel) return false;
    const bool dst_sel = !edge.target_selection.IsTrue();
    if (!dst_sel || applied_selection) return true;
    return edge.type != PcRelationType::kSuperset;
  }

  // --- Join-in replacement (attribute-level) -------------------------------

  std::vector<Partial> JoinInStrategies(const Partial& base,
                                        const std::string& from_name,
                                        const std::string& attr) const {
    std::vector<Partial> out;
    const FromItem* item = base.def.FindFrom(from_name);
    if (item == nullptr) return out;
    const auto id = ResolveFromId(*item);
    if (!id.ok()) return out;

    // Every SELECT item losing the attribute must be replaceable; clauses
    // must be replaceable or dispensable (checked in TryJoinIn).
    for (const PcEdge& edge : mkb_.PcEdgesFromTransitive(id.value(), options_.max_pc_hops)) {
      if (edge.attribute_map.count(attr) == 0) continue;
      if (edge.target == id.value()) continue;
      const auto jcs = mkb_.FindJoinConstraints(id.value(), edge.target);
      for (const JoinConstraint* jc : jcs) {
        auto p = TryJoinIn(base, from_name, attr, edge, *jc);
        if (p.has_value()) out.push_back(std::move(*p));
      }
    }
    return out;
  }

  std::optional<Partial> TryJoinIn(const Partial& base,
                                   const std::string& from_name,
                                   const std::string& attr, const PcEdge& edge,
                                   const JoinConstraint& jc) const {
    // The join constraint must not itself use the deleted attribute.
    for (const RelAttr& a : jc.condition.Attributes()) {
      if (a.relation == edge.source.relation && a.attribute == attr) {
        return std::nullopt;
      }
    }
    Partial p = base;
    const std::string new_name = FreshFromName(p.def, edge.target.relation);
    const RelAttr lost{from_name, attr};
    const RelAttr found{new_name, edge.attribute_map.at(attr)};

    bool anything = false;
    for (SelectItem& s : p.def.select_items) {
      if (s.source == lost) {
        if (!s.replaceable) return std::nullopt;
        if (s.output_name.empty()) s.output_name = s.source.attribute;
        s.source = found;
        anything = true;
      }
    }
    std::vector<int> dropped_whe;
    const std::map<RelAttr, RelAttr> subst{{lost, found}};
    for (size_t i = 0; i < p.def.where.size(); ++i) {
      ConditionItem& c = p.def.where[i];
      bool touches = false;
      for (const RelAttr& a : c.clause.Attributes()) {
        if (a == lost) touches = true;
      }
      if (!touches) continue;
      if (c.replaceable) {
        c.clause = c.clause.Substitute(subst);
        anything = true;
      } else if (c.dispensable) {
        dropped_whe.push_back(static_cast<int>(i));
      } else {
        return std::nullopt;
      }
    }
    if (!anything) return std::nullopt;
    ApplyDrops(&p, {}, dropped_whe);

    // Join the auxiliary relation in via the JC.
    FromItem aux;
    aux.site = edge.target.site;
    aux.relation = edge.target.relation;
    aux.alias = new_name == edge.target.relation ? "" : new_name;
    aux.dispensable = false;
    aux.replaceable = true;
    p.def.from_items.push_back(std::move(aux));

    const std::map<std::string, std::string> rel_map{
        {edge.source.relation, from_name}, {edge.target.relation, new_name}};
    const Conjunction renamed_jc = jc.condition.RenameRelations(rel_map);
    for (const PrimitiveClause& clause : renamed_jc.clauses()) {
      ConditionItem ci;
      ci.clause = clause;
      ci.replaceable = true;
      p.def.where.push_back(std::move(ci));
    }

    // Extent estimate: with the lost fragment contained in the target
    // fragment, every surviving tuple recovers its attribute -> equal (but
    // inexact, as value-level agreement rests on the JC being key-based).
    switch (edge.type) {
      case PcRelationType::kSubset:
      case PcRelationType::kEquivalent:
        p.Compose(ExtentRel::kEqual, /*exact=*/false);
        break;
      case PcRelationType::kSuperset:
        p.Compose(ExtentRel::kSubset, /*exact=*/false);
        break;
      case PcRelationType::kIncomparable:
        p.Compose(ExtentRel::kUnknown, /*exact=*/false);
        break;
    }

    ReplacementRecord record;
    record.replaced = edge.source;
    record.replacement = edge.target;
    record.replaced_from_name = from_name;
    record.replacement_from_name = new_name;
    record.edge = edge;
    record.joined_in = true;
    p.replacements.push_back(std::move(record));
    p.strategies.push_back("join-in");
    p.notes.push_back("recovered " + from_name + "." + attr + " from " +
                      edge.target.ToString() + " via " + jc.ToString());
    return p;
  }

  // --- Complex (CVS-style) pair substitution -------------------------------

  std::vector<Partial> CvsPairStrategies(const Partial& base,
                                         const std::string& from_name,
                                         const References& refs) const {
    std::vector<Partial> out;
    const FromItem* item = base.def.FindFrom(from_name);
    if (item == nullptr || !item->replaceable) return out;
    const auto id = ResolveFromId(*item);
    if (!id.ok()) return out;
    const std::vector<PcEdge>& edges =
        mkb_.PcEdgesFromTransitive(id.value(), options_.max_pc_hops);
    for (size_t i = 0; i < edges.size(); ++i) {
      for (size_t j = 0; j < edges.size(); ++j) {
        if (i == j) continue;
        const PcEdge& e1 = edges[i];
        const PcEdge& e2 = edges[j];
        if (e1.target == e2.target) continue;
        if (e1.target == ChangedRelation(change_) ||
            e2.target == ChangedRelation(change_)) {
          continue;
        }
        const auto jcs = mkb_.FindJoinConstraints(e1.target, e2.target);
        for (const JoinConstraint* jc : jcs) {
          auto p = TryCvsPair(base, from_name, refs, e1, e2, *jc);
          if (p.has_value()) out.push_back(std::move(*p));
        }
      }
    }
    return out;
  }

  std::optional<Partial> TryCvsPair(const Partial& base,
                                    const std::string& from_name,
                                    const References& refs, const PcEdge& e1,
                                    const PcEdge& e2,
                                    const JoinConstraint& jc) const {
    Partial p = base;
    const std::string name1 = FreshFromName(p.def, e1.target.relation);
    // Reserve name1 before computing name2 (relations could share names
    // only across sites; FreshFromName needs the updated def, so fake it).
    const std::string name2 =
        e2.target.relation == name1
            ? FreshFromName(p.def, e2.target.relation + "_b")
            : FreshFromName(p.def, e2.target.relation);

    // Per-attribute target choice: prefer e1, fall back to e2.  The records
    // carry reduced maps so the legality oracle sees a consistent picture.
    std::map<std::string, RelAttr> merged;
    std::map<std::string, std::string> used1;
    std::map<std::string, std::string> used2;
    for (const std::string& a : refs.attributes) {
      if (const auto it = e1.attribute_map.find(a); it != e1.attribute_map.end()) {
        merged[a] = RelAttr{name1, it->second};
        used1[a] = it->second;
      } else if (const auto it2 = e2.attribute_map.find(a);
                 it2 != e2.attribute_map.end()) {
        merged[a] = RelAttr{name2, it2->second};
        used2[a] = it2->second;
      }
    }
    if (used1.empty() || used2.empty()) {
      return std::nullopt;  // One relation suffices: not a pair substitution.
    }

    std::map<RelAttr, RelAttr> subst;
    std::vector<int> dropped_sel;
    for (size_t i = 0; i < p.def.select_items.size(); ++i) {
      SelectItem& s = p.def.select_items[i];
      if (s.source.relation != from_name) continue;
      const auto it = merged.find(s.source.attribute);
      if (it != merged.end() && s.replaceable) {
        subst[s.source] = it->second;
      } else if (s.dispensable) {
        dropped_sel.push_back(static_cast<int>(i));
      } else {
        return std::nullopt;
      }
    }
    std::vector<int> dropped_whe;
    for (size_t i = 0; i < p.def.where.size(); ++i) {
      ConditionItem& c = p.def.where[i];
      if (!c.clause.References(from_name)) continue;
      bool mappable = c.replaceable;
      for (const RelAttr& a : c.clause.Attributes()) {
        if (a.relation == from_name && merged.count(a.attribute) == 0) {
          mappable = false;
        }
      }
      if (mappable) {
        for (const RelAttr& a : c.clause.Attributes()) {
          if (a.relation == from_name) subst[a] = merged.at(a.attribute);
        }
      } else if (c.dispensable) {
        dropped_whe.push_back(static_cast<int>(i));
      } else {
        return std::nullopt;
      }
    }
    ApplyDrops(&p, dropped_sel, dropped_whe);
    for (SelectItem& s : p.def.select_items) {
      const auto it = subst.find(s.source);
      if (it != subst.end()) {
        if (s.output_name.empty()) s.output_name = s.source.attribute;
        s.source = it->second;
      }
    }
    for (ConditionItem& c : p.def.where) c.clause = c.clause.Substitute(subst);

    // Replace the FROM item by the first target; append the second.
    for (FromItem& f : p.def.from_items) {
      if (f.name() == from_name) {
        f.site = e1.target.site;
        f.relation = e1.target.relation;
        f.alias = name1 == e1.target.relation ? "" : name1;
        break;
      }
    }
    FromItem second;
    second.site = e2.target.site;
    second.relation = e2.target.relation;
    second.alias = name2 == e2.target.relation ? "" : name2;
    second.replaceable = true;
    p.def.from_items.push_back(std::move(second));

    const std::map<std::string, std::string> rel_map{
        {e1.target.relation, name1}, {e2.target.relation, name2}};
    const Conjunction renamed_jc = jc.condition.RenameRelations(rel_map);
    for (const PrimitiveClause& clause : renamed_jc.clauses()) {
      ConditionItem ci;
      ci.clause = clause;
      ci.replaceable = true;
      p.def.where.push_back(std::move(ci));
    }

    const bool both_equivalent = e1.type == PcRelationType::kEquivalent &&
                                 e2.type == PcRelationType::kEquivalent &&
                                 e1.source_selection.IsTrue() &&
                                 e2.source_selection.IsTrue() &&
                                 e1.target_selection.IsTrue() &&
                                 e2.target_selection.IsTrue();
    p.Compose(both_equivalent ? ExtentRel::kEqual : ExtentRel::kUnknown,
              /*exact=*/false);

    for (const auto& [edge, used, nm] :
         {std::tuple<const PcEdge*, const std::map<std::string, std::string>*,
                     const std::string*>{&e1, &used1, &name1},
          {&e2, &used2, &name2}}) {
      ReplacementRecord record;
      record.replaced = edge->source;
      record.replacement = edge->target;
      record.replaced_from_name = from_name;
      record.replacement_from_name = *nm;
      record.edge = *edge;
      record.edge.attribute_map =
          std::map<std::string, std::string>(used->begin(), used->end());
      record.joined_in = false;
      p.replacements.push_back(std::move(record));
    }
    p.strategies.push_back("cvs-pair");
    p.notes.push_back("replaced " + from_name + " by join of " +
                      e1.target.ToString() + " and " + e2.target.ToString());
    return p;
  }

  // --- Post-processing ------------------------------------------------------

  void EnumerateDropSubsets(SynchronizationResult* result) const {
    std::vector<Rewriting> extra;
    for (const Rewriting& rw : result->rewritings) {
      std::vector<int> droppable;
      for (size_t i = 0; i < rw.definition.select_items.size(); ++i) {
        if (rw.definition.select_items[i].dispensable) {
          droppable.push_back(static_cast<int>(i));
        }
      }
      const int n = static_cast<int>(droppable.size());
      if (n == 0 || n > 10) continue;
      for (int mask = 1; mask < (1 << n); ++mask) {
        Rewriting variant = rw;
        std::vector<int> to_drop;
        for (int b = 0; b < n; ++b) {
          if (mask & (1 << b)) to_drop.push_back(droppable[b]);
        }
        if (to_drop.size() >= rw.definition.select_items.size()) continue;
        std::sort(to_drop.rbegin(), to_drop.rend());
        for (int i : to_drop) {
          variant.dropped_attributes.push_back(
              variant.definition.select_items[i].name());
          variant.definition.select_items.erase(
              variant.definition.select_items.begin() + i);
        }
        variant.strategy += "+drop-subset";
        extra.push_back(std::move(variant));
      }
    }
    result->rewritings.insert(result->rewritings.end(),
                              std::make_move_iterator(extra.begin()),
                              std::make_move_iterator(extra.end()));
  }

  Result<SynchronizationResult> Finish(SynchronizationResult result) const {
    // Keep only legal rewritings, dedupe structurally, cap.  Candidates are
    // bucketed by StructuralHash and compared with StructurallyEqual inside
    // a bucket, so dedup needs no string rendering and survives hash
    // collisions.
    std::vector<Rewriting> kept;
    std::unordered_map<size_t, std::vector<size_t>> buckets;
    for (Rewriting& rw : result.rewritings) {
      if (!CheckLegality(original_, rw).ok()) continue;
      const size_t hash = StructuralHash(rw.definition);
      std::vector<size_t>& bucket = buckets[hash];
      const bool duplicate =
          std::any_of(bucket.begin(), bucket.end(), [&](size_t i) {
            return StructurallyEqual(kept[i].definition, rw.definition);
          });
      if (duplicate) continue;
      bucket.push_back(kept.size());
      kept.push_back(std::move(rw));
      if (static_cast<int>(kept.size()) >= options_.max_rewritings) break;
    }
    result.rewritings = std::move(kept);
    return result;
  }

  const MetaKnowledgeBase& mkb_;
  const SynchronizerOptions& options_;
  const ViewDefinition& original_;
  const SchemaChange& change_;
};

}  // namespace

namespace internal {

Result<SynchronizationResult> SynchronizeEager(const MetaKnowledgeBase& mkb,
                                               const SynchronizerOptions& options,
                                               const ViewDefinition& view,
                                               const SchemaChange& change) {
  return EagerImpl(mkb, options, view, change).Run();
}

}  // namespace internal

}  // namespace eve
