#include "eve/eve_system.h"

#include "common/fault_injection.h"
#include "common/parallel.h"
#include "common/str_util.h"
#include "esql/constraint_parser.h"
#include "esql/parser.h"
#include "esql/printer.h"

namespace eve {

std::string ViewSynchronizationReport::ToString() const {
  std::string out = "view " + view_name + ": ";
  if (!affected) {
    out += "unaffected";
    // The annotation prints only for selective policy decisions, so
    // exhaustive-mode reports stay byte-identical to the seed's.
    if (policy_action == PolicyAction::kSkipUnaffected) {
      out += " [policy: skip-unaffected]";
    }
    return out;
  }
  out += std::string(ViewStateToString(resulting_state));
  // Only governed runs can truncate, so ungoverned reports are unchanged.
  if (truncated) out += " [truncated]";
  if (policy_action == PolicyAction::kSkipDead) {
    out += " [policy: skip-dead]";
  } else if (policy_action == PolicyAction::kCap) {
    out += " [policy: cap]";
  }
  if (!ranking.empty()) {
    out += StrFormat(" (%d legal rewritings)\n",
                     static_cast<int>(ranking.size()));
    out += QcModel::FormatRanking(ranking);
    out += "adopted: " + adopted;
  }
  return out;
}

std::string ChangeReport::ToString() const {
  std::string out = "=== " + change + " ===\n";
  for (const ViewSynchronizationReport& r : views) out += r.ToString() + "\n";
  if (mkb_constraints_dropped > 0) {
    out += StrFormat("(MKB dropped %d constraints)\n", mkb_constraints_dropped);
  }
  return out;
}

EveSystem::EveSystem(EveOptions options) : options_(std::move(options)) {
  // Epoch 1 exists from birth so snapshots().Current() is never null; an
  // empty space is a perfectly valid (empty) snapshot.  Fault injection is
  // per-site armed state, so this cannot fail outside armed tests; a
  // failure here simply leaves the publisher stale until the first
  // successful mutation publish.
  (void)PublishSnapshot();
}

Status EveSystem::PublishSnapshot() {
  if (snapshot_batch_depth_ > 0) {
    // Bulk load in progress: remember that an epoch is owed and let the
    // closing SnapshotBatch publish once for the whole batch.
    snapshot_batch_dirty_ = true;
    return Status::OK();
  }
  // The fault point sits BEFORE the capture/swap: an injected failure
  // leaves the previous epoch fully intact (nothing half-swapped), the
  // triggering mutation committed, and the publisher marked stale so
  // callers know Current() lags the live space.
  const Status faulted = [&]() -> Status {
    EVE_FAULT_POINT("eve.snapshot_swap");
    return Status::OK();
  }();
  if (!faulted.ok()) {
    publisher_.MarkStale();
    return faulted;
  }
  publisher_.Publish(SystemSnapshot::Capture(space_, &vkb_));
  return Status::OK();
}

Status EveSystem::RefreshSnapshot() { return PublishSnapshot(); }

Status EveSystem::RegisterRelation(const std::string& site, Relation relation,
                                   double local_selectivity) {
  EVE_RETURN_IF_ERROR(space_.AddRelation(site, std::move(relation), &mkb_,
                                         local_selectivity));
  (void)PublishSnapshot();  // Failure degrades to a stale epoch, not an error.
  return Status::OK();
}

Status EveSystem::AddJoinConstraint(JoinConstraint jc) {
  return mkb_.AddJoinConstraint(std::move(jc));
}

Status EveSystem::AddPcConstraint(PcConstraint pc) {
  return mkb_.AddPcConstraint(std::move(pc));
}

Status EveSystem::DeclareConstraint(const std::string& text) {
  return eve::DeclareConstraint(text, &mkb_);
}

void EveSystem::SetJoinSelectivity(double js) {
  mkb_.stats().set_join_selectivity(js);
}

Status EveSystem::DefineView(const std::string& esql_text) {
  EVE_ASSIGN_OR_RETURN(ViewDefinition def, ParseViewDefinition(esql_text));
  return DefineView(std::move(def));
}

Status EveSystem::DefineView(ViewDefinition definition) {
  const std::string name = definition.name;
  EVE_RETURN_IF_ERROR(vkb_.Define(std::move(definition)));
  if (options_.materialize) {
    const Status status = Materialize(name);
    if (!status.ok()) {
      // Roll back the registration so a failed definition leaves no trace.
      (void)vkb_.Drop(name);
      return status;
    }
  }
  (void)PublishSnapshot();
  return Status::OK();
}

Status EveSystem::Materialize(const std::string& view_name) {
  // Before the recompute: a fault here leaves the previous extent intact.
  EVE_FAULT_POINT("eve.materialize");
  EVE_ASSIGN_OR_RETURN(const ViewEntry* entry, vkb_.Get(view_name));
  ViewMaintainer maintainer(space_, options_.maintainer, &plan_cache_);
  EVE_ASSIGN_OR_RETURN(Relation extent,
                       maintainer.Recompute(entry->definition, ExecCtx()));
  return vkb_.SetExtent(view_name, std::move(extent));
}

Result<ViewDefinition> EveSystem::GetViewDefinition(
    const std::string& name) const {
  EVE_ASSIGN_OR_RETURN(const ViewEntry* entry, vkb_.Get(name));
  return entry->definition;
}

Result<ViewState> EveSystem::GetViewState(const std::string& name) const {
  EVE_ASSIGN_OR_RETURN(const ViewEntry* entry, vkb_.Get(name));
  return entry->state;
}

Result<Relation> EveSystem::GetViewExtent(const std::string& name) const {
  EVE_ASSIGN_OR_RETURN(const ViewEntry* entry, vkb_.Get(name));
  if (entry->state == ViewState::kDead) {
    return Status::FailedPrecondition("view " + name + " is dead");
  }
  if (!entry->materialized) {
    return Status::FailedPrecondition("view " + name + " is not materialized");
  }
  // Set semantics for consumers; the stored extent is a bag of derivations.
  return entry->extent.Distinct();
}

Result<const ViewEntry*> EveSystem::GetViewEntry(const std::string& name) const {
  return vkb_.Get(name);
}

Result<ChangeReport> EveSystem::NotifySchemaChange(const SchemaChange& change) {
  ChangeReport report;
  report.change = SchemaChangeToString(change);

  // 1. Affected views.  Site resolution uses the space's cached name map,
  // rebuilt only after relation-level changes instead of rescanning every
  // source on every notification.
  const auto site_of = space_.RelationSiteMap();
  const std::vector<std::string> candidates =
      vkb_.ViewsReferencing(ChangedRelation(change), *site_of);

  // 2-3. Synchronize against the PRE-change MKB and rank.  The per-view
  // work is read-only and independent (the MKB memos are mutex-populated),
  // so it runs under ParallelFor into fixed outcome slots; the serial
  // assembly below walks the slots in candidate order, which keeps the
  // report byte-identical to the serial loop regardless of thread count.
  QcModel model(options_.qc, options_.cost, options_.workload);
  // The selective policy decides skip / cap / full per (change, view) pair
  // BEFORE any enumeration.  In exhaustive mode Decide returns kFull
  // unconditionally with the base options, so enumeration is the seed's.
  const PolicyEngine policy_engine(mkb_, options_.policy,
                                   options_.synchronizer);
  struct Outcome {
    ViewSynchronizationReport view_report;
    bool dead = false;
    ViewDefinition chosen;  ///< The adopted definition (affected && !dead).
    PolicyAction action = PolicyAction::kFull;
    int64_t considered = 0;  ///< Enumeration work spent on this view.
  };
  std::vector<Outcome> outcomes(candidates.size());

  const auto synchronize_one = [&](int64_t index) -> Status {
    const std::string& view_name = candidates[index];
    Outcome& out = outcomes[index];
    EVE_ASSIGN_OR_RETURN(const ViewEntry* entry, vkb_.Get(view_name));
    ViewSynchronizationReport& view_report = out.view_report;
    view_report.view_name = view_name;

    const PolicyDecision decision =
        policy_engine.Decide(entry->definition, change);
    out.action = decision.action;
    view_report.policy_action = decision.action;
    if (decision.action == PolicyAction::kSkipUnaffected) {
      view_report.affected = false;
      return Status::OK();
    }
    if (decision.action == PolicyAction::kSkipDead) {
      view_report.affected = true;
      view_report.resulting_state = ViewState::kDead;
      out.dead = true;
      return Status::OK();
    }

    // Candidates stay as (base, op-log) pairs through scoring; only the
    // ranked output and the adopted definition ever materialize.  The
    // decision's options are the base options, tightened (strategy set /
    // result cap) for a cap; the per-pair synchronizer only captures them.
    const ViewSynchronizer synchronizer(mkb_, decision.options);
    EVE_ASSIGN_OR_RETURN(
        CandidateSynchronizationResult sync,
        synchronizer.SynchronizeCandidates(entry->definition, change,
                                           ExecCtx()));
    const bool affected = sync.affected;
    const bool truncated = sync.truncated;
    out.considered = sync.candidates_considered;
    // A truncated empty result proves nothing: the view may well have
    // rewritings the budget never reached, so death is only declared from
    // a COMPLETE enumeration (checked below).
    const bool dead = affected && sync.candidates.empty() && !truncated;
    ViewDefinition first_legal;
    if (!dead && affected && !sync.candidates.empty()) {
      if (options_.adopt_first_legal) {
        first_legal = sync.candidates.front().Definition();
      }
      EVE_ASSIGN_OR_RETURN(view_report.ranking,
                           model.RankCandidates(entry->definition,
                                                std::move(sync.candidates),
                                                mkb_));
    }
    if (affected && truncated && view_report.ranking.empty() &&
        first_legal.name.empty()) {
      // Neither adoption nor death can be decided for this view; fail the
      // whole change BEFORE any state mutation (steps 4-5 have not run).
      return Status::ResourceExhausted(
          "synchronization of view " + view_name +
          " was cut off before any legal rewriting was found (" +
          sync.truncation_reason +
          "); raise the budget/deadline and renotify");
    }

    view_report.affected = affected;
    view_report.truncated = truncated;
    if (!affected) return Status::OK();
    if (dead) {
      view_report.resulting_state = ViewState::kDead;
      out.dead = true;
      return Status::OK();
    }
    view_report.resulting_state = ViewState::kAlive;
    if (options_.adopt_first_legal) {
      out.chosen = std::move(first_legal);
    } else {
      out.chosen = view_report.ranking.front().rewriting.definition;
    }
    view_report.adopted = PrintViewCompact(out.chosen);
    return Status::OK();
  };

  // Determinism guards: governed runs share budget/deadline state across
  // views in notification order, and armed fault sites fire on exact hit
  // counts -- both must see the serial order.  Nested parallel sections
  // stay serial as everywhere (ranking's inner ParallelFor does the same).
  int workers = options_.synchronize_threads > 0 ? options_.synchronize_threads
                                                 : DefaultThreadCount();
  if (candidates.size() < 2 || ExecCtx().limited() ||
      FaultInjection::Instance().enabled() || InParallelRegion()) {
    workers = 1;
  }
  // Among concurrent failures the lowest candidate index wins, so the
  // reported error matches the serial loop's.
  EVE_RETURN_IF_ERROR(ParallelForStatus(
      static_cast<int64_t>(candidates.size()), workers, synchronize_one));

  struct Pending {
    std::string view;
    ViewDefinition new_def;
  };
  std::vector<Pending> adoptions;
  std::vector<std::string> deaths;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    Outcome& out = outcomes[i];
    ++policy_stats_.decisions;
    switch (out.action) {
      case PolicyAction::kFull:
        ++policy_stats_.full;
        break;
      case PolicyAction::kCap:
        ++policy_stats_.capped;
        break;
      case PolicyAction::kSkipUnaffected:
        ++policy_stats_.skipped_unaffected;
        break;
      case PolicyAction::kSkipDead:
        ++policy_stats_.skipped_dead;
        break;
    }
    policy_stats_.candidates_considered += out.considered;
    policy_stats_.candidates_ranked +=
        static_cast<int64_t>(out.view_report.ranking.size());
    if (out.view_report.affected) {
      if (out.dead) {
        deaths.push_back(candidates[i]);
      } else {
        adoptions.push_back(Pending{candidates[i], std::move(out.chosen)});
      }
    }
    report.views.push_back(std::move(out.view_report));
  }

  // 4. Apply the change to space + MKB.  Every prepared plan may reference
  // restructured relations, so the plan cache starts a fresh epoch.
  // Last cancellation/deadline poll before the commit point: steps 4-5
  // mutate space, MKB, and VKB, and must run to completion once started
  // (rematerialization failures below are therefore not suppressed either).
  EVE_RETURN_IF_ERROR(ExecCtx().CheckNow());
  EVE_ASSIGN_OR_RETURN(report.mkb_constraints_dropped,
                       space_.ApplySchemaChange(change, &mkb_));
  plan_cache_.Clear();

  // 5. Adopt rewritings and rematerialize; record deaths.
  for (const std::string& view_name : deaths) {
    EVE_RETURN_IF_ERROR(vkb_.MarkDead(view_name, report.change));
  }
  for (Pending& p : adoptions) {
    EVE_RETURN_IF_ERROR(
        vkb_.ReplaceDefinition(p.view, std::move(p.new_def), report.change));
    if (options_.materialize) {
      EVE_RETURN_IF_ERROR(Materialize(p.view));
    }
  }
  // Publish the post-change epoch.  Readers pinned to the pre-change epoch
  // keep serving the OLD space and view definitions (graceful degradation
  // during evolutions); a failed publish leaves them on that old epoch and
  // marks the publisher stale, never tears the committed change.
  (void)PublishSnapshot();
  return report;
}

Result<MaintenanceCounters> EveSystem::NotifyDataUpdate(
    const DataUpdate& update) {
  MaintenanceCounters total;
  ViewMaintainer maintainer(space_, options_.maintainer);

  // For inserts: apply to the space first, then maintain (the maintainer
  // joins the delta against the *other* relations only, so order is safe);
  // for deletes: maintain first so semantics match either way, then apply.
  if (update.kind == UpdateKind::kInsert) {
    EVE_RETURN_IF_ERROR(space_.ApplyDataUpdate(update));
  }
  for (const std::string& view_name : vkb_.ViewNames()) {
    EVE_ASSIGN_OR_RETURN(ViewEntry * entry, vkb_.GetMutable(view_name));
    if (entry->state != ViewState::kAlive || !entry->materialized) continue;
    EVE_ASSIGN_OR_RETURN(MaintenanceCounters counters,
                         maintainer.ProcessUpdate(entry->definition, update,
                                                  &entry->extent, ExecCtx()));
    total += counters;
  }
  if (update.kind == UpdateKind::kDelete) {
    EVE_RETURN_IF_ERROR(space_.ApplyDataUpdate(update));
  }
  (void)PublishSnapshot();
  return total;
}

}  // namespace eve
