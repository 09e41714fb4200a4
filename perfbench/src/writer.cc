#include "writer.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <variant>

#include "esql/printer.h"
#include "policy/policy.h"
#include "qc/ranking.h"
#include "serve/snapshot.h"
#include "synch/synchronizer.h"

namespace perfbench {

using eve::ChangeReport;
using eve::EveSystem;
using eve::SchemaChange;
using eve::Status;

namespace {

constexpr size_t kMaxFailures = 16;

void AddFailure(std::vector<std::string>* failures, std::string message) {
  if (failures->size() < kMaxFailures) failures->push_back(std::move(message));
}

// An affected view that stays alive must adopt the QC-Model's top pick,
// and the VKB must now hold exactly that definition.
void CheckAdoptions(const EveSystem& system, const ChangeReport& report,
                    WriterResult* out) {
  for (const eve::ViewSynchronizationReport& view : report.views) {
    if (!view.affected || view.resulting_state != eve::ViewState::kAlive) {
      continue;
    }
    if (view.ranking.empty()) {
      AddFailure(&out->failures, report.change + ": view " + view.view_name +
                                     " stayed alive with no ranking");
      continue;
    }
    const std::string best =
        eve::PrintViewCompact(view.ranking.front().rewriting.definition);
    const auto current = system.GetViewDefinition(view.view_name);
    if (view.adopted != best || !current.ok() ||
        eve::PrintViewCompact(*current) != best) {
      AddFailure(&out->failures, report.change + ": view " + view.view_name +
                                     " did not adopt ranking.front()");
    }
    out->adopted_qc_sum += view.ranking.front().qc;
    ++out->adoptions;
  }
}

void CountDecision(eve::PolicyAction action, eve::PolicyStats* stats) {
  ++stats->decisions;
  switch (action) {
    case eve::PolicyAction::kFull:
      ++stats->full;
      break;
    case eve::PolicyAction::kCap:
      ++stats->capped;
      break;
    case eve::PolicyAction::kSkipUnaffected:
      ++stats->skipped_unaffected;
      break;
    case eve::PolicyAction::kSkipDead:
      ++stats->skipped_dead;
      break;
  }
}

}  // namespace

Status Tracer::BeforeChange(EveSystem& system, const SchemaChange& change) {
  const eve::EveOptions& options = system.options();
  const eve::MetaKnowledgeBase& mkb = system.mkb();
  const eve::MkbMemoStats memo_before = mkb.memo_stats();
  const eve::RelationId& changed = eve::ChangedRelation(change);

  // 1. Affected views.
  Clock::time_point start = Clock::now();
  const auto site_of = system.space().RelationSiteMap();
  const std::vector<std::string> candidates =
      system.vkb().ViewsReferencing(changed, *site_of);
  Record(Layer::kVkbReferencing, start);

  // The changed relation's PC closure, which replacement discovery reads
  // first.  Only a relation deletion with affected views reads it, so the
  // harness adds no closure the program would not compute.
  if (std::holds_alternative<eve::DeleteRelation>(change) &&
      !candidates.empty()) {
    start = Clock::now();
    (void)mkb.PcEdgesFromTransitive(changed, options.synchronizer.max_pc_hops);
    Record(Layer::kMisdClosure, start);
  }

  // 2. Per candidate view: decide, enumerate, rank.
  const eve::ViewSynchronizer synchronizer(mkb, options.synchronizer);
  const eve::QcModel model(options.qc, options.cost, options.workload);
  const eve::PolicyEngine policy(mkb, options.policy, options.synchronizer);
  for (const std::string& name : candidates) {
    EVE_ASSIGN_OR_RETURN(const eve::ViewEntry* entry, system.vkb().Get(name));
    start = Clock::now();
    const eve::PolicyDecision decision =
        policy.Decide(entry->definition, change);
    Record(Layer::kPolicyDecide, start);
    CountDecision(decision.action, &decisions);
    if (decision.skipped()) continue;

    start = Clock::now();
    eve::Result<eve::CandidateSynchronizationResult> sync =
        decision.action == eve::PolicyAction::kCap
            ? eve::ViewSynchronizer(mkb, decision.options)
                  .SynchronizeCandidates(entry->definition, change)
            : synchronizer.SynchronizeCandidates(entry->definition, change);
    Record(Layer::kSynchEnumerate, start);
    if (!sync.ok()) return sync.status();
    decisions.candidates_considered += sync->candidates_considered;
    if (!sync->affected || sync->candidates.empty()) continue;

    start = Clock::now();
    auto ranking = model.RankCandidates(entry->definition,
                                        std::move(sync->candidates), mkb);
    Record(Layer::kQcRank, start);
    if (!ranking.ok()) return ranking.status();
    decisions.candidates_ranked += static_cast<int64_t>(ranking->size());
  }

  // 3. Snapshot capture (of the pre-change state; the program captures
  // the post-change state, which has the same shape).
  start = Clock::now();
  const auto snapshot = eve::SystemSnapshot::Capture(system.space(),
                                                     &system.vkb());
  Record(Layer::kServeCapture, start);

  const eve::MkbMemoStats memo_after = mkb.memo_stats();
  closure_hits += memo_after.closure_hits - memo_before.closure_hits;
  closure_misses += memo_after.closure_misses - memo_before.closure_misses;
  return Status::OK();
}

WriterResult ReplayEvents(
    EveSystem& system, const std::vector<eve::ScenarioEvent>& events,
    double events_per_s, Tracer* tracer,
    const std::function<void(const std::string&)>& on_death) {
  WriterResult out;
  const uint64_t sequence_before = system.snapshots().CurrentSequence();
  const Clock::time_point origin = Clock::now();
  for (size_t i = 0; i < events.size(); ++i) {
    if (events_per_s > 0) {
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(i / events_per_s)));
    }
    const double cpu_start = ProcessCpuSeconds();
    const Clock::time_point busy_start = Clock::now();
    Clock::time_point start = busy_start;
    EventTiming timing;
    Status status;
    if (const auto* change = std::get_if<SchemaChange>(&events[i].op)) {
      if (tracer != nullptr) {
        status = tracer->BeforeChange(system, *change);
        start = Clock::now();
      }
      if (status.ok()) {
        eve::Result<ChangeReport> report = system.NotifySchemaChange(*change);
        timing.ms = MillisBetween(start, Clock::now());
        timing.cpu_ms = 1e3 * (ProcessCpuSeconds() - cpu_start);
        if (tracer != nullptr) tracer->Record(Layer::kEveNotify, start);
        status = report.status();
        if (status.ok()) {
          timing.kind =
              std::holds_alternative<eve::DeleteRelation>(*change) &&
                      std::any_of(report->views.begin(), report->views.end(),
                                  [](const eve::ViewSynchronizationReport& v) {
                                    return v.affected;
                                  })
                  ? EventKind::kReplace
                  : EventKind::kChange;
          CheckAdoptions(system, *report, &out);
          for (const eve::ViewSynchronizationReport& view : report->views) {
            if (on_death && view.affected &&
                view.resulting_state == eve::ViewState::kDead) {
              on_death(view.view_name);
            }
          }
        }
      }
    } else if (const auto* update = std::get_if<eve::DataUpdate>(&events[i].op)) {
      eve::Result<eve::MaintenanceCounters> counters =
          system.NotifyDataUpdate(*update);
      timing.kind = EventKind::kUpdate;
      timing.ms = MillisBetween(start, Clock::now());
      timing.cpu_ms = 1e3 * (ProcessCpuSeconds() - cpu_start);
      if (tracer != nullptr) tracer->Record(Layer::kEveUpdate, start);
      status = counters.status();
      if (status.ok()) {
        out.tuples_changed += counters->tuples_added + counters->tuples_removed;
        out.maintenance_ios += counters->ios;
      }
    } else {
      status = system.AddPcConstraint(std::get<eve::PcConstraint>(events[i].op));
      timing.kind = EventKind::kRelink;
      timing.ms = MillisBetween(start, Clock::now());
      timing.cpu_ms = 1e3 * (ProcessCpuSeconds() - cpu_start);
    }
    ++out.events;
    if (!status.ok()) {
      ++out.errors;
      AddFailure(&out.failures, "event " + std::to_string(i) + " (" +
                                    events[i].ToString() +
                                    "): " + status.ToString());
      break;
    }
    // Busy and CPU time cover the call and, traced, the harness's calls;
    // the adoption checks ran after both clocks stopped.
    out.busy_s += 1e-3 * (timing.ms + MillisBetween(busy_start, start));
    out.cpu_s += 1e-3 * timing.cpu_ms;
    out.timings.push_back(timing);
    // Freed memory stays resident until the next trim, so sampling between
    // events sees the replay's peak; every 64th event keeps it cheap.
    if (i % 64 == 0) out.peak_rss_mb = std::max(out.peak_rss_mb, ResidentMb());
  }
  out.peak_rss_mb = std::max(out.peak_rss_mb, ResidentMb());
  out.wall_s = 1e-3 * MillisBetween(origin, Clock::now());
  out.publishes = system.snapshots().CurrentSequence() - sequence_before;
  return out;
}

std::vector<std::string> AliveViews(const EveSystem& system) {
  std::vector<std::string> alive;
  for (const std::string& name : system.vkb().ViewNames()) {
    const auto state = system.GetViewState(name);
    if (state.ok() && *state == eve::ViewState::kAlive) alive.push_back(name);
  }
  return alive;
}

void CheckExtents(const EveSystem& system, std::vector<std::string>* failures) {
  const eve::ViewMaintainer maintainer(system.space(),
                                       system.options().maintainer);
  for (const std::string& name : AliveViews(system)) {
    const auto entry = system.GetViewEntry(name);
    if (!entry.ok() || !(*entry)->materialized) continue;
    const auto fresh = maintainer.Recompute((*entry)->definition);
    if (!fresh.ok()) {
      AddFailure(failures, "recompute of " + name + ": " +
                               fresh.status().ToString());
      continue;
    }
    std::vector<eve::Tuple> kept = (*entry)->extent.CopyTuples();
    std::vector<eve::Tuple> want = fresh->CopyTuples();
    std::sort(kept.begin(), kept.end());
    std::sort(want.begin(), want.end());
    if (kept != want) {
      AddFailure(failures, "maintained extent of " + name + " (" +
                               std::to_string(kept.size()) +
                               " rows) differs from a fresh recompute (" +
                               std::to_string(want.size()) + " rows)");
    }
  }
}

}  // namespace perfbench
