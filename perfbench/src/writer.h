// The benchmark's writer: replays a pre-generated evolution stream through
// EveSystem's public entry points, timing each call, and checks every
// adoption.  With a Tracer it also runs the traced harness: before each
// capability change it times, on the pre-change state and in EveSystem's
// order, the calls NotifySchemaChange makes into each layer.

#ifndef EVE_PERFBENCH_WRITER_H_
#define EVE_PERFBENCH_WRITER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_util/scenario.h"
#include "eve/eve_system.h"
#include "stats.h"

namespace perfbench {

/// Layers the traced harness times, each around one public call.
enum class Layer : uint8_t {
  kVkbReferencing,  ///< ViewKnowledgeBase::ViewsReferencing
  kMisdClosure,     ///< MetaKnowledgeBase::PcEdgesFromTransitive
  kPolicyDecide,    ///< PolicyEngine::Decide
  kSynchEnumerate,  ///< ViewSynchronizer::SynchronizeCandidates
  kQcRank,          ///< QcModel::RankCandidates
  kServeCapture,    ///< SystemSnapshot::Capture
  kEveNotify,       ///< EveSystem::NotifySchemaChange (the commit)
  kEveUpdate,       ///< EveSystem::NotifyDataUpdate
  kCount,
};

/// Per-layer call durations plus the counts the harness observed at the
/// same boundaries.
class Tracer {
 public:
  /// Runs the pre-change harness calls for `change`.
  eve::Status BeforeChange(eve::EveSystem& system,
                           const eve::SchemaChange& change);

  /// Records one call into `layer`, from `start` to now.
  void Record(Layer layer, Clock::time_point start) {
    layer_ms_[static_cast<size_t>(layer)].Add(
        MillisBetween(start, Clock::now()));
  }

  /// Per-layer call durations in milliseconds.
  const Samples& LayerMillis(Layer layer) const {
    return layer_ms_[static_cast<size_t>(layer)];
  }

  /// Counts the harness computed itself, to compare with the program's.
  eve::PolicyStats decisions;
  int64_t closure_hits = 0;    ///< Memo hits during the harness's calls.
  int64_t closure_misses = 0;  ///< Memo misses during the harness's calls.

 private:
  std::array<Samples, static_cast<size_t>(Layer::kCount)> layer_ms_;
};

/// What an event was, for the metrics that split by kind.
enum class EventKind : uint8_t {
  kChange,   ///< Any other capability change.
  kReplace,  ///< Deleted a relation some view referenced.
  kUpdate,   ///< A data update.
  kRelink,   ///< A PC constraint added by the stream.
};

/// One timed entry-point call.
struct EventTiming {
  EventKind kind = EventKind::kChange;
  double ms = 0;      ///< Wall time of the call (for a change: until the
                      ///< new epoch is published).
  double cpu_ms = 0;  ///< Process CPU time over the call.
};

/// What one replay of a stream did and how long it took.
struct WriterResult {
  std::vector<EventTiming> timings;  ///< Per event that succeeded, in order.
  int64_t events = 0;
  int64_t errors = 0;
  double busy_s = 0;  ///< Wall time inside the entry points (and, traced,
                      ///< the harness's calls).
  double wall_s = 0;  ///< Wall time of the whole replay, pacing included.
  double cpu_s = 0;   ///< Process CPU time over the same calls.
  double adopted_qc_sum = 0;
  int64_t adoptions = 0;
  int64_t tuples_changed = 0;  ///< From the returned MaintenanceCounters.
  int64_t maintenance_ios = 0;
  uint64_t publishes = 0;  ///< Epochs published during the replay.
  double peak_rss_mb = 0;  ///< Largest resident set seen between events.
  std::vector<std::string> failures;  ///< Failed checks and event errors.
};

/// Replays `events` in order.  `events_per_s` > 0 paces the writer open
/// loop (event i is due at start + i / rate); 0 runs it closed loop.
/// Stops at the first event error.  `tracer` may be null; `on_death`, when
/// set, is called with each view a capability change left dead.
WriterResult ReplayEvents(
    eve::EveSystem& system, const std::vector<eve::ScenarioEvent>& events,
    double events_per_s, Tracer* tracer,
    const std::function<void(const std::string&)>& on_death = nullptr);

/// Alive views of `system`, sorted by name.
std::vector<std::string> AliveViews(const eve::EveSystem& system);

/// Compares every alive materialized extent with a fresh recompute (as
/// bags); appends a message per mismatch to `failures`.
void CheckExtents(const eve::EveSystem& system,
                  std::vector<std::string>* failures);

}  // namespace perfbench

#endif  // EVE_PERFBENCH_WRITER_H_
