// End-to-end evolution benchmark.
//
//   evebench --workload NAME --seed N --seconds S --trace 0|1
//   evebench --workload NAME --seed N --seconds S --capacity
//
// A run replays seeded evolution streams, one after another, until the
// writer has run for --seconds.  For each stream it builds a fresh star or
// snowflake information space (bench_util/scenario.h) and replays the
// stream through EveSystem's public entry points (NotifySchemaChange,
// NotifyDataUpdate, AddPcConstraint), timing every call, while the
// workload's readers query the views.  Each stream and its space are
// generated from --seed and the stream's number before the timed window.
//
// With --trace 0 the run reports the end-to-end metrics, pooled over every
// stream.  With --trace 1 every stream is replayed once with the traced
// harness (writer.h) and once untraced, the traced counts are checked
// against the untraced ones, and the run reports the per-layer metrics.
// Every metric prints as a table row with its unit and sample count, and
// the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --capacity instead measures the workload's closed-loop writer and
// front-end capacity, from which serve_star's rates were set.
// See README.md for the workloads and every metric's definition.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util/scenario.h"
#include "policy/evolution_policy.h"
#include "readers.h"
#include "serve/frontend.h"
#include "stats.h"
#include "writer.h"

namespace perfbench {
namespace {

/// Timed builds per stream, after one untimed build that faults in the
/// heap the previous stream handed back.  setup_s is their median.
constexpr int kTimedBuilds = 2;
/// Front-end workers beside the writer (the writer and the reader's two
/// threads take the rest of a 4-core host).
constexpr int kServeWorkers = 2;
/// A read answered later than this after its refresh started counts
/// against read_ok_ratio.
constexpr double kReadLimitMs = 50;

/// One workload: a scenario shape, a policy, and how it is driven.
struct Workload {
  const char* name;
  eve::ScenarioOptions scenario;
  const char* preset;       ///< EvolutionPolicy preset name.
  bool materialize;
  int synchronize_threads;  ///< EveOptions::synchronize_threads.
  const char* eve_threads;  ///< EVE_THREADS: QC ranking's inner workers.
  uint64_t seed_salt;       ///< Mixed into every stream's seed.
  int stream_events;
  /// The first this-many streams always run; adopted_qc_mean and
  /// views_alive come from them alone, so they depend on the seed only.
  int quality_streams;
  /// > 0 paces the writer open loop at this many events per second;
  /// 0 runs it closed loop.
  double write_rate;
  double refresh_rate;  ///< Open-loop refreshes per second beside the writer.
  int closed_refreshes;  ///< Closed-loop refreshes after each stream.
};

eve::ScenarioOptions StarMirrored() {
  eve::ScenarioOptions s;
  s.views = 32;
  s.dimension_rows = 256;
  s.fact_rows = 256;
  s.partial_mirrors = 8;
  return s;
}

eve::ScenarioOptions SnowflakeMirrored() {
  eve::ScenarioOptions s = StarMirrored();
  s.snowflake = true;
  s.partial_mirrors = 4;
  return s;
}

eve::ScenarioOptions StarServed() {
  eve::ScenarioOptions s;
  s.views = 32;
  s.dimension_rows = 2048;
  s.fact_rows = 2048;
  return s;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      // Replacement discovery: cold PC closures, the CVS pair fan-out and
      // QC ranking, with the parallel per-view sync.
      {"evolve_mirrored", StarMirrored(), "exhaustive",
       /*materialize=*/false, /*synchronize_threads=*/4, /*eve_threads=*/"4",
       /*seed_salt=*/0x11, /*stream_events=*/2500, /*quality_streams=*/8,
       /*write_rate=*/0, /*refresh_rate=*/0, /*closed_refreshes=*/100},
      // The only workload where the policy skips or caps; deeper closure.
      {"evolve_snowflake_balanced", SnowflakeMirrored(), "balanced", false, 1,
       "1", 0x5f3759df, 8000, 8, 0, 0, 100},
      // Writes beside reads: maintenance, rematerialization, epoch replans
      // and serving.  Each rate is a quarter of that side's closed-loop
      // capacity alone as --capacity measured it on a 4-vCPU x86 VM
      // (writer 8.9k-10.5k events/s; front end 321-344 refreshes/s of 32
      // views on 2 workers), so neither side nears saturation.
      {"serve_star", StarServed(), "exhaustive", true, 1, "1", 0x2545f491,
       /*stream_events=*/1000, /*quality_streams=*/48, /*write_rate=*/2500,
       /*refresh_rate=*/80, /*closed_refreshes=*/0},
  };
  return workloads;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool capacity = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc;) {
    const std::string flag = argv[i++];
    if (flag == "--capacity") {
      args.capacity = true;
      continue;
    }
    if (i >= argc) return std::nullopt;
    const char* value = argv[i++];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else {
      return std::nullopt;
    }
  }
  // Exactly one of --trace 0|1 and --capacity.
  const bool traced_or_not = args.trace == 0 || args.trace == 1;
  if (args.workload.empty() || args.seconds <= 0 ||
      traced_or_not == args.capacity) {
    return std::nullopt;
  }
  return args;
}

/// SplitMix64 finalizer: decorrelates the per-stream seeds.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// A metric as printed: the table row and the JSON entry.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// What one replay of one stream observed.
struct Pass {
  WriterResult writer;
  ReadResult reads;
  eve::ServingStats serving;
  eve::PlanCacheStats serve_plans;
  eve::PlanCacheStats eve_plans;
  eve::MkbMemoStats memo;
  eve::PolicyStats policy;
  int64_t pc_constraints = 0;
  int views_alive = 0;
};

/// Passes summed: counts, pooled reads and failures.
struct Totals {
  WriterResult writer;  ///< Counters and failures; no timings.
  ReadResult reads;     ///< Pooled over every pass.
  eve::ServingStats serving;
  eve::PlanCacheStats serve_plans;
  eve::PlanCacheStats eve_plans;
  eve::MkbMemoStats memo;
  eve::PolicyStats policy;
  Samples pc_constraints;
  Samples peak_rss_mb;  ///< Per pass.
  Samples read_p99_ms;  ///< Per pass.
  int passes = 0;

  void Add(const Pass& p) {
    const WriterResult& w = p.writer;
    writer.events += w.events;
    writer.errors += w.errors;
    writer.busy_s += w.busy_s;
    writer.wall_s += w.wall_s;
    writer.cpu_s += w.cpu_s;
    writer.adopted_qc_sum += w.adopted_qc_sum;
    writer.adoptions += w.adoptions;
    writer.tuples_changed += w.tuples_changed;
    writer.maintenance_ios += w.maintenance_ios;
    writer.publishes += w.publishes;
    writer.failures.insert(writer.failures.end(), w.failures.begin(),
                           w.failures.end());

    const ReadResult& r = p.reads;
    reads.ok_ms.Append(r.ok_ms);
    reads.late_ms.Append(r.late_ms);
    reads.queue_depth.Append(r.queue_depth);
    reads.offered += r.offered;
    reads.ok_within_limit += r.ok_within_limit;
    reads.ok_over_limit += r.ok_over_limit;
    reads.refused_lag += r.refused_lag;
    reads.refused_shed += r.refused_shed;
    reads.view_died += r.view_died;
    reads.failed += r.failed;
    reads.failures.insert(reads.failures.end(), r.failures.begin(),
                          r.failures.end());

    serving.shed += p.serving.shed;
    serving.retries += p.serving.retries;
    serving.watchdog_kills += p.serving.watchdog_kills;
    serve_plans.hits += p.serve_plans.hits;
    serve_plans.misses += p.serve_plans.misses;
    serve_plans.replans += p.serve_plans.replans;
    serve_plans.epoch_replans += p.serve_plans.epoch_replans;
    eve_plans.hits += p.eve_plans.hits;
    eve_plans.misses += p.eve_plans.misses;
    eve_plans.replans += p.eve_plans.replans;
    memo.closure_hits += p.memo.closure_hits;
    memo.closure_misses += p.memo.closure_misses;
    memo.memo_survivals += p.memo.memo_survivals;
    memo.selective_drops += p.memo.selective_drops;
    policy += p.policy;
    pc_constraints.Add(static_cast<double>(p.pc_constraints));
    peak_rss_mb.Add(p.writer.peak_rss_mb);
    if (!r.ok_ms.empty()) read_p99_ms.Add(r.ok_ms.Quantile(0.99));
    ++passes;
  }
};

/// A workload run.
class Runner {
 public:
  Runner(const Workload& w, const Args& args) : w_(w), args_(args) {
    policy_ = *eve::PolicyPresetByName(w.preset);
    eve_options_ = policy_.ToEveOptions();
    eve_options_.materialize = w.materialize;
    eve_options_.synchronize_threads = w.synchronize_threads;
    serving_ = policy_.ToServingOptions();
    serving_.workers = kServeWorkers;
  }

  int RunEndToEnd() {
    Totals all;
    Samples change, replace, update;
    Samples quality_alive;
    double quality_qc_sum = 0;
    int64_t quality_adoptions = 0;
    while (all.passes < w_.quality_streams || Spent(all) < args_.seconds) {
      std::optional<Pass> pass = RunPass(all.passes, nullptr, /*serve=*/true);
      if (!pass.has_value()) return Finish({}, all.writer, all.reads);
      for (const EventTiming& e : pass->writer.timings) {
        if (e.kind == EventKind::kChange || e.kind == EventKind::kReplace) {
          change.Add(e.ms);
        }
        if (e.kind == EventKind::kReplace) replace.Add(e.ms);
        if (e.kind == EventKind::kUpdate) update.Add(e.ms);
      }
      if (all.passes < w_.quality_streams) {
        quality_qc_sum += pass->writer.adopted_qc_sum;
        quality_adoptions += pass->writer.adoptions;
        quality_alive.Add(pass->views_alive);
      }
      all.Add(*pass);
      if (all.writer.errors > 0) break;
    }
    const WriterResult& writer = all.writer;
    const ReadResult& reads = all.reads;
    const size_t events = static_cast<size_t>(writer.events);
    const std::vector<Metric> metrics = {
        {"events_per_s", Ratio(writer.events, writer.busy_s), "1/s", events},
        {"change_p50_ms", change.Quantile(0.5), "ms", change.size()},
        {"change_p99_ms", change.Quantile(0.99), "ms", change.size()},
        {"replace_p50_ms", replace.Quantile(0.5), "ms", replace.size()},
        {"replace_p90_ms", replace.Quantile(0.9), "ms", replace.size()},
        {"update_p50_ms", update.Quantile(0.5), "ms", update.size()},
        {"cpu_ms_per_event", Ratio(1e3 * writer.cpu_s, writer.events), "ms",
         events},
        {"read_p50_ms", reads.ok_ms.Quantile(0.5), "ms", reads.ok_ms.size()},
        // A tail per stream, then their median: a stall of a few hundred
        // ms on a shared host would otherwise set the whole run's p99.
        {"read_p99_ms", all.read_p99_ms.Quantile(0.5), "ms",
         reads.ok_ms.size()},
        {"read_ok_ratio", reads.OkRatio(), "ratio",
         static_cast<size_t>(reads.offered)},
        {"adopted_qc_mean", Ratio(quality_qc_sum, quality_adoptions), "qc",
         static_cast<size_t>(quality_adoptions)},
        {"views_alive", quality_alive.Mean(), "count", quality_alive.size()},
        {"setup_s", setup_s_.Quantile(0.5), "s", setup_s_.size()},
        {"peak_rss_mb", all.peak_rss_mb.Quantile(0.5), "MB",
         all.peak_rss_mb.size()},
    };
    std::printf("# %s seed=%llu streams=%d events=%lld busy_s=%.3f\n",
                w_.name, static_cast<unsigned long long>(args_.seed),
                all.passes, static_cast<long long>(writer.events),
                writer.busy_s);
    PrintReadSplit(reads);
    return Finish(metrics, writer, reads);
  }

  int RunTraced() {
    Tracer tracer;
    Totals traced;
    Totals untraced;
    // Traced streams until the traced writer has run half of --seconds;
    // each is followed by its untraced replay.
    for (int k = 0; k == 0 || Spent(traced) < args_.seconds / 2; ++k) {
      std::optional<Pass> pass = RunPass(k, &tracer, /*serve=*/true);
      if (!pass.has_value()) return Finish({}, traced.writer, traced.reads);
      traced.Add(*pass);
      // The same stream untraced, with the same readers and pacing, so the
      // harness is the only difference: the decisions and closure misses
      // must not depend on it, and the busy-time ratio is its overhead.
      pass = RunPass(k, nullptr, /*serve=*/true);
      if (!pass.has_value()) return Finish({}, traced.writer, traced.reads);
      untraced.Add(*pass);
      if (traced.writer.errors > 0 || untraced.writer.errors > 0) break;
    }
    WriterResult& writer = traced.writer;
    const ReadResult& reads = traced.reads;
    CompareCounts(tracer, traced, untraced, &writer.failures);
    writer.failures.insert(writer.failures.end(),
                           untraced.writer.failures.begin(),
                           untraced.writer.failures.end());

    const eve::PolicyStats& d = tracer.decisions;
    const eve::MkbMemoStats& m = traced.memo;
    const eve::ServingStats& s = traced.serving;
    const eve::PlanCacheStats& ep = traced.eve_plans;
    const eve::PlanCacheStats& sp = traced.serve_plans;
    const auto lookups = [](const eve::PlanCacheStats& p) {
      return static_cast<double>(p.hits + p.misses + p.replans);
    };
    const Samples& closure = tracer.LayerMillis(Layer::kMisdClosure);
    const Samples& enumerate = tracer.LayerMillis(Layer::kSynchEnumerate);
    const Samples& rank = tracer.LayerMillis(Layer::kQcRank);
    const Samples& decide = tracer.LayerMillis(Layer::kPolicyDecide);
    const Samples& capture = tracer.LayerMillis(Layer::kServeCapture);
    const Samples& referencing = tracer.LayerMillis(Layer::kVkbReferencing);
    const Samples& notify = tracer.LayerMillis(Layer::kEveNotify);
    const Samples& update = tracer.LayerMillis(Layer::kEveUpdate);
    const size_t n_decisions = static_cast<size_t>(d.decisions);
    const size_t n_reads = static_cast<size_t>(reads.offered);
    const size_t n_passes = static_cast<size_t>(traced.passes);
    const int64_t closure_lookups = tracer.closure_hits + tracer.closure_misses;
    const std::vector<Metric> metrics = {
        {"misd.closure_ms", closure.Mean(), "ms", closure.size()},
        {"misd.closure_misses", static_cast<double>(m.closure_misses), "count",
         n_passes},
        {"misd.closure_hit_ratio", Ratio(tracer.closure_hits, closure_lookups),
         "ratio", static_cast<size_t>(closure_lookups)},
        {"misd.memo_survival_ratio",
         Ratio(m.memo_survivals, m.memo_survivals + m.selective_drops), "ratio",
         static_cast<size_t>(m.memo_survivals + m.selective_drops)},
        {"misd.pc_constraints", traced.pc_constraints.Mean(), "count",
         traced.pc_constraints.size()},
        {"synch.enumerate_ms", enumerate.Mean(), "ms", enumerate.size()},
        {"synch.candidates_considered",
         static_cast<double>(d.candidates_considered), "count",
         enumerate.size()},
        {"synch.ranked_ratio",
         Ratio(d.candidates_ranked, d.candidates_considered), "ratio",
         static_cast<size_t>(d.candidates_considered)},
        {"qc.rank_ms", rank.Mean(), "ms", rank.size()},
        {"qc.candidates_ranked", static_cast<double>(d.candidates_ranked),
         "count", rank.size()},
        {"policy.decide_us", 1e3 * decide.Mean(), "us", decide.size()},
        {"policy.skip_ratio",
         Ratio(d.skipped_unaffected + d.skipped_dead, d.decisions), "ratio",
         n_decisions},
        {"policy.cap_ratio", Ratio(d.capped, d.decisions), "ratio",
         n_decisions},
        {"serve.capture_us", 1e3 * capture.Mean(), "us", capture.size()},
        {"serve.publishes", static_cast<double>(writer.publishes), "count",
         n_passes},
        {"vkb.referencing_us", 1e3 * referencing.Mean(), "us",
         referencing.size()},
        {"eve.notify_self_ms", notify.Mean(), "ms", notify.size()},
        {"eve.update_ms", update.Mean(), "ms", update.size()},
        {"maintenance.tuples_changed",
         static_cast<double>(writer.tuples_changed), "count", update.size()},
        {"maintenance.ios", static_cast<double>(writer.maintenance_ios),
         "count", update.size()},
        {"plan.eve_hit_ratio", Ratio(ep.hits, lookups(ep)), "ratio",
         static_cast<size_t>(lookups(ep))},
        {"plan.serve_hit_ratio", Ratio(sp.hits, lookups(sp)), "ratio",
         static_cast<size_t>(lookups(sp))},
        {"plan.epoch_replans", static_cast<double>(sp.epoch_replans), "count",
         static_cast<size_t>(lookups(sp))},
        {"serve.lag_refusals", static_cast<double>(reads.refused_lag), "count",
         n_reads},
        {"serve.watchdog_kills", static_cast<double>(s.watchdog_kills),
         "count", n_reads},
        {"serve.shed", static_cast<double>(s.shed), "count", n_reads},
        {"serve.retries", static_cast<double>(s.retries), "count", n_reads},
        {"serve.queue_depth", reads.queue_depth.Mean(), "count",
         reads.queue_depth.size()},
        {"serve.generator_late_ms", reads.late_ms.Mean(), "ms",
         reads.late_ms.size()},
        {"trace.overhead_ratio", Ratio(writer.busy_s, untraced.writer.busy_s),
         "ratio", n_passes},
    };
    std::printf("# %s seed=%llu traced streams=%d events=%lld "
                "traced_busy_s=%.3f untraced_busy_s=%.3f\n",
                w_.name, static_cast<unsigned long long>(args_.seed),
                traced.passes, static_cast<long long>(writer.events),
                writer.busy_s, untraced.writer.busy_s);
    PrintReadSplit(reads);
    return Finish(metrics, writer, reads);
  }

  /// Closed-loop capacity of each side alone: the writer replaying streams
  /// with no readers, then a front end answering refreshes of a fresh
  /// system with no writer.  serve_star's write and refresh rates are
  /// fixed fractions of what this measured (README.md).
  int RunCapacity() {
    Totals writes;
    while (writes.passes == 0 || writes.writer.busy_s < args_.seconds / 2) {
      std::optional<Pass> pass = RunPass(writes.passes, nullptr,
                                         /*serve=*/false);
      if (!pass.has_value()) return 1;
      writes.Add(*pass);
    }
    std::unique_ptr<eve::EveSystem> system = Build(StreamScenario(0));
    if (system == nullptr) return 1;
    const std::vector<std::string> views = AliveViews(*system);
    ReadResult reads;
    {
      eve::ServingFrontEnd frontend(*system, serving_);
      while (reads.refresh_s < args_.seconds / 2) {
        const ReadResult r =
            ClosedLoopRefreshes(*system, frontend, views, 100, kReadLimitMs);
        reads.offered += r.offered;
        reads.refresh_s += r.refresh_s;
        reads.failures.insert(reads.failures.end(), r.failures.begin(),
                              r.failures.end());
      }
    }
    std::printf("# %s capacity: writer %.1f events/s closed loop (%lld "
                "events, no readers); front end %.1f refreshes/s of %zu "
                "views, %.1f reads/s (%d workers, no writer)\n",
                w_.name, Ratio(writes.writer.events, writes.writer.busy_s),
                static_cast<long long>(writes.writer.events),
                Ratio(reads.offered / static_cast<double>(views.size()),
                      reads.refresh_s),
                views.size(), Ratio(reads.offered, reads.refresh_s),
                serving_.workers);
    return Failures(writes.writer, reads).empty() ? 0 : 1;
  }

 private:
  /// Writer time so far: busy time when closed loop, wall time when paced.
  double Spent(const Totals& totals) const {
    return w_.write_rate > 0 ? totals.writer.wall_s : totals.writer.busy_s;
  }

  /// Builds a fresh system for `scenario`.
  std::unique_ptr<eve::EveSystem> Build(const eve::ScenarioOptions& scenario) {
    auto system = eve::BuildScenarioSystem(scenario, eve_options_);
    if (!system.ok()) {
      failures_.push_back("build: " + system.status().ToString());
      return nullptr;
    }
    (*system)->mkb().set_selective_invalidation(policy_.selective_invalidation);
    return std::move(system).value();
  }

  /// Stream `stream`'s scenario: the workload's shape with its own seed.
  eve::ScenarioOptions StreamScenario(int stream) const {
    eve::ScenarioOptions scenario = w_.scenario;
    scenario.seed = Mix(Mix(args_.seed ^ w_.seed_salt) +
                        static_cast<uint64_t>(stream));
    return scenario;
  }

  /// One replay of stream `stream` on a fresh system: with the workload's
  /// readers when `serve` is set, else closed loop and unread.  Nullopt when
  /// the build failed.
  std::optional<Pass> RunPass(int stream, Tracer* tracer, bool serve) {
    // Hand the previous pass's freed memory back, so peak_rss_mb measures
    // one pass rather than the allocator's history.
    malloc_trim(0);
    const eve::ScenarioOptions scenario = StreamScenario(stream);
    const std::vector<eve::ScenarioEvent> events = eve::GenerateEventStream(
        scenario, w_.stream_events, Mix(scenario.seed));
    // Builds spread over the whole run: the host's speed changes every
    // few hundred ms, so back-to-back builds would sample one moment.
    std::unique_ptr<eve::EveSystem> system;
    for (int i = 0; i <= kTimedBuilds; ++i) {
      system.reset();
      const Clock::time_point start = Clock::now();
      system = Build(scenario);
      if (system == nullptr) return std::nullopt;
      if (i > 0) setup_s_.Add(1e-3 * MillisBetween(start, Clock::now()));
    }

    Pass pass;
    {
      // The reader is declared after the front end, so it stops first.
      std::optional<eve::ServingFrontEnd> frontend;
      std::optional<OpenLoopReader> reader;
      if (serve && w_.refresh_rate > 0) {
        frontend.emplace(*system, serving_);
        reader.emplace(*frontend, AliveViews(*system), w_.refresh_rate,
                       kReadLimitMs);
      }
      const auto on_death = [&reader](const std::string& view) {
        if (reader.has_value()) reader->RemoveView(view);
      };
      pass.writer = ReplayEvents(*system, events, serve ? w_.write_rate : 0,
                                 tracer, on_death);
      if (reader.has_value()) pass.reads = reader->Stop();
      if (frontend.has_value()) {
        frontend->Shutdown();
        pass.serving = frontend->stats();
        pass.serve_plans = frontend->plan_cache().stats();
      }
    }
    if (serve && w_.closed_refreshes > 0) {
      eve::ServingFrontEnd frontend(*system, serving_);
      pass.reads = ClosedLoopRefreshes(*system, frontend, AliveViews(*system),
                                       w_.closed_refreshes, kReadLimitMs);
      frontend.Shutdown();
      pass.serving = frontend.stats();
      pass.serve_plans = frontend.plan_cache().stats();
    }
    if (w_.materialize) CheckExtents(*system, &pass.writer.failures);
    pass.eve_plans = system->plan_cache().stats();
    pass.memo = system->mkb().memo_stats();
    pass.policy = system->policy_stats();
    pass.pc_constraints =
        static_cast<int64_t>(system->mkb().pc_constraints().size());
    pass.views_alive = static_cast<int>(AliveViews(*system).size());
    return pass;
  }

  // The harness's own counts must equal what the program counted when it
  // ran the same streams untraced.
  static void CompareCounts(const Tracer& tracer, const Totals& traced,
                            const Totals& untraced,
                            std::vector<std::string>* failures) {
    const eve::PolicyStats& t = tracer.decisions;
    const eve::PolicyStats& u = untraced.policy;
    const auto expect = [&](const char* what, int64_t got, int64_t want) {
      if (got != want) {
        failures->push_back(std::string("traced ") + what + " " +
                            std::to_string(got) + " != untraced " +
                            std::to_string(want));
      }
    };
    expect("streams", traced.passes, untraced.passes);
    expect("decisions", t.decisions, u.decisions);
    expect("full decisions", t.full, u.full);
    expect("cap decisions", t.capped, u.capped);
    expect("skip-unaffected decisions", t.skipped_unaffected,
           u.skipped_unaffected);
    expect("skip-dead decisions", t.skipped_dead, u.skipped_dead);
    expect("candidates considered", t.candidates_considered,
           u.candidates_considered);
    expect("candidates ranked", t.candidates_ranked, u.candidates_ranked);
    expect("closure misses", traced.memo.closure_misses,
           untraced.memo.closure_misses);
  }

  static void PrintReadSplit(const ReadResult& r) {
    std::printf(
        "# reads offered=%lld ok_within_limit=%lld ok_over_limit=%lld "
        "refused_lag=%lld refused_shed=%lld view_died=%lld failed=%lld\n",
        static_cast<long long>(r.offered),
        static_cast<long long>(r.ok_within_limit),
        static_cast<long long>(r.ok_over_limit),
        static_cast<long long>(r.refused_lag),
        static_cast<long long>(r.refused_shed),
        static_cast<long long>(r.view_died), static_cast<long long>(r.failed));
  }

  /// Every failed check of the run, each also printed to stderr.
  std::vector<std::string> Failures(const WriterResult& writer,
                                    const ReadResult& reads) const {
    std::vector<std::string> failures = failures_;
    failures.insert(failures.end(), writer.failures.begin(),
                    writer.failures.end());
    for (const std::string& f : reads.failures) {
      failures.push_back("read: " + f);
    }
    for (const std::string& f : failures) {
      std::fprintf(stderr, "FAIL: %s\n", f.c_str());
    }
    return failures;
  }

  int Finish(const std::vector<Metric>& metrics, const WriterResult& writer,
             const ReadResult& reads) const {
    const std::vector<std::string> failures = Failures(writer, reads);
    std::printf("# %-28s %16s %-6s %s\n", "metric", "value", "unit", "samples");
    for (const Metric& m : metrics) {
      std::printf("# %-28s %16.6f %-6s %zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
    std::string json = "{\"correct\": ";
    json += failures.empty() && !metrics.empty() ? "true" : "false";
    json += ", \"attempted\": " +
            std::to_string(std::max<int64_t>(1, writer.events + reads.offered));
    json += ", \"failed\": " + std::to_string(writer.errors + reads.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
      json += (i > 0 ? ", \"" : "\"") + metrics[i].name +
              "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return 0;
  }

  const Workload& w_;
  const Args& args_;
  eve::EvolutionPolicy policy_;
  eve::EveOptions eve_options_;
  eve::ServingOptions serving_;
  Samples setup_s_;
  std::vector<std::string> failures_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: evebench --workload NAME --seed N --seconds S "
                 "(--trace 0|1 | --capacity)\n");
    return 2;
  }
  for (const Workload& w : Workloads()) {
    if (args->workload != w.name) continue;
    // Explicit worker count for the QC ranking's inner ParallelFor, which
    // otherwise sizes itself from the machine.
    setenv("EVE_THREADS", w.eve_threads, 1);
    Runner runner(w, *args);
    if (args->capacity) return runner.RunCapacity();
    return args->trace == 1 ? runner.RunTraced() : runner.RunEndToEnd();
  }
  std::fprintf(stderr, "unknown workload %s\n", args->workload.c_str());
  return 2;
}
