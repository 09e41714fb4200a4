// Serving-layer suite: epoch snapshot publication (serve/snapshot.h) and
// the concurrent front end (serve/frontend.h).
//
// The centerpiece is the snapshot-isolation stress: reader threads pin an
// epoch and execute prepared plans through a shared PlanCache while a
// mutator interleaves inserts, batched deletes, and schema changes.  Every
// result must be byte-identical to the reference executor run on the SAME
// pinned epoch -- any cross-epoch read (a reader observing data or a view
// definition from a different epoch than it pinned) breaks the equality.
// Run under TSan by the sanitizer CI job (ctest -L chaos).
//
// The chaos walks cover the three serving fault sites (serve.admit,
// serve.execute, eve.snapshot_swap): an injected fault surfaces as a clean
// error (or a served stale epoch, for the swap site), no torn state
// survives, and disarming restores byte-identical behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algebra/executor.h"
#include "common/fault_injection.h"
#include "esql/parser.h"
#include "eve/eve_system.h"
#include "oracles/executor_reference.h"
#include "serve/frontend.h"
#include "serve/snapshot.h"
#include "space/data_update.h"
#include "space/schema_change.h"

namespace eve {
namespace {

Relation MakeRelation(const std::string& name,
                      const std::vector<std::string>& attrs,
                      const std::vector<std::vector<int>>& rows) {
  std::vector<Attribute> schema;
  for (const std::string& a : attrs) {
    schema.push_back(Attribute::Make(a, DataType::kInt64, 10));
  }
  Relation rel(name, Schema(std::move(schema)));
  for (const auto& row : rows) {
    Tuple t;
    for (int v : row) t.Append(Value(static_cast<int64_t>(v)));
    rel.InsertUnchecked(std::move(t));
  }
  return rel;
}

std::vector<Tuple> SortedTuples(const Relation& rel) {
  std::vector<Tuple> tuples = rel.CopyTuples();
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

Tuple Row(std::vector<int> values) {
  Tuple t;
  for (int v : values) t.Append(Value(static_cast<int64_t>(v)));
  return t;
}

// Every test leaves the process-wide fault registry clean.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Instance().Reset(); }
  void TearDown() override {
    EXPECT_TRUE(FaultInjection::Instance().ArmedSites().empty());
    FaultInjection::Instance().Reset();
  }
};

// A small two-relation world with one alive join view.
std::unique_ptr<EveSystem> MakeWorld() {
  auto system = std::make_unique<EveSystem>();
  EXPECT_TRUE(
      system
          ->RegisterRelation("IS1", MakeRelation("R", {"K", "X"},
                                                 {{1, 10}, {2, 20}, {3, 30}}))
          .ok());
  EXPECT_TRUE(
      system
          ->RegisterRelation("IS1", MakeRelation("S", {"K", "Y"},
                                                 {{1, 100}, {2, 200}, {4, 400}}))
          .ok());
  EXPECT_TRUE(system
                  ->DefineView("CREATE VIEW V AS SELECT R.K, R.X, S.Y "
                               "FROM R, S WHERE R.K = S.K")
                  .ok());
  return system;
}

// --- Snapshot publication ------------------------------------------------------

TEST_F(ServeTest, SnapshotIsImmutableUnderSourceMutation) {
  auto system = MakeWorld();
  const std::shared_ptr<const SystemSnapshot> snap =
      system->snapshots().Current();
  ASSERT_NE(snap, nullptr);
  const uint64_t epoch_before = snap->epoch();

  auto resolved = snap->Resolve("IS1", "R");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value()->cardinality(), 3);

  // Mutating the live system neither changes the pinned snapshot's data
  // nor its epoch; the publisher moves on to a fresh one.
  ASSERT_TRUE(system
                  ->NotifyDataUpdate(DataUpdate{UpdateKind::kInsert,
                                                RelationId{"IS1", "R"},
                                                Row({4, 40})})
                  .ok());
  EXPECT_EQ(resolved.value()->cardinality(), 3);
  EXPECT_EQ(snap->epoch(), epoch_before);
  const auto fresh = system->snapshots().Current();
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh->epoch(), epoch_before);
  EXPECT_GT(fresh->sequence(), snap->sequence());
  auto fresh_r = fresh->Resolve("", "R");
  ASSERT_TRUE(fresh_r.ok());
  EXPECT_EQ(fresh_r.value()->cardinality(), 4);
}

TEST_F(ServeTest, SnapshotViewResolutionPinsTheOldDefinition) {
  auto system = MakeWorld();
  const auto old_epoch = system->snapshots().Current();
  ASSERT_NE(old_epoch, nullptr);

  // Rename R.X; the evolution rewrites V in place.
  ASSERT_TRUE(system
                  ->NotifySchemaChange(SchemaChange(RenameAttribute{
                      RelationId{"IS1", "R"}, "X", "X2"}))
                  .ok());

  const auto old_def = old_epoch->View("V");
  ASSERT_TRUE(old_def.ok());
  const auto old_result =
      ExecuteViewReference(old_def.value(), *old_epoch, ExecOptions{});
  ASSERT_TRUE(old_result.ok()) << old_result.status().ToString();
  EXPECT_EQ(old_result->cardinality(), 2);

  const auto new_epoch = system->snapshots().Current();
  ASSERT_NE(new_epoch, nullptr);
  const auto new_def = new_epoch->View("V");
  ASSERT_TRUE(new_def.ok());
  const auto new_result =
      ExecuteViewReference(new_def.value(), *new_epoch, ExecOptions{});
  ASSERT_TRUE(new_result.ok()) << new_result.status().ToString();
  EXPECT_EQ(SortedTuples(*new_result), SortedTuples(*old_result));
}

// --- Front-end basics ----------------------------------------------------------

TEST_F(ServeTest, ServesAdHocAndNamedQueriesMatchingReference) {
  auto system = MakeWorld();
  ServingFrontEnd fe(*system);

  const auto snap = system->snapshots().Current();
  ASSERT_NE(snap, nullptr);
  const auto view_def = snap->View("V");
  ASSERT_TRUE(view_def.ok());
  const auto reference =
      ExecuteViewReference(view_def.value(), *snap, ExecOptions{});
  ASSERT_TRUE(reference.ok());

  ServeResult named = fe.QueryView("V");
  ASSERT_TRUE(named.status.ok()) << named.status.ToString();
  EXPECT_EQ(named.epoch, snap->epoch());
  EXPECT_EQ(named.attempts, 1);
  EXPECT_EQ(SortedTuples(named.relation), SortedTuples(*reference));

  ServeResult adhoc =
      fe.Query("CREATE VIEW Q AS SELECT R.X FROM R WHERE R.K >= 2");
  ASSERT_TRUE(adhoc.status.ok()) << adhoc.status.ToString();
  EXPECT_EQ(adhoc.relation.cardinality(), 2);

  ServeResult missing = fe.QueryView("NoSuchView");
  EXPECT_FALSE(missing.status.ok());

  const ServingStats stats = fe.stats();
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.shed, 0);

  // Repeat queries of the same view on the same epoch hit the plan
  // cache's snapshot fast path.
  ASSERT_TRUE(fe.QueryView("V").status.ok());
  EXPECT_GE(fe.plan_cache().stats().snapshot_hits, 1);
}

TEST_F(ServeTest, ShutdownShedsNewRequestsAndDrainsAdmitted) {
  auto system = MakeWorld();
  ServingFrontEnd fe(*system);
  ASSERT_TRUE(fe.QueryView("V").status.ok());
  fe.Shutdown();
  const ServeResult shed = fe.QueryView("V");
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(shed.retry_after.count(), 0);
  EXPECT_EQ(fe.stats().shed, 1);
  fe.Shutdown();  // Idempotent.
}

TEST_F(ServeTest, OverloadShedsPastHighWaterAndEveryFutureResolves) {
  auto system = MakeWorld();
  ServingOptions options;
  options.workers = 1;
  options.queue_capacity = 2;  // high_water = max(1, 2*3/4) = 1.
  ServingFrontEnd fe(*system, options);

  constexpr int kRequests = 300;
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(fe.SubmitView("V"));
  }
  int ok = 0;
  int unavailable = 0;
  for (auto& f : futures) {
    const ServeResult r = f.get();
    if (r.status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(r.status.code(), StatusCode::kUnavailable)
          << r.status.ToString();
      EXPECT_GT(r.retry_after.count(), 0);
      ++unavailable;
    }
  }
  EXPECT_EQ(ok + unavailable, kRequests);
  const ServingStats stats = fe.stats();
  EXPECT_EQ(stats.admitted + stats.shed, kRequests);
  EXPECT_EQ(stats.completed, ok);
  // One worker against a tight submission loop: shedding must kick in.
  EXPECT_GT(stats.shed, 0);
}

// --- Fault sites ---------------------------------------------------------------

TEST_F(ServeTest, AdmitFaultShedsWithInjectedCode) {
  auto system = MakeWorld();
  ServingFrontEnd fe(*system);
  FaultInjection& fi = FaultInjection::Instance();
  ASSERT_TRUE(fi.ArmFromString("serve.admit=0+1:unavailable").ok());
  const ServeResult shed = fe.QueryView("V");
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(shed.attempts, 0);
  EXPECT_EQ(fe.stats().shed, 1);
  EXPECT_EQ(fi.FiredCount("serve.admit"), 1);
  fi.Disarm("serve.admit");
  // Disarmed: byte-identical recovery.
  const ServeResult ok = fe.QueryView("V");
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.relation.cardinality(), 2);
}

TEST_F(ServeTest, InternalExecutionFaultsAreRetriedWithBackoff) {
  auto system = MakeWorld();
  ServingOptions options;
  options.workers = 1;
  options.max_retries = 2;
  options.initial_backoff = std::chrono::microseconds(1);
  options.max_backoff = std::chrono::microseconds(8);
  ServingFrontEnd fe(*system, options);
  FaultInjection& fi = FaultInjection::Instance();

  // First two execution attempts fail with kInternal; the third succeeds.
  ASSERT_TRUE(fi.ArmFromString("serve.execute=0+2").ok());
  const ServeResult recovered = fe.QueryView("V");
  ASSERT_TRUE(recovered.status.ok()) << recovered.status.ToString();
  EXPECT_EQ(recovered.attempts, 3);
  EXPECT_EQ(recovered.relation.cardinality(), 2);
  EXPECT_EQ(fe.stats().retries, 2);
  EXPECT_EQ(fe.stats().completed, 1);
  fi.Disarm("serve.execute");

  // Persistent kInternal exhausts the retry budget and fails.
  ASSERT_TRUE(fi.ArmFromString("serve.execute=0+*").ok());
  const ServeResult exhausted = fe.QueryView("V");
  EXPECT_EQ(exhausted.status.code(), StatusCode::kInternal);
  EXPECT_EQ(exhausted.attempts, 1 + options.max_retries);
  EXPECT_EQ(fe.stats().failed, 1);
  fi.Disarm("serve.execute");

  // kUnavailable is never retried server-side.
  ASSERT_TRUE(fi.ArmFromString("serve.execute=0+1:unavailable").ok());
  const ServeResult unavailable = fe.QueryView("V");
  EXPECT_EQ(unavailable.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.attempts, 1);
  fi.Disarm("serve.execute");
}

TEST_F(ServeTest, SnapshotSwapFaultServesStaleEpochUntilRefresh) {
  auto system = MakeWorld();
  ServingFrontEnd fe(*system);
  FaultInjection& fi = FaultInjection::Instance();

  const auto before = system->snapshots().Current();
  ASSERT_NE(before, nullptr);
  ASSERT_FALSE(system->snapshots().stale());

  // The mutation commits, but its epoch publication fails: readers keep
  // being served the OLD epoch (graceful degradation, not an error).
  ASSERT_TRUE(fi.ArmFromString("eve.snapshot_swap=0+*").ok());
  ASSERT_TRUE(system
                  ->NotifyDataUpdate(DataUpdate{UpdateKind::kInsert,
                                                RelationId{"IS1", "R"},
                                                Row({4, 40})})
                  .ok());
  EXPECT_TRUE(system->snapshots().stale());
  const ServeResult degraded = fe.QueryView("V");
  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_EQ(degraded.epoch, before->epoch());
  EXPECT_EQ(degraded.relation.cardinality(), 2);  // Pre-mutation extent.

  // An explicit refresh while the site is still armed keeps failing...
  EXPECT_EQ(system->RefreshSnapshot().code(), StatusCode::kInternal);
  EXPECT_TRUE(system->snapshots().stale());

  // ...and recovers cleanly once disarmed: fresh epoch, new data served.
  fi.Disarm("eve.snapshot_swap");
  ASSERT_TRUE(system->RefreshSnapshot().ok());
  EXPECT_FALSE(system->snapshots().stale());
  const ServeResult fresh = fe.QueryView("V");
  ASSERT_TRUE(fresh.status.ok()) << fresh.status.ToString();
  EXPECT_NE(fresh.epoch, before->epoch());
  // The committed row (4, 40) joins S's K=4 row in the fresh epoch.
  EXPECT_EQ(fresh.relation.cardinality(), 3);
  const auto adhoc = fe.Query("CREATE VIEW Q AS SELECT R.K, R.X FROM R");
  ASSERT_TRUE(adhoc.status.ok());
  EXPECT_EQ(adhoc.relation.cardinality(), 4);
}

// --- Snapshot-isolation stress (TSan target) -----------------------------------

TEST_F(ServeTest, ConcurrentReadersSeeByteIdenticalPinnedEpochs) {
  auto system = MakeWorld();
  ServingFrontEnd fe(*system);
  PlanCache shared_cache;

  constexpr int kReaders = 8;
  constexpr int kReadsPerReader = 25;
  constexpr int kFrontEndReaders = 2;
  constexpr int kFrontEndReads = 15;

  std::atomic<bool> readers_done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> reads_ok{0};

  // Readers: pin an epoch, execute the pinned view definition through the
  // shared PlanCache, and demand byte-identical output from the reference
  // executor on the SAME epoch.  A reader observing any state from a
  // different epoch (relation data, view definition, or a plan validated
  // against other storage) breaks the equality.
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        const std::shared_ptr<const SystemSnapshot> snap =
            system->snapshots().Current();
        if (snap == nullptr) continue;
        const auto def = snap->View("V");
        if (!def.ok()) {
          ++mismatches;  // V stays alive through every mutation below.
          continue;
        }
        const auto prepared =
            shared_cache.Execute(def.value(), *snap, ExecOptions{});
        const auto reference =
            ExecuteViewReference(def.value(), *snap, ExecOptions{});
        if (!prepared.ok() || !reference.ok()) {
          ++mismatches;
          continue;
        }
        if (SortedTuples(*prepared) != SortedTuples(*reference) ||
            prepared->schema().ToString() != reference->schema().ToString()) {
          ++mismatches;
        } else {
          ++reads_ok;
        }
      }
    });
  }

  // Front-end readers ride the full admission/worker path concurrently;
  // kUnavailable (shed or watchdog) is acceptable, anything else is not.
  std::vector<std::thread> fe_readers;
  fe_readers.reserve(kFrontEndReaders);
  std::atomic<int> fe_errors{0};
  for (int t = 0; t < kFrontEndReaders; ++t) {
    fe_readers.emplace_back([&] {
      for (int i = 0; i < kFrontEndReads; ++i) {
        const ServeResult r = fe.QueryView("V");
        if (r.status.ok()) {
          if (r.epoch == 0 || r.relation.schema().size() != 3) ++fe_errors;
        } else if (r.status.code() != StatusCode::kUnavailable) {
          ++fe_errors;
        }
      }
    });
  }

  // Mutator: inserts, batched deletes, and schema renames, each publishing
  // a fresh epoch.  Runs until every reader finished.
  std::thread mutator([&] {
    int i = 0;
    bool renamed = false;
    while ((!readers_done.load(std::memory_order_acquire) || i < 10) &&
           i < 4000) {
      ++i;
      const int k = 5 + (i % 50);
      ASSERT_TRUE(system
                      ->NotifyDataUpdate(DataUpdate{UpdateKind::kInsert,
                                                    RelationId{"IS1", "R"},
                                                    Row({k, k * 10})})
                      .ok());
      if (i % 3 == 0) {
        ASSERT_TRUE(system
                        ->NotifyDataUpdate(DataUpdate{UpdateKind::kDelete,
                                                      RelationId{"IS1", "R"},
                                                      Row({k, k * 10})})
                        .ok());
      }
      if (i % 7 == 0) {
        const auto report = system->NotifySchemaChange(
            SchemaChange(RenameAttribute{RelationId{"IS1", "R"},
                                         renamed ? "X2" : "X",
                                         renamed ? "X" : "X2"}));
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        renamed = !renamed;
      }
      std::this_thread::yield();
    }
  });

  for (std::thread& r : readers) r.join();
  for (std::thread& r : fe_readers) r.join();
  readers_done.store(true, std::memory_order_release);
  mutator.join();
  fe.Shutdown();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(fe_errors.load(), 0);
  EXPECT_EQ(reads_ok.load(), kReaders * kReadsPerReader);
  // The stress must have actually raced readers against epoch swaps.
  EXPECT_GT(system->snapshots().CurrentSequence(), 1u);
}

// Publish installs a snapshot before it advances CurrentSequence(), so a
// worker can pin an epoch one publication AHEAD of the sequence it then
// reads.  With a lag bound larger than every publication the stream makes,
// no read may be refused or cancelled for lagging: an ahead pin has lag 0.
TEST_F(ServeTest, PinsAheadOfThePublishedSequenceAreNotLagging) {
  auto system = MakeWorld();
  constexpr int kClients = 4;
  constexpr int kReadsPerClient = 600;
  constexpr int kMaxPublishes = 200000;
  ServingOptions options;
  options.workers = 2;
  options.max_epoch_lag = kMaxPublishes + 1;
  ServingFrontEnd fe(*system, options);

  std::atomic<bool> clients_done{false};
  std::thread publisher([&] {
    for (int i = 0;
         i < kMaxPublishes && !clients_done.load(std::memory_order_acquire);
         ++i) {
      ASSERT_TRUE(system->RefreshSnapshot().ok());
    }
  });

  std::atomic<int> lag_refusals{0};
  std::atomic<int> other_errors{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kReadsPerClient; ++i) {
        const ServeResult r = fe.QueryView("V");
        if (r.status.ok()) continue;
        if (r.status.code() == StatusCode::kUnavailable) {
          ++lag_refusals;
        } else {
          ++other_errors;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  clients_done.store(true, std::memory_order_release);
  publisher.join();
  fe.Shutdown();

  // Synchronous clients never fill the admission queue, so every
  // kUnavailable is a lag verdict.
  EXPECT_EQ(lag_refusals.load(), 0);
  EXPECT_EQ(other_errors.load(), 0);
  const ServingStats stats = fe.stats();
  EXPECT_EQ(stats.watchdog_kills, 0);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.completed, kClients * kReadsPerClient);
  EXPECT_GT(system->snapshots().CurrentSequence(), 1u);
}

}  // namespace
}  // namespace eve
