// Tests for the parallel execution layer: ParallelFor's exactly-once
// contract, thread-count-independent sweep results (the property the
// experiment drivers rely on for identical stdout), and concurrent
// execution of one prepared plan / one plan cache from many threads.
// These tests are the payload of the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "algebra/executor.h"
#include "bench_util/distributions.h"
#include "bench_util/experiment_common.h"
#include "common/parallel.h"
#include "common/random.h"
#include "esql/parser.h"
#include "misd/mkb.h"
#include "oracles/executor_reference.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"
#include "storage/generator.h"
#include "storage/hash_index.h"

namespace eve {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 3, 8}) {
    for (const int64_t n : {0, 1, 7, 100}) {
      std::vector<std::atomic<int>> counts(n);
      for (auto& c : counts) c.store(0);
      ParallelFor(n, threads, [&](int64_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(counts[i].load(), 1) << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ParallelFor, MoreThreadsThanWork) {
  std::atomic<int> total{0};
  ParallelFor(3, 16, [&](int64_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 3);
}

TEST(ParallelFor, NegativeAndZeroCountsAreNoOps) {
  ParallelFor(0, 4, [&](int64_t) { FAIL(); });
  ParallelFor(-5, 4, [&](int64_t) { FAIL(); });
}

TEST(DefaultThreadCount, IsPositive) { EXPECT_GE(DefaultThreadCount(), 1); }

// The experiment drivers print identical tables for every thread count
// because the sweep helpers hand back results indexed like their input.
TEST(Sweep, ResultsIndependentOfThreadCount) {
  const UniformParams params;
  const CostModelOptions options = MakeUniformOptions(params);
  std::vector<std::vector<int>> dists;
  for (int m = 1; m <= params.num_relations; ++m) {
    for (std::vector<int>& d : Compositions(params.num_relations, m)) {
      dists.push_back(std::move(d));
    }
  }
  const auto serial = SweepSiteAveragedUpdateCost(dists, params, options, 1);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->size(), dists.size());
  for (const int threads : {2, 4, 7}) {
    const auto parallel =
        SweepSiteAveragedUpdateCost(dists, params, options, threads);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->size(), serial->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      // The per-index computation is identical, so even the floating-point
      // results match bit for bit.
      EXPECT_EQ((*serial)[i].messages, (*parallel)[i].messages);
      EXPECT_EQ((*serial)[i].bytes, (*parallel)[i].bytes);
      EXPECT_EQ((*serial)[i].ios, (*parallel)[i].ios);
    }
  }

  const auto first_serial = SweepFirstSiteUpdateCost(dists, params, options, 1);
  const auto first_parallel =
      SweepFirstSiteUpdateCost(dists, params, options, 4);
  ASSERT_TRUE(first_serial.ok() && first_parallel.ok());
  for (size_t i = 0; i < first_serial->size(); ++i) {
    EXPECT_EQ((*first_serial)[i].bytes, (*first_parallel)[i].bytes);
  }

  WorkloadOptions workload;
  workload.model = WorkloadModel::kM3PerSite;
  const auto wl_serial =
      SweepWorkloadCost(dists, params, workload, options, 1);
  const auto wl_parallel =
      SweepWorkloadCost(dists, params, workload, options, 4);
  ASSERT_TRUE(wl_serial.ok() && wl_parallel.ok());
  for (size_t i = 0; i < wl_serial->size(); ++i) {
    EXPECT_EQ((*wl_serial)[i].updates, (*wl_parallel)[i].updates);
    EXPECT_EQ((*wl_serial)[i].factors.bytes, (*wl_parallel)[i].factors.bytes);
  }
}

struct JoinFixture {
  MapProvider provider;
  ViewDefinition view;

  JoinFixture() {
    Random rng(7);
    GeneratorOptions gen;
    gen.cardinality = 200;
    gen.num_attributes = 2;
    gen.key_domain = 40;
    gen.value_domain = 100;
    for (const char* name : {"R", "S", "T"}) {
      EXPECT_TRUE(provider.Add(GenerateRelation(name, gen, &rng)).ok());
    }
    view = ParseViewDefinition(
               "CREATE VIEW V AS SELECT R.A, S.B AS SB, T.B AS TB "
               "FROM R, S, T WHERE (R.A = S.A) AND (S.A = T.A) "
               "AND (R.B >= 20)")
               .value();
  }
};

std::vector<Tuple> SortedTuples(const Relation& rel) {
  std::vector<Tuple> tuples = rel.CopyTuples();
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

// One plan, many concurrent executions: every thread must get the exact
// reference result.  Under TSan this also proves the per-Relation cache
// synchronization (plans are prepared with warmed indexes, but the
// nested-loop/no-cache variant still builds scoped indexes per call).
TEST(ConcurrentExecution, SharedPreparedPlan) {
  JoinFixture fixture;
  const auto reference = ExecuteViewReference(fixture.view, fixture.provider);
  ASSERT_TRUE(reference.ok());
  const auto expected = SortedTuples(*reference);

  const auto plan = PrepareView(fixture.view, fixture.provider);
  ASSERT_TRUE(plan.ok());

  constexpr int kRounds = 16;
  std::vector<int> ok_rounds(kRounds, 0);
  ParallelFor(kRounds, 4, [&](int64_t i) {
    const auto result = ExecutePrepared(**plan);
    if (result.ok() && SortedTuples(*result) == expected) ok_rounds[i] = 1;
  });
  for (int i = 0; i < kRounds; ++i) EXPECT_EQ(ok_rounds[i], 1) << "round " << i;
}

// Concurrent first use: index builds race-free through the cache mutex
// even without an explicit warm-up.
TEST(ConcurrentExecution, ColdIndexCacheBuild) {
  Random rng(13);
  GeneratorOptions gen;
  gen.cardinality = 500;
  gen.num_attributes = 2;
  gen.key_domain = 50;
  const Relation rel = GenerateRelation("R", gen, &rng);

  std::vector<const HashIndex*> seen(8, nullptr);
  ParallelFor(8, 8, [&](int64_t i) { seen[i] = &rel.Index(i % 2); });
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(seen[i], nullptr);
    // All threads asking for the same column got the same cached instance.
    EXPECT_EQ(seen[i], seen[i % 2]);
  }
}

TEST(ConcurrentExecution, SharedPlanCache) {
  JoinFixture fixture;
  const auto reference = ExecuteViewReference(fixture.view, fixture.provider);
  ASSERT_TRUE(reference.ok());
  const auto expected = SortedTuples(*reference);

  PlanCache cache;
  constexpr int kRounds = 16;
  std::vector<int> ok_rounds(kRounds, 0);
  ParallelFor(kRounds, 4, [&](int64_t i) {
    const auto result = cache.Execute(fixture.view, fixture.provider);
    if (result.ok() && SortedTuples(*result) == expected) ok_rounds[i] = 1;
  });
  for (int i = 0; i < kRounds; ++i) EXPECT_EQ(ok_rounds[i], 1) << "round " << i;
  // Every round either hit or planned; racing first misses may plan twice,
  // but the counters must account for every round.
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.replans, kRounds);
  EXPECT_GE(stats.hits, 1);
}

// Concurrent TupleHashes builds + hashed set comparison.
TEST(ConcurrentExecution, SharedTupleHashCache) {
  Random rng(19);
  GeneratorOptions gen;
  gen.cardinality = 300;
  gen.num_attributes = 2;
  gen.key_domain = 30;
  const Relation a = GenerateRelation("R", gen, &rng);
  const Relation b = a.Distinct();

  std::vector<int> equal(8, 0);
  ParallelFor(8, 4, [&](int64_t i) { equal[i] = SetEquals(a, b) ? 1 : 0; });
  for (int i = 0; i < 8; ++i) EXPECT_EQ(equal[i], 1);
}

// Concurrent closure queries against one const MKB: the memo maps behind
// PcEdgesFromTransitive are mutex-guarded (like the Relation caches), which
// is what lets the extent-replay drivers run synchronize rounds from
// ParallelFor workers.  Every worker must see the full closure regardless
// of who populates the memo first.
TEST(ConcurrentExecution, SharedMkbClosureMemo) {
  MetaKnowledgeBase mkb;
  const Schema ab({Attribute::Make("A", DataType::kInt64),
                   Attribute::Make("B", DataType::kInt64)});
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(mkb.RegisterRelationWithStats(
                       {"IS" + std::to_string(i), "S" + std::to_string(i)},
                       ab, 1000 + i, 0.5)
                    .ok());
  }
  for (int i = 0; i + 1 < 6; ++i) {
    ASSERT_TRUE(mkb.AddPcConstraint(MakeProjectionPc(
                       {"IS" + std::to_string(i), "S" + std::to_string(i)},
                       {"IS" + std::to_string(i + 1),
                        "S" + std::to_string(i + 1)},
                       {"A", "B"}, PcRelationType::kSubset))
                    .ok());
  }
  const MetaKnowledgeBase& shared = mkb;
  const size_t expected =
      shared.PcEdgesFromTransitiveUncached({"IS0", "S0"}, 4).size();
  ASSERT_GT(expected, 1u);  // The chain composes transitively.

  std::vector<size_t> sizes(16, 0);
  ParallelFor(16, 4, [&](int64_t i) {
    // Alternate sources so workers race on distinct and identical keys.
    const std::string n = std::to_string(i % 3);
    sizes[i] = shared.PcEdgesFromTransitive({"IS" + n, "S" + n}, 4).size();
  });
  for (int i = 0; i < 16; ++i) {
    const size_t direct =
        shared
            .PcEdgesFromTransitiveUncached(
                {"IS" + std::to_string(i % 3), "S" + std::to_string(i % 3)}, 4)
            .size();
    EXPECT_EQ(sizes[i], direct) << "worker " << i;
  }
}

}  // namespace
}  // namespace eve
