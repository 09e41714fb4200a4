// Tests for the prepared-view planning layer: executing a prepared plan
// (once or repeatedly) must match the reference executor; plans must
// detect relation mutation/replacement through Validate; and the PlanCache
// must reuse, revalidate, and evict correctly -- including the
// schema-change epoch clear wired into EveSystem.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "algebra/executor.h"
#include "common/random.h"
#include "esql/parser.h"
#include "eve/eve_system.h"
#include "oracles/executor_reference.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"
#include "storage/generator.h"
#include "storage/hash_index.h"

namespace eve {
namespace {

ViewDefinition Parse(const std::string& text) {
  auto result = ParseViewDefinition(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value();
}

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

// Prepares `view` under every option combination and executes each plan
// twice (testing reuse), checking both executions against the reference.
void ExpectPreparedMatchesReference(const ViewDefinition& view,
                                    const RelationProvider& provider,
                                    bool distinct = true) {
  ExecOptions ref_opts;
  ref_opts.distinct = distinct;
  const auto reference = ExecuteViewReference(view, provider, ref_opts);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const bool reorder : {false, true}) {
    for (const bool cache : {false, true}) {
      ExecOptions opts;
      opts.distinct = distinct;
      opts.reorder_joins = reorder;
      opts.use_index_cache = cache;
      const auto plan = PrepareView(view, provider, opts);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_TRUE((*plan)->Validate(provider));
      for (int round = 0; round < 2; ++round) {
        const auto result = ExecutePrepared(**plan);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->schema().ToString(), reference->schema().ToString());
        EXPECT_EQ(SortedTuples(*result), SortedTuples(*reference))
            << "round=" << round << " reorder=" << reorder
            << " cache=" << cache << "\nprepared:\n"
            << result->ToString() << "reference:\n"
            << reference->ToString();
      }
    }
  }
}

TEST(PreparedView, MatchesReferenceOnCorpus) {
  MapProvider provider;
  ASSERT_TRUE(provider
                  .Add(MakeRelation("R", {"K", "X"},
                                    {{1, 7}, {2, 8}, {3, 9}, {1, 6}}))
                  .ok());
  ASSERT_TRUE(provider
                  .Add(MakeRelation("S", {"K", "Y"},
                                    {{1, 9}, {2, 10}, {3, 11}, {3, 12}}))
                  .ok());
  ASSERT_TRUE(
      provider.Add(MakeRelation("T", {"K", "Z"}, {{1, 11}, {3, 13}})).ok());

  for (const bool distinct : {true, false}) {
    // Single relation + selection.
    ExpectPreparedMatchesReference(
        Parse("CREATE VIEW V AS SELECT R.X FROM R WHERE R.K >= 2"), provider,
        distinct);
    // Multi-join with aliases and a local selection.
    ExpectPreparedMatchesReference(
        Parse("CREATE VIEW V AS SELECT a.X, b.Y, c.Z FROM R a, S b, T c "
              "WHERE (a.K = b.K) AND (b.K = c.K) AND (b.Y >= 9)"),
        provider, distinct);
    // Theta join.
    ExpectPreparedMatchesReference(
        Parse("CREATE VIEW V AS SELECT R.X, S.Y FROM R, S WHERE R.K < S.K"),
        provider, distinct);
    // Cross product.
    ExpectPreparedMatchesReference(
        Parse("CREATE VIEW V AS SELECT R.K, T.Z FROM R, T"), provider,
        distinct);
    // Empty result (selection empties the driver).
    ExpectPreparedMatchesReference(
        Parse("CREATE VIEW V AS SELECT R.X, S.Y FROM R, S "
              "WHERE (R.K > 100) AND (R.K = S.K)"),
        provider, distinct);
  }
}

TEST(PreparedView, MatchesReferenceOnRandomizedJoins) {
  Random rng(33);
  for (int round = 0; round < 4; ++round) {
    GeneratorOptions gen;
    gen.cardinality = 40 + 10 * round;
    gen.num_attributes = 2;
    gen.key_domain = 8 + round;
    gen.value_domain = 40;
    MapProvider provider;
    for (const char* name : {"R", "S", "T", "U"}) {
      ASSERT_TRUE(provider.Add(GenerateRelation(name, gen, &rng)).ok());
    }
    ExpectPreparedMatchesReference(
        Parse("CREATE VIEW V AS SELECT R.A, S.B, T.B AS TB, U.B AS UB "
              "FROM R, S, T, U WHERE (R.A = S.A) AND (S.A = T.A) "
              "AND (T.A = U.A) AND (R.B >= 10)"),
        provider, round % 2 == 0);
  }
}

TEST(PreparedView, ValidateDetectsMutationAndReplacement) {
  MapProvider provider;
  ASSERT_TRUE(provider.Add(MakeRelation("R", {"A"}, {{1}, {2}})).ok());
  ASSERT_TRUE(
      provider.Add(MakeRelation("S", {"A", "B"}, {{1, 5}, {2, 6}})).ok());
  const ViewDefinition view =
      Parse("CREATE VIEW V AS SELECT R.A, S.B FROM R, S WHERE R.A = S.A");

  const auto plan = PrepareView(view, provider);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE((*plan)->Validate(provider));

  // Mutation through the provider invalidates (version changes).
  auto resolved = provider.Resolve("", "S");
  ASSERT_TRUE(resolved.ok());
  const_cast<Relation*>(resolved.value())
      ->InsertUnchecked(
          Tuple{Value(static_cast<int64_t>(2)), Value(static_cast<int64_t>(7))});
  EXPECT_FALSE((*plan)->Validate(provider));

  // A fresh plan sees the new tuple.
  const auto replanned = PrepareView(view, provider);
  ASSERT_TRUE(replanned.ok());
  const auto result = ExecutePrepared(**replanned);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cardinality(), 3);
}

TEST(PreparedView, StalePushdownWouldBeWrongWithoutRevalidation) {
  // The pushdown row-id lists snapshot relation contents; this documents
  // why ExecutePrepared must not run against a mutated relation and why
  // PlanCache revalidates.  After an insert that satisfies the local
  // predicate, the stale plan misses the row while a replanned one sees it.
  MapProvider provider;
  ASSERT_TRUE(
      provider.Add(MakeRelation("R", {"A", "B"}, {{1, 10}, {2, 20}})).ok());
  const ViewDefinition view =
      Parse("CREATE VIEW V AS SELECT R.B FROM R WHERE R.A >= 2");

  const auto stale = PrepareView(view, provider);
  ASSERT_TRUE(stale.ok());

  auto resolved = provider.Resolve("", "R");
  ASSERT_TRUE(resolved.ok());
  const_cast<Relation*>(resolved.value())
      ->InsertUnchecked(Tuple{Value(static_cast<int64_t>(3)),
                              Value(static_cast<int64_t>(30))});

  EXPECT_FALSE((*stale)->Validate(provider));
  const auto fresh = PrepareView(view, provider);
  ASSERT_TRUE(fresh.ok());
  const auto result = ExecutePrepared(**fresh);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cardinality(), 2);
  EXPECT_TRUE(result->ContainsTuple(Tuple{Value(static_cast<int64_t>(30))}));
}

TEST(PlanCache, ReusesUntilMutationThenReplans) {
  MapProvider provider;
  ASSERT_TRUE(provider.Add(MakeRelation("R", {"A"}, {{1}, {2}})).ok());
  ASSERT_TRUE(
      provider.Add(MakeRelation("S", {"A", "B"}, {{1, 5}, {2, 6}})).ok());
  const ViewDefinition view =
      Parse("CREATE VIEW V AS SELECT R.A, S.B FROM R, S WHERE R.A = S.A");

  PlanCache cache;
  const auto first = cache.Execute(view, provider);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->cardinality(), 2);
  const auto second = cache.Execute(view, provider);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().replans, 0);
  EXPECT_EQ(cache.size(), 1);

  // The same plan object is handed out on a hit.
  const auto plan_a = cache.Get(view, provider);
  const auto plan_b = cache.Get(view, provider);
  ASSERT_TRUE(plan_a.ok() && plan_b.ok());
  EXPECT_EQ(plan_a->get(), plan_b->get());

  // Relation mutation: next Execute revalidates, replans, and sees the row.
  auto resolved = provider.Resolve("", "S");
  ASSERT_TRUE(resolved.ok());
  const_cast<Relation*>(resolved.value())
      ->InsertUnchecked(
          Tuple{Value(static_cast<int64_t>(2)), Value(static_cast<int64_t>(7))});
  const auto after = cache.Execute(view, provider);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->cardinality(), 3);
  EXPECT_EQ(cache.stats().replans, 1);
  EXPECT_EQ(cache.size(), 1);
}

TEST(PlanCache, OptionsAndDefinitionsKeySeparateEntries) {
  MapProvider provider;
  ASSERT_TRUE(provider.Add(MakeRelation("R", {"A"}, {{1}, {1}, {2}})).ok());
  PlanCache cache;

  ExecOptions bag;
  bag.distinct = false;
  ASSERT_TRUE(cache.Execute(Parse("CREATE VIEW V AS SELECT R.A FROM R"),
                            provider)
                  .ok());
  ASSERT_TRUE(cache.Execute(Parse("CREATE VIEW V AS SELECT R.A FROM R"),
                            provider, bag)
                  .ok());
  // Same name, different WHERE: a third entry (evolved definitions must
  // not collide with their predecessors).
  ASSERT_TRUE(
      cache.Execute(Parse("CREATE VIEW V AS SELECT R.A FROM R WHERE R.A >= 2"),
                    provider)
          .ok());
  EXPECT_EQ(cache.size(), 3);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0);
}

TEST(PlanCache, LruEvictionBoundsSize) {
  MapProvider provider;
  ASSERT_TRUE(provider.Add(MakeRelation("R", {"A"}, {{1}, {2}, {3}})).ok());
  PlanCache cache(/*capacity=*/2);
  EXPECT_EQ(cache.capacity(), 2);

  const ViewDefinition v1 = Parse("CREATE VIEW V1 AS SELECT R.A FROM R");
  const ViewDefinition v2 =
      Parse("CREATE VIEW V2 AS SELECT R.A FROM R WHERE R.A >= 2");
  const ViewDefinition v3 =
      Parse("CREATE VIEW V3 AS SELECT R.A FROM R WHERE R.A >= 3");

  ASSERT_TRUE(cache.Get(v1, provider).ok());
  ASSERT_TRUE(cache.Get(v2, provider).ok());
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.stats().evictions, 0);

  // Touch v1 so v2 becomes the least recently used, then overflow with v3.
  ASSERT_TRUE(cache.Get(v1, provider).ok());
  ASSERT_TRUE(cache.Get(v3, provider).ok());
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.stats().evictions, 1);

  // v1 and v3 are still cached (hits); v2 was evicted (miss on return).
  const int64_t hits_before = cache.stats().hits;
  ASSERT_TRUE(cache.Get(v1, provider).ok());
  ASSERT_TRUE(cache.Get(v3, provider).ok());
  EXPECT_EQ(cache.stats().hits, hits_before + 2);
  const int64_t misses_before = cache.stats().misses;
  ASSERT_TRUE(cache.Get(v2, provider).ok());
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
  EXPECT_EQ(cache.stats().evictions, 2);
}

TEST(PlanCache, SnapshotEpochFastPathSkipsValidationAndCountsReplans) {
  EveSystem system;
  Relation r = MakeRelation("R", {"A", "B"}, {{1, 10}, {2, 20}});
  ASSERT_TRUE(system.RegisterRelation("IS1", std::move(r)).ok());
  const ViewDefinition view = Parse("CREATE VIEW Q AS SELECT R.A, R.B FROM R");

  PlanCache cache;
  const std::shared_ptr<const SystemSnapshot> snap1 =
      system.snapshots().Current();
  ASSERT_NE(snap1, nullptr);
  ASSERT_NE(snap1->SnapshotEpoch(), 0u);

  ASSERT_TRUE(cache.Execute(view, *snap1).ok());
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().snapshot_hits, 0);

  // Same pinned epoch: the entry cannot have gone stale, so repeats take
  // the fast path that skips per-relation Validate.
  ASSERT_TRUE(cache.Execute(view, *snap1).ok());
  ASSERT_TRUE(cache.Execute(view, *snap1).ok());
  EXPECT_EQ(cache.stats().hits, 2);
  EXPECT_EQ(cache.stats().snapshot_hits, 2);
  EXPECT_EQ(cache.stats().replans, 0);

  // A mutation publishes a new epoch; executing against it replans, and
  // the staleness is attributed to the epoch swap.
  ASSERT_TRUE(system
                  .NotifyDataUpdate(DataUpdate{
                      UpdateKind::kInsert, RelationId{"IS1", "R"},
                      Tuple{Value(static_cast<int64_t>(3)),
                            Value(static_cast<int64_t>(30))}})
                  .ok());
  const std::shared_ptr<const SystemSnapshot> snap2 =
      system.snapshots().Current();
  ASSERT_NE(snap2, nullptr);
  EXPECT_NE(snap2->SnapshotEpoch(), snap1->SnapshotEpoch());
  const auto after = cache.Execute(view, *snap2);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->cardinality(), 3);
  EXPECT_EQ(cache.stats().replans, 1);
  EXPECT_EQ(cache.stats().epoch_replans, 1);

  // The refreshed entry serves the new epoch from the fast path again.
  ASSERT_TRUE(cache.Execute(view, *snap2).ok());
  EXPECT_EQ(cache.stats().snapshot_hits, 3);

  // Non-snapshot providers (epoch 0) never take the fast path.
  MapProvider plain;
  ASSERT_TRUE(
      plain.Add(MakeRelation("R", {"A", "B"}, {{1, 10}, {2, 20}})).ok());
  PlanCache uncached;
  ASSERT_TRUE(uncached.Execute(view, plain).ok());
  ASSERT_TRUE(uncached.Execute(view, plain).ok());
  EXPECT_EQ(uncached.stats().hits, 1);
  EXPECT_EQ(uncached.stats().snapshot_hits, 0);
}

TEST(EveSystemPlanCache, MaterializationPopulatesAndSchemaChangeClears) {
  EveSystem system;
  Relation r = MakeRelation("R", {"A", "B"}, {{1, 10}, {2, 20}});
  ASSERT_TRUE(system.RegisterRelation("IS1", std::move(r)).ok());
  ASSERT_TRUE(
      system.DefineView("CREATE VIEW V AS SELECT R.A, R.B FROM R").ok());
  EXPECT_EQ(system.plan_cache().size(), 1);
  EXPECT_EQ(system.plan_cache().stats().misses, 1);

  // Deleting R kills the view (no constraints license a replacement): no
  // rematerialization happens, so the epoch clear is observable.
  const auto report = system.NotifySchemaChange(
      SchemaChange(DeleteRelation{RelationId{"IS1", "R"}}));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->views.size(), 1u);
  EXPECT_EQ(report->views[0].resulting_state, ViewState::kDead);
  EXPECT_EQ(system.plan_cache().size(), 0);
}

TEST(EveSystemPlanCache, DataUpdateRevalidatesOnRematerialization) {
  EveSystem system;
  Relation r = MakeRelation("R", {"A", "B"}, {{1, 10}, {2, 20}});
  ASSERT_TRUE(system.RegisterRelation("IS1", std::move(r)).ok());
  ASSERT_TRUE(
      system.DefineView("CREATE VIEW V AS SELECT R.A, R.B FROM R").ok());

  // The maintainer updates the extent incrementally; a later view
  // definition (rematerialization path) must replan against the mutated
  // relation rather than reuse the stale pushdown snapshot.
  const auto counters = system.NotifyDataUpdate(
      DataUpdate{UpdateKind::kInsert, RelationId{"IS1", "R"},
                 Tuple{Value(static_cast<int64_t>(3)),
                       Value(static_cast<int64_t>(30))}});
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  const auto extent = system.GetViewExtent("V");
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->cardinality(), 3);

  ASSERT_TRUE(
      system.DefineView("CREATE VIEW W AS SELECT R.B FROM R WHERE R.A >= 3")
          .ok());
  const auto w = system.GetViewExtent("W");
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->cardinality(), 1);
  EXPECT_TRUE(w->ContainsTuple(Tuple{Value(static_cast<int64_t>(30))}));
}

TEST(WarmIndexes, PrebuildsAndIgnoresOutOfRange) {
  Relation rel = MakeRelation("R", {"A", "B"}, {{1, 10}, {2, 20}, {1, 30}});
  rel.WarmIndexes({0, 1, -3, 99});  // Out-of-range columns are ignored.
  const HashIndex& a = rel.Index(0);
  const HashIndex& b = rel.Index(1);
  EXPECT_EQ(a.Lookup(Value(static_cast<int64_t>(1))).size(), 2u);
  EXPECT_EQ(b.Lookup(Value(static_cast<int64_t>(20))).size(), 1u);
  // Warmed instances are the cached ones.
  EXPECT_EQ(&rel.Index(0), &a);
  EXPECT_EQ(&rel.Index(1), &b);
}

}  // namespace
}  // namespace eve
