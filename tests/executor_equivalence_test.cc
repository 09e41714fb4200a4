// Equivalence tests for the optimized executor: the cost-ordered row-id
// join engine must produce the same result *sets* (and, under bag
// semantics, multisets) as the reference executor for every option
// combination, across single-relation, multi-join, theta-join, and
// empty-result views.  Also covers the per-Relation index-cache
// invalidation contract.

#include <gtest/gtest.h>

#include <algorithm>

#include "algebra/executor.h"
#include "common/random.h"
#include "esql/parser.h"
#include "oracles/executor_reference.h"
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

// Sorted distinct-tuple rendering, as a canonical comparison key.
std::vector<Tuple> SortedTuples(const Relation& rel) {
  std::vector<Tuple> tuples = rel.CopyTuples();
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

// Executes `view` with every optimization combination and checks all of
// them against the reference executor.
void ExpectAllModesMatchReference(const ViewDefinition& view,
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
      const auto optimized = ExecuteView(view, provider, opts);
      ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
      EXPECT_EQ(optimized->schema().ToString(), reference->schema().ToString());
      // Under bag semantics the multisets must match (join reordering
      // never changes duplicate counts), so compare sorted tuple lists.
      EXPECT_EQ(SortedTuples(*optimized), SortedTuples(*reference))
          << "reorder=" << reorder << " cache=" << cache << "\noptimized:\n"
          << optimized->ToString() << "reference:\n"
          << reference->ToString();
    }
  }
}

TEST(ExecutorEquivalence, SingleRelationSelection) {
  MapProvider provider;
  ASSERT_TRUE(provider
                  .Add(MakeRelation("R", {"A", "B"},
                                    {{1, 10}, {2, 20}, {3, 30}, {2, 20}}))
                  .ok());
  const ViewDefinition view =
      Parse("CREATE VIEW V AS SELECT R.B FROM R WHERE R.A >= 2");
  ExpectAllModesMatchReference(view, provider, /*distinct=*/true);
  ExpectAllModesMatchReference(view, provider, /*distinct=*/false);
}

TEST(ExecutorEquivalence, EmptyResultShortCircuit) {
  MapProvider provider;
  ASSERT_TRUE(provider.Add(MakeRelation("R", {"A"}, {{1}, {2}})).ok());
  ASSERT_TRUE(provider.Add(MakeRelation("S", {"A", "B"}, {{1, 5}})).ok());
  ASSERT_TRUE(provider.Add(MakeRelation("T", {"B"}, {{5}})).ok());
  // R.A > 100 empties the working set before any join.
  const ViewDefinition view = Parse(
      "CREATE VIEW V AS SELECT R.A, T.B FROM R, S, T "
      "WHERE (R.A > 100) AND (R.A = S.A) AND (S.B = T.B)");
  ExpectAllModesMatchReference(view, provider);
}

TEST(ExecutorEquivalence, ThetaJoinAndCrossProduct) {
  MapProvider provider;
  ASSERT_TRUE(provider.Add(MakeRelation("R", {"A"}, {{1}, {5}, {9}})).ok());
  ASSERT_TRUE(provider.Add(MakeRelation("S", {"B"}, {{3}, {4}, {8}})).ok());
  ExpectAllModesMatchReference(
      Parse("CREATE VIEW V AS SELECT R.A, S.B FROM R, S WHERE R.A < S.B"),
      provider);
  // Pure cross product (no join clause at all).
  ExpectAllModesMatchReference(
      Parse("CREATE VIEW V AS SELECT R.A, S.B FROM R, S"), provider,
      /*distinct=*/false);
}

TEST(ExecutorEquivalence, MultiJoinWithSelectionsAndAliases) {
  MapProvider provider;
  ASSERT_TRUE(provider
                  .Add(MakeRelation("R", {"K", "X"},
                                    {{1, 7}, {2, 8}, {3, 9}, {1, 6}}))
                  .ok());
  ASSERT_TRUE(provider
                  .Add(MakeRelation("S", {"K", "Y"},
                                    {{1, 9}, {2, 10}, {3, 11}, {3, 12}}))
                  .ok());
  ASSERT_TRUE(provider.Add(MakeRelation("T", {"K", "Z"}, {{1, 11}, {3, 13}})).ok());
  const ViewDefinition view = Parse(
      "CREATE VIEW V AS SELECT a.X, b.Y, c.Z FROM R a, S b, T c "
      "WHERE (a.K = b.K) AND (b.K = c.K) AND (b.Y >= 9)");
  ExpectAllModesMatchReference(view, provider, /*distinct=*/true);
  ExpectAllModesMatchReference(view, provider, /*distinct=*/false);
}

// Randomized four-way joins: star and chain shapes with local selections,
// compared against the reference executor under both semantics.
TEST(ExecutorEquivalence, RandomizedFourWayJoins) {
  Random rng(21);
  for (int round = 0; round < 8; ++round) {
    GeneratorOptions gen;
    gen.cardinality = 40 + 10 * (round % 3);
    gen.num_attributes = 2;
    gen.key_domain = 8 + round;
    gen.value_domain = 40;
    MapProvider provider;
    for (const char* name : {"R", "S", "T", "U"}) {
      ASSERT_TRUE(provider.Add(GenerateRelation(name, gen, &rng)).ok());
    }
    // Chain: R-S-T-U.
    ExpectAllModesMatchReference(
        Parse("CREATE VIEW V AS SELECT R.A, S.B, T.B AS TB, U.B AS UB "
              "FROM R, S, T, U WHERE (R.A = S.A) AND (S.A = T.A) "
              "AND (T.A = U.A) AND (R.B >= 10)"),
        provider, /*distinct=*/round % 2 == 0);
    // Star: S, T, U all joined to R.
    ExpectAllModesMatchReference(
        Parse("CREATE VIEW V AS SELECT R.B, S.B AS SB, T.B AS TB, U.B AS UB "
              "FROM R, S, T, U WHERE (R.A = S.A) AND (R.A = T.A) "
              "AND (R.A = U.A) AND (U.B < 35)"),
        provider, /*distinct=*/round % 2 == 1);
  }
}

// The per-Relation index cache must be dropped on mutation: a stale index
// would miss freshly inserted rows or return ghost row ids.
TEST(IndexCache, InvalidatedOnMutation) {
  Relation rel = MakeRelation("R", {"A", "B"}, {{1, 10}, {2, 20}, {1, 30}});
  const HashIndex& index = rel.Index(0);
  EXPECT_EQ(index.Lookup(Value(static_cast<int64_t>(1))).size(), 2u);
  // Same column twice: cache returns the same instance.
  EXPECT_EQ(&rel.Index(0), &index);

  ASSERT_TRUE(rel.Insert(Tuple{Value(static_cast<int64_t>(1)),
                               Value(static_cast<int64_t>(40))})
                  .ok());
  EXPECT_EQ(rel.Index(0).Lookup(Value(static_cast<int64_t>(1))).size(), 3u);

  rel.Erase(Tuple{Value(static_cast<int64_t>(2)), Value(static_cast<int64_t>(20))});
  EXPECT_EQ(rel.Index(0).Lookup(Value(static_cast<int64_t>(2))).size(), 0u);

  rel.Clear();
  EXPECT_EQ(rel.Index(0).DistinctKeys(), 0);
}

// Executing through a provider twice with an interleaved insert must see
// the new tuple even with the index cache enabled.
TEST(IndexCache, ExecuteSeesMutationsBetweenCalls) {
  MapProvider provider;
  ASSERT_TRUE(provider.Add(MakeRelation("R", {"A"}, {{1}, {2}})).ok());
  ASSERT_TRUE(provider.Add(MakeRelation("S", {"A", "B"}, {{1, 5}, {2, 6}})).ok());
  const ViewDefinition view = Parse(
      "CREATE VIEW V AS SELECT R.A, S.B FROM R, S WHERE R.A = S.A");

  const auto before = ExecuteView(view, provider);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->cardinality(), 2);

  // MapProvider stores relations by value; mutate through Resolve.
  auto resolved = provider.Resolve("", "S");
  ASSERT_TRUE(resolved.ok());
  const_cast<Relation*>(resolved.value())
      ->InsertUnchecked(
          Tuple{Value(static_cast<int64_t>(2)), Value(static_cast<int64_t>(7))});

  const auto after = ExecuteView(view, provider);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->cardinality(), 3);
  EXPECT_TRUE(after->ContainsTuple(
      Tuple{Value(static_cast<int64_t>(2)), Value(static_cast<int64_t>(7))}));
}

}  // namespace
}  // namespace eve
