// Maintenance-simulator tests: Algorithm 1 executed on real tuples.
//   * Incremental maintenance equals recomputation (insert and delete),
//     including randomized update streams.
//   * Observed message/byte counts equal the analytic model's expectation
//     on uniform workloads engineered to match the model's assumptions
//     (the paper's §8 "future work" validation).

#include <gtest/gtest.h>

#include <algorithm>

#include "algebra/executor.h"
#include "common/random.h"
#include "maintenance/maintainer.h"
#include "esql/parser.h"
#include "oracles/executor_reference.h"
#include "plan/plan_cache.h"
#include "qc/cost_model.h"
#include "storage/generator.h"

namespace eve {
namespace {

ViewDefinition Parse(const std::string& text) {
  auto result = ParseViewDefinition(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value();
}

Relation MakeRelation(const std::string& name,
                      const std::vector<std::string>& attrs,
                      const std::vector<std::vector<int>>& rows,
                      int attr_bytes = 50) {
  std::vector<Attribute> schema;
  for (const std::string& a : attrs) {
    schema.push_back(Attribute::Make(a, DataType::kInt64, attr_bytes));
  }
  Relation rel(name, Schema(std::move(schema)));
  for (const auto& row : rows) {
    Tuple t;
    for (int v : row) t.Append(Value(static_cast<int64_t>(v)));
    rel.InsertUnchecked(std::move(t));
  }
  return rel;
}

class MaintainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(space_
                    .AddRelation("IS1", MakeRelation("R", {"K", "X"},
                                                     {{1, 10}, {2, 20}, {3, 30}}))
                    .ok());
    ASSERT_TRUE(space_
                    .AddRelation("IS2", MakeRelation("S", {"K", "Y"},
                                                     {{1, 100}, {2, 200}, {4, 400}}))
                    .ok());
    view_ = Parse(
        "CREATE VIEW V AS SELECT R.X, S.Y FROM R, S WHERE R.K = S.K");
  }

  InformationSpace space_;
  ViewDefinition view_;
};

TEST_F(MaintainerTest, InsertMaintainsExtent) {
  ViewMaintainer maintainer(space_);
  auto extent = maintainer.Recompute(view_);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->cardinality(), 2);  // K=1, K=2 join.

  // Insert R(4, 40): joins S(4, 400).
  const DataUpdate update{UpdateKind::kInsert, RelationId{"IS1", "R"},
                          Tuple{Value(4), Value(40)}};
  ASSERT_TRUE(space_.ApplyDataUpdate(update).ok());
  const auto counters = maintainer.ProcessUpdate(view_, update, &extent.value());
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  EXPECT_EQ(counters->tuples_added, 1);
  EXPECT_TRUE(extent->ContainsTuple(Tuple{Value(40), Value(400)}));

  const auto oracle = maintainer.Recompute(view_);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(SetEquals(extent.value(), oracle.value()));
}

TEST_F(MaintainerTest, DeleteMaintainsExtent) {
  ViewMaintainer maintainer(space_);
  auto extent = maintainer.Recompute(view_);
  ASSERT_TRUE(extent.ok());

  const DataUpdate update{UpdateKind::kDelete, RelationId{"IS1", "R"},
                          Tuple{Value(1), Value(10)}};
  // Maintain first, then apply to the space (either order is valid).
  const auto counters = maintainer.ProcessUpdate(view_, update, &extent.value());
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->tuples_removed, 1);
  ASSERT_TRUE(space_.ApplyDataUpdate(update).ok());

  const auto oracle = maintainer.Recompute(view_);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(SetEquals(extent.value(), oracle.value()));
}

TEST_F(MaintainerTest, NonMatchingUpdateTouchesNothing) {
  ViewMaintainer maintainer(space_);
  auto extent = maintainer.Recompute(view_);
  ASSERT_TRUE(extent.ok());
  const DataUpdate update{UpdateKind::kInsert, RelationId{"IS1", "R"},
                          Tuple{Value(99), Value(990)}};
  ASSERT_TRUE(space_.ApplyDataUpdate(update).ok());
  const auto counters = maintainer.ProcessUpdate(view_, update, &extent.value());
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->tuples_added, 0);
  // The delta still travels (notification + round trip to S's site).
  EXPECT_GE(counters->messages, 1);
}

TEST_F(MaintainerTest, UpdateOfUnreferencedRelationIsFree) {
  ASSERT_TRUE(space_.AddRelation("IS3", MakeRelation("Z", {"Q"}, {{1}})).ok());
  ViewMaintainer maintainer(space_);
  auto extent = maintainer.Recompute(view_);
  ASSERT_TRUE(extent.ok());
  const DataUpdate update{UpdateKind::kInsert, RelationId{"IS3", "Z"},
                          Tuple{Value(2)}};
  const auto counters = maintainer.ProcessUpdate(view_, update, &extent.value());
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->messages, 0);
  EXPECT_EQ(counters->bytes, 0);
}

TEST_F(MaintainerTest, LocalConditionFiltersDeltaAtOrigin) {
  const ViewDefinition filtered = Parse(
      "CREATE VIEW V AS SELECT R.X, S.Y FROM R, S "
      "WHERE (R.K = S.K) AND (R.X < 15)");
  ViewMaintainer maintainer(space_);
  auto extent = maintainer.Recompute(filtered);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent->cardinality(), 1);  // Only R(1,10).

  // Insert a tuple failing the local condition: the delta dies at the
  // origin, nothing is shipped to IS2.
  const DataUpdate update{UpdateKind::kInsert, RelationId{"IS1", "R"},
                          Tuple{Value(4), Value(40)}};
  ASSERT_TRUE(space_.ApplyDataUpdate(update).ok());
  const auto counters =
      maintainer.ProcessUpdate(filtered, update, &extent.value());
  ASSERT_TRUE(counters.ok());
  EXPECT_EQ(counters->tuples_added, 0);
  // Notification only: origin hosts no other view relation and the empty
  // delta still triggers the remote query round trip in Algorithm 1; our
  // simulator ships the (empty) delta, so bytes stay at notification size.
  EXPECT_EQ(counters->bytes, 100 + 0 + 0);
}

// Interleaved AddTuple/Erase mutations (through data updates) with
// Recompute over a PlanCache: every mutation must invalidate the cached
// prepared plan, the per-column indexes, and the hash column, so each
// recomputation over the columnar store matches the reference executor on
// the current data.
TEST(MaintainerColumnar, InterleavedMutationAndRecompute) {
  InformationSpace space;
  ASSERT_TRUE(space
                  .AddRelation("IS1", MakeRelation("R", {"K", "X"},
                                                   {{1, 10}, {2, 20}, {3, 30}}))
                  .ok());
  ASSERT_TRUE(space
                  .AddRelation("IS2", MakeRelation("S", {"K", "Y"},
                                                   {{1, 100}, {2, 200}, {4, 400}}))
                  .ok());
  const ViewDefinition view =
      Parse("CREATE VIEW V AS SELECT R.X, S.Y FROM R, S WHERE R.K = S.K");
  PlanCache cache;
  const ViewMaintainer maintainer(space, MaintainerOptions{}, &cache);
  Random rng(13);
  for (int step = 0; step < 40; ++step) {
    DataUpdate update;
    const std::string rel_name = rng.Uniform(2) == 0 ? "R" : "S";
    const std::string site = rel_name == "R" ? "IS1" : "IS2";
    const Relation* rel = space.Resolve(site, rel_name).value();
    if (!rel->empty() && rng.Uniform(3) == 0) {
      update.kind = UpdateKind::kDelete;
      update.tuple = rel->TupleAt(static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(rel->cardinality()))));
    } else {
      update.kind = UpdateKind::kInsert;
      update.tuple = Tuple{Value(static_cast<int64_t>(rng.Uniform(5))),
                           Value(static_cast<int64_t>(rng.Uniform(50)))};
    }
    update.relation = RelationId{site, rel_name};
    ASSERT_TRUE(space.ApplyDataUpdate(update).ok());

    const auto recomputed = maintainer.Recompute(view);
    ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
    ExecOptions ref_opts;
    ref_opts.distinct = false;  // Recompute keeps bag semantics.
    const auto reference = ExecuteViewReference(view, space, ref_opts);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    std::vector<Tuple> got = recomputed->CopyTuples();
    std::vector<Tuple> want = reference->CopyTuples();
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "step " << step;
  }
  // Every round mutated a base relation first, so the cached plan was
  // found stale and replanned each time; an unmutated round then hits.
  EXPECT_GT(cache.stats().replans, 0);
  ASSERT_TRUE(maintainer.Recompute(view).ok());
  EXPECT_GT(cache.stats().hits, 0);
}

// Randomized equivalence: a stream of random inserts/deletes maintained
// incrementally always equals recomputation.
TEST(MaintainerRandomized, StreamMatchesRecompute) {
  Random rng(11);
  InformationSpace space;
  GeneratorOptions gen;
  gen.cardinality = 80;
  gen.num_attributes = 2;
  gen.key_domain = 20;
  gen.value_domain = 40;
  ASSERT_TRUE(space.AddRelation("IS1", GenerateRelation("R", gen, &rng)).ok());
  ASSERT_TRUE(space.AddRelation("IS2", GenerateRelation("S", gen, &rng)).ok());
  const ViewDefinition view = Parse(
      "CREATE VIEW V AS SELECT R.A, R.B, S.B AS SB FROM R, S "
      "WHERE R.A = S.A");

  ViewMaintainer maintainer(space);
  auto extent = maintainer.Recompute(view);
  ASSERT_TRUE(extent.ok());

  for (int step = 0; step < 60; ++step) {
    const bool insert = rng.Bernoulli(0.6);
    const std::string rel_name = rng.Bernoulli(0.5) ? "R" : "S";
    const std::string site = rel_name == "R" ? "IS1" : "IS2";
    DataUpdate update;
    update.relation = RelationId{site, rel_name};
    if (insert) {
      update.kind = UpdateKind::kInsert;
      update.tuple = Tuple{Value(static_cast<int64_t>(rng.Uniform(20))),
                           Value(static_cast<int64_t>(rng.Uniform(40)))};
      ASSERT_TRUE(space.ApplyDataUpdate(update).ok());
      ASSERT_TRUE(
          maintainer.ProcessUpdate(view, update, &extent.value()).ok());
    } else {
      const Relation* rel = space.Resolve(site, rel_name).value();
      if (rel->empty()) continue;
      update.kind = UpdateKind::kDelete;
      update.tuple = rel->TupleAt(static_cast<int64_t>(
          rng.Uniform(static_cast<uint64_t>(rel->cardinality()))));
      ASSERT_TRUE(
          maintainer.ProcessUpdate(view, update, &extent.value()).ok());
      ASSERT_TRUE(space.ApplyDataUpdate(update).ok());
    }
    const auto oracle = maintainer.Recompute(view);
    ASSERT_TRUE(oracle.ok());
    ASSERT_TRUE(SetEquals(extent.value(), oracle.value())) << "step " << step;
  }
}

// Model-vs-simulation: on a uniform two-site view whose data is engineered
// to the model's assumptions, observed messages equal the analytic CF_M and
// observed bytes land close to the analytic CF_T expectation.
TEST(ModelValidation, SimulatedCostsTrackAnalyticModel) {
  Random rng(21);
  InformationSpace space;
  // R at IS1, S at IS2; join via keys with controlled selectivity.
  GeneratorOptions gen;
  gen.cardinality = 400;
  gen.num_attributes = 2;
  gen.attribute_bytes = 50;
  gen.key_domain = 200;  // js = 1/200 = 0.005.
  ASSERT_TRUE(space.AddRelation("IS1", GenerateRelation("R", gen, &rng)).ok());
  ASSERT_TRUE(space.AddRelation("IS2", GenerateRelation("S", gen, &rng)).ok());
  const ViewDefinition view =
      Parse("CREATE VIEW V AS SELECT R.B, S.B AS SB FROM R, S WHERE R.A = S.A");

  ViewMaintainer maintainer(space);
  auto extent = maintainer.Recompute(view);
  ASSERT_TRUE(extent.ok());

  // Analytic per-update expectation for an update at R.
  ViewCostInput input;
  input.join_selectivity = 0.005;
  input.relations.push_back(CostRelation{RelationId{"IS1", "R"}, 400, 100, 1.0});
  input.relations.push_back(CostRelation{RelationId{"IS2", "S"}, 400, 100, 1.0});
  const CostFactors analytic = SingleUpdateCost(input, 0, {}).value();

  MaintenanceCounters total;
  const int kUpdates = 200;
  for (int i = 0; i < kUpdates; ++i) {
    DataUpdate update{UpdateKind::kInsert, RelationId{"IS1", "R"},
                      Tuple{Value(static_cast<int64_t>(rng.Uniform(200))),
                            Value(static_cast<int64_t>(rng.Uniform(1000)))}};
    ASSERT_TRUE(space.ApplyDataUpdate(update).ok());
    const auto counters = maintainer.ProcessUpdate(view, update, &extent.value());
    ASSERT_TRUE(counters.ok());
    total += *counters;
  }
  // Messages are deterministic: notification + one round trip per update.
  EXPECT_DOUBLE_EQ(static_cast<double>(total.messages) / kUpdates,
                   analytic.messages);
  // Bytes fluctuate with join fan-out; the mean should track the model
  // within 15% (|S| grows slightly as R-inserts accumulate -- the paper's
  // model assumes |R| static, §6.1 assumption 5).
  const double mean_bytes = static_cast<double>(total.bytes) / kUpdates;
  EXPECT_NEAR(mean_bytes, analytic.bytes, analytic.bytes * 0.15);
}

TEST(MaintainerErrors, SelfJoinUnimplemented) {
  InformationSpace space;
  ASSERT_TRUE(space.AddRelation("IS1", MakeRelation("R", {"K"}, {{1}})).ok());
  const ViewDefinition view =
      Parse("CREATE VIEW V AS SELECT a.K, b.K AS K2 FROM R a, R b "
            "WHERE a.K = b.K");
  ViewMaintainer maintainer(space);
  Relation extent = maintainer.Recompute(view).value();
  const DataUpdate update{UpdateKind::kInsert, RelationId{"IS1", "R"},
                          Tuple{Value(2)}};
  const auto counters = maintainer.ProcessUpdate(view, update, &extent);
  EXPECT_EQ(counters.status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace eve
