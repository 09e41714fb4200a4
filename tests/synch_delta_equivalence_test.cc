// Corpus equivalence: the delta-based enumeration pipeline must produce
// byte-identical SynchronizationResults to the retained eager oracle
// (tests/oracles/synchronizer_eager.cc) on every scenario shape the
// experiments and the worked examples exercise, and the delta-native QC
// scoring must reproduce the materialized scoring bit for bit.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/executor.h"
#include "esql/parser.h"
#include "esql/printer.h"
#include "eve/eve_system.h"
#include "misd/mkb.h"
#include "oracles/synchronizer_eager.h"
#include "qc/ranking.h"
#include "synch/synchronizer.h"

namespace eve {
namespace {

ViewDefinition Parse(const std::string& text) {
  auto result = ParseViewDefinition(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value();
}

Schema IntSchema(const std::vector<std::string>& names) {
  std::vector<Attribute> attrs;
  for (const std::string& n : names) {
    attrs.push_back(Attribute::Make(n, DataType::kInt64, 50));
  }
  return Schema(std::move(attrs));
}

void ExpectEdgesEqual(const PcEdge& a, const PcEdge& b) {
  EXPECT_EQ(a.constraint_text, b.constraint_text);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.attribute_map, b.attribute_map);
  EXPECT_EQ(a.source_selectivity, b.source_selectivity);
  EXPECT_EQ(a.target_selectivity, b.target_selectivity);
  EXPECT_EQ(a.source_selection.ToString(), b.source_selection.ToString());
  EXPECT_EQ(a.target_selection.ToString(), b.target_selection.ToString());
}

void ExpectRewritingsEqual(const Rewriting& a, const Rewriting& b) {
  EXPECT_EQ(a.definition, b.definition)
      << PrintViewCompact(a.definition) << "\nvs\n"
      << PrintViewCompact(b.definition);
  EXPECT_EQ(a.extent_relation, b.extent_relation);
  EXPECT_EQ(a.extent_exact, b.extent_exact);
  EXPECT_EQ(a.renamed_attributes, b.renamed_attributes);
  EXPECT_EQ(a.renamed_relations, b.renamed_relations);
  EXPECT_EQ(a.dropped_attributes, b.dropped_attributes);
  EXPECT_EQ(a.dropped_conditions, b.dropped_conditions);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.notes, b.notes);
  ASSERT_EQ(a.replacements.size(), b.replacements.size());
  for (size_t i = 0; i < a.replacements.size(); ++i) {
    const ReplacementRecord& x = a.replacements[i];
    const ReplacementRecord& y = b.replacements[i];
    EXPECT_EQ(x.replaced, y.replaced);
    EXPECT_EQ(x.replacement, y.replacement);
    EXPECT_EQ(x.replaced_from_name, y.replaced_from_name);
    EXPECT_EQ(x.replacement_from_name, y.replacement_from_name);
    EXPECT_EQ(x.joined_in, y.joined_in);
    ExpectEdgesEqual(x.edge, y.edge);
  }
  EXPECT_EQ(a.Summary(), b.Summary());
}

// Runs both pipelines on (view, change) and asserts byte-identical results;
// also asserts the SynchronizeCandidates -> ToRewriting route matches.
void ExpectEquivalent(const MetaKnowledgeBase& mkb, const ViewDefinition& view,
                      const SchemaChange& change,
                      SynchronizerOptions options = {}) {
  const ViewSynchronizer delta(mkb, options);
  const auto d = delta.Synchronize(view, change);
  const auto e = internal::SynchronizeEager(mkb, options, view, change);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(d->affected, e->affected);
  ASSERT_EQ(d->rewritings.size(), e->rewritings.size());
  for (size_t i = 0; i < d->rewritings.size(); ++i) {
    SCOPED_TRACE("rewriting " + std::to_string(i));
    ExpectRewritingsEqual(d->rewritings[i], e->rewritings[i]);
  }

  const auto candidates = delta.SynchronizeCandidates(view, change);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->affected, e->affected);
  ASSERT_EQ(candidates->candidates.size(), e->rewritings.size());
  for (size_t i = 0; i < candidates->candidates.size(); ++i) {
    SCOPED_TRACE("candidate " + std::to_string(i));
    ExpectRewritingsEqual(candidates->candidates[i].ToRewriting(),
                          e->rewritings[i]);
  }
}

// The experiment-4/5 environment: a 2-relation view over a chain of five PC
// constraints (the shape of BM_SynchronizeView and the paper's Tables 3-5).
struct ChainEnv {
  MetaKnowledgeBase mkb;
  ViewDefinition view;

  ChainEnv() {
    const Schema abc = IntSchema({"A", "B", "C"});
    (void)mkb.RegisterRelationWithStats({"IS0", "R1"}, IntSchema({"K"}), 400,
                                        0.5);
    (void)mkb.RegisterRelationWithStats({"IS1", "R2"}, abc, 4000, 0.5);
    for (int i = 0; i < 5; ++i) {
      (void)mkb.RegisterRelationWithStats(
          {"IS" + std::to_string(i + 2), "S" + std::to_string(i + 1)}, abc,
          2000 + 1000 * i, 0.5);
    }
    auto pc = [&](RelationId a, RelationId b, PcRelationType t) {
      (void)mkb.AddPcConstraint(MakeProjectionPc(a, b, {"A", "B", "C"}, t));
    };
    pc({"IS2", "S1"}, {"IS3", "S2"}, PcRelationType::kSubset);
    pc({"IS3", "S2"}, {"IS4", "S3"}, PcRelationType::kSubset);
    pc({"IS4", "S3"}, {"IS1", "R2"}, PcRelationType::kEquivalent);
    pc({"IS4", "S3"}, {"IS5", "S4"}, PcRelationType::kSubset);
    pc({"IS5", "S4"}, {"IS6", "S5"}, PcRelationType::kSubset);
    view = Parse(
        "CREATE VIEW V AS SELECT R2.A (AR=true), R2.B (AR=true), "
        "R2.C (AR=true) FROM R1, R2 (RR=true) "
        "WHERE (R1.K = R2.A) (CR=true) AND (R2.B > 5) (CR=true)");
  }
};

TEST(DeltaEquivalence, ExperimentChainDeleteRelation) {
  ChainEnv env;
  ExpectEquivalent(env.mkb, env.view,
                   SchemaChange(DeleteRelation{RelationId{"IS1", "R2"}}));
}

TEST(DeltaEquivalence, ExperimentChainDeleteAttribute) {
  ChainEnv env;
  ExpectEquivalent(env.mkb, env.view,
                   SchemaChange(DeleteAttribute{RelationId{"IS1", "R2"}, "B"}));
}

TEST(DeltaEquivalence, ExperimentChainWithDropSubsets) {
  ChainEnv env;
  SynchronizerOptions options;
  options.enumerate_drop_subsets = true;
  ExpectEquivalent(env.mkb, env.view,
                   SchemaChange(DeleteRelation{RelationId{"IS1", "R2"}}),
                   options);
}

TEST(DeltaEquivalence, ExperimentChainStrategySubsets) {
  ChainEnv env;
  const SchemaChange change(DeleteRelation{RelationId{"IS1", "R2"}});
  for (int mask = 0; mask < 8; ++mask) {
    SCOPED_TRACE(mask);
    SynchronizerOptions options;
    options.strategies = StrategySet::None();
    if (mask & 1) options.strategies = options.strategies.With(Strategy::kReplaceRelation);
    if (mask & 2) options.strategies = options.strategies.With(Strategy::kJoinIn);
    if (mask & 4) options.strategies = options.strategies.With(Strategy::kCvsPair);
    ExpectEquivalent(env.mkb, env.view, change, options);
  }
}

TEST(DeltaEquivalence, RenameChanges) {
  ChainEnv env;
  ExpectEquivalent(
      env.mkb, env.view,
      SchemaChange(RenameAttribute{RelationId{"IS1", "R2"}, "B", "B2"}));
  ExpectEquivalent(
      env.mkb, env.view,
      SchemaChange(RenameRelation{RelationId{"IS1", "R2"}, "R2_v2"}));
  // Additions never affect views; both must report unaffected.
  ExpectEquivalent(env.mkb, env.view,
                   SchemaChange(AddAttribute{RelationId{"IS1", "R2"},
                                             Attribute::Make("D", DataType::kInt64)}));
}

// Join-in + CVS-pair environment: deleting R.B is recoverable through a JC
// to U, and deleting R outright decomposes into S1 x S2 (pair substitution).
struct JoinEnv {
  MetaKnowledgeBase mkb;

  JoinEnv() {
    (void)mkb.RegisterRelationWithStats({"IS1", "R"}, IntSchema({"K", "A", "B"}),
                                        100, 0.5);
    (void)mkb.RegisterRelationWithStats({"IS2", "U"}, IntSchema({"K", "B"}),
                                        100, 0.5);
    (void)mkb.RegisterRelationWithStats({"IS3", "S1"}, IntSchema({"K", "A"}),
                                        100, 0.5);
    (void)mkb.RegisterRelationWithStats({"IS4", "S2"}, IntSchema({"K", "B"}),
                                        100, 0.5);
    (void)mkb.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                               RelationId{"IS2", "U"},
                                               {"K", "B"},
                                               PcRelationType::kSubset));
    (void)mkb.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                               RelationId{"IS3", "S1"},
                                               {"K", "A"},
                                               PcRelationType::kEquivalent));
    (void)mkb.AddPcConstraint(MakeProjectionPc(RelationId{"IS1", "R"},
                                               RelationId{"IS4", "S2"},
                                               {"K", "B"},
                                               PcRelationType::kEquivalent));
    JoinConstraint ru;
    ru.left = RelationId{"IS1", "R"};
    ru.right = RelationId{"IS2", "U"};
    ru.condition.Add(PrimitiveClause::AttrAttr(RelAttr{"R", "K"},
                                               CompOp::kEqual,
                                               RelAttr{"U", "K"}));
    (void)mkb.AddJoinConstraint(ru);
    JoinConstraint pair;
    pair.left = RelationId{"IS3", "S1"};
    pair.right = RelationId{"IS4", "S2"};
    pair.condition.Add(PrimitiveClause::AttrAttr(RelAttr{"S1", "K"},
                                                 CompOp::kEqual,
                                                 RelAttr{"S2", "K"}));
    (void)mkb.AddJoinConstraint(pair);
  }
};

TEST(DeltaEquivalence, JoinInRecovery) {
  JoinEnv env;
  const ViewDefinition view = Parse(
      "CREATE VIEW V AS SELECT R.A, R.B (AR=true) FROM R "
      "WHERE (R.B > 3) (CR=true, CD=true)");
  ExpectEquivalent(env.mkb, view,
                   SchemaChange(DeleteAttribute{RelationId{"IS1", "R"}, "B"}));
}

TEST(DeltaEquivalence, CvsPairSubstitution) {
  JoinEnv env;
  const ViewDefinition view = Parse(
      "CREATE VIEW V AS SELECT R.A (AR=true), R.B (AR=true) FROM R (RR=true)");
  ExpectEquivalent(env.mkb, view,
                   SchemaChange(DeleteRelation{RelationId{"IS1", "R"}}));
}

TEST(DeltaEquivalence, SelfJoinFoldsOverBothAliases) {
  JoinEnv env;
  // Two aliases of the deleted relation: the fold resolves both, deriving
  // candidates whose second resolution edits appended components of the
  // first (the delta log's append-id path).
  const ViewDefinition view = Parse(
      "CREATE VIEW V AS SELECT P.A (AR=true), Q.B (AR=true, AD=true) "
      "FROM R P (RR=true), R Q (RR=true) WHERE (P.K = Q.K) (CR=true, CD=true)");
  ExpectEquivalent(env.mkb, view,
                   SchemaChange(DeleteRelation{RelationId{"IS1", "R"}}));
}

TEST(DeltaEquivalence, VeDisciplinePrunesIdentically) {
  ChainEnv env;
  ViewDefinition strict = env.view;
  strict.ve = ViewExtent::kEqual;
  ExpectEquivalent(env.mkb, strict,
                   SchemaChange(DeleteRelation{RelationId{"IS1", "R2"}}));
  strict.ve = ViewExtent::kSubset;
  ExpectEquivalent(env.mkb, strict,
                   SchemaChange(DeleteRelation{RelationId{"IS1", "R2"}}));
}

TEST(DeltaEquivalence, IndispensableKillsViewIdentically) {
  MetaKnowledgeBase mkb;
  (void)mkb.RegisterRelationWithStats({"IS1", "R"}, IntSchema({"A", "B"}), 100,
                                      0.5);
  const ViewDefinition view = Parse("CREATE VIEW V AS SELECT R.A, R.B FROM R");
  ExpectEquivalent(mkb, view,
                   SchemaChange(DeleteAttribute{RelationId{"IS1", "R"}, "A"}));
}

// Delta-native QC scoring must reproduce the materialized scoring bit for
// bit: same quality, costs, QC values, ranks, and definitions.
TEST(DeltaEquivalence, RankCandidatesMatchesRank) {
  ChainEnv env;
  const SchemaChange change(DeleteRelation{RelationId{"IS1", "R2"}});
  const ViewSynchronizer synchronizer(env.mkb);
  auto sync = synchronizer.Synchronize(env.view, change);
  auto candidates = synchronizer.SynchronizeCandidates(env.view, change);
  ASSERT_TRUE(sync.ok());
  ASSERT_TRUE(candidates.ok());

  const QcModel model(QcParameters{}, CostModelOptions{}, WorkloadOptions{});
  auto ranked = model.Rank(env.view, std::move(sync->rewritings), env.mkb);
  auto ranked_candidates =
      model.RankCandidates(env.view, std::move(candidates->candidates), env.mkb);
  ASSERT_TRUE(ranked.ok());
  ASSERT_TRUE(ranked_candidates.ok());
  ASSERT_EQ(ranked->size(), ranked_candidates->size());
  for (size_t i = 0; i < ranked->size(); ++i) {
    SCOPED_TRACE(i);
    const RankedRewriting& a = (*ranked)[i];
    const RankedRewriting& b = (*ranked_candidates)[i];
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.qc, b.qc);
    EXPECT_EQ(a.weighted_cost, b.weighted_cost);
    EXPECT_EQ(a.normalized_cost, b.normalized_cost);
    EXPECT_EQ(a.quality.dd, b.quality.dd);
    EXPECT_EQ(a.quality.dd_attr, b.quality.dd_attr);
    EXPECT_EQ(a.quality.dd_ext, b.quality.dd_ext);
    EXPECT_EQ(a.quality.exact, b.quality.exact);
    ExpectRewritingsEqual(a.rewriting, b.rewriting);
  }
}

// End to end: the EveSystem's change report (QC ranking and adopted
// definition) must match the eager oracle's rewritings ranked by the
// QC-Model on the pre-change MKB, and the view must be rematerialized
// from the adopted definition.
TEST(DeltaEquivalence, EveSystemReportIsByteIdentical) {
  EveSystem eve;
  Relation r("R", IntSchema({"A", "B"}));
  (void)r.Insert(Tuple{Value(int64_t{1}), Value(int64_t{10})});
  (void)r.Insert(Tuple{Value(int64_t{2}), Value(int64_t{20})});
  Relation t("T", IntSchema({"A", "B"}));
  (void)t.Insert(Tuple{Value(int64_t{1}), Value(int64_t{10})});
  (void)t.Insert(Tuple{Value(int64_t{3}), Value(int64_t{30})});
  ASSERT_TRUE(eve.RegisterRelation("IS1", std::move(r)).ok());
  ASSERT_TRUE(eve.RegisterRelation("IS2", std::move(t)).ok());
  ASSERT_TRUE(
      eve.DeclareConstraint("PC CONSTRAINT R (A, B) EQUIVALENT T (A, B)").ok());
  ASSERT_TRUE(eve.DefineView("CREATE VIEW V AS SELECT R.A (AR=true), "
                             "R.B (AD=true, AR=true) FROM R (RR=true)")
                  .ok());
  const SchemaChange change(DeleteRelation{RelationId{"IS1", "R"}});

  // The oracle runs against the PRE-change MKB, as the system does.
  const EveOptions& options = eve.options();
  const ViewDefinition view = eve.GetViewDefinition("V").value();
  auto eager =
      internal::SynchronizeEager(eve.mkb(), options.synchronizer, view, change);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  ASSERT_FALSE(eager->rewritings.empty());
  const QcModel model(options.qc, options.cost, options.workload);
  auto oracle = model.Rank(view, std::move(eager->rewritings), eve.mkb());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  const ViewDefinition oracle_pick = oracle->front().rewriting.definition;

  auto report = eve.NotifySchemaChange(change);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->views.size(), 1u);
  const ViewSynchronizationReport& v = report->views.front();
  EXPECT_TRUE(v.affected);
  EXPECT_EQ(v.resulting_state, ViewState::kAlive);
  EXPECT_EQ(QcModel::FormatRanking(v.ranking), QcModel::FormatRanking(*oracle));
  EXPECT_EQ(v.adopted, PrintViewCompact(oracle_pick));
  EXPECT_EQ(eve.GetViewDefinition("V").value(), oracle_pick);

  auto extent = eve.GetViewExtent("V");
  auto expected = ExecuteView(oracle_pick, eve.space());
  ASSERT_TRUE(extent.ok()) << extent.status().ToString();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(extent->ToString(), expected->Distinct().ToString());
}

}  // namespace
}  // namespace eve
