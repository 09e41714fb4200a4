// The selective rewriting policy (src/policy/): decision pre-checks
// verified against full enumeration (the oracle), cap top-1 preservation,
// the EvolutionPolicy presets and Validate, and the per-decision counters.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "bench_util/scenario.h"
#include "esql/parser.h"
#include "esql/printer.h"
#include "policy/evolution_policy.h"
#include "policy/policy.h"
#include "qc/ranking.h"
#include "synch/strategy_set.h"
#include "synch/synchronizer.h"

namespace eve {
namespace {

// --- StrategySet (satellite 2) -----------------------------------------------

TEST(StrategySet, BitmaskSemantics) {
  EXPECT_TRUE(StrategySet::None().empty());
  EXPECT_FALSE(StrategySet::All().empty());
  EXPECT_TRUE(StrategySet::All().Has(Strategy::kReplaceRelation));
  EXPECT_TRUE(StrategySet::All().Has(Strategy::kJoinIn));
  EXPECT_TRUE(StrategySet::All().Has(Strategy::kCvsPair));

  const StrategySet no_cvs = StrategySet::All().Without(Strategy::kCvsPair);
  EXPECT_TRUE(no_cvs.Has(Strategy::kReplaceRelation));
  EXPECT_TRUE(no_cvs.Has(Strategy::kJoinIn));
  EXPECT_FALSE(no_cvs.Has(Strategy::kCvsPair));
  EXPECT_NE(no_cvs, StrategySet::All());
  EXPECT_EQ(no_cvs.With(Strategy::kCvsPair), StrategySet::All());

  const StrategySet only_join = StrategySet(Strategy::kJoinIn);
  EXPECT_TRUE(only_join.Has(Strategy::kJoinIn));
  EXPECT_FALSE(only_join.Has(Strategy::kReplaceRelation));
  EXPECT_EQ(StrategySet::None().With(Strategy::kJoinIn), only_join);
}

TEST(StrategySet, ToStringListsMembers) {
  EXPECT_EQ(StrategySet::None().ToString(), "none");
  const std::string all = StrategySet::All().ToString();
  EXPECT_NE(all.find("replace-relation"), std::string::npos);
  EXPECT_NE(all.find("join-in"), std::string::npos);
  EXPECT_NE(all.find("cvs-pair"), std::string::npos);
}

// --- EvolutionPolicy surface (satellite 1) -----------------------------------

TEST(EvolutionPolicy, PresetsValidate) {
  EXPECT_TRUE(EvolutionPolicy::Exhaustive().Validate().ok());
  EXPECT_TRUE(EvolutionPolicy::Balanced().Validate().ok());
  EXPECT_TRUE(EvolutionPolicy::LatencyBound().Validate().ok());
  EXPECT_EQ(EvolutionPolicy::Exhaustive().options.policy.mode,
            PolicyMode::kExhaustive);
  EXPECT_EQ(EvolutionPolicy::Balanced().options.policy.mode,
            PolicyMode::kBalanced);
  EXPECT_EQ(EvolutionPolicy::LatencyBound().options.policy.mode,
            PolicyMode::kLatencyBound);
}

TEST(EvolutionPolicy, PresetByNameIsCaseInsensitive) {
  EXPECT_TRUE(PolicyPresetByName("exhaustive").ok());
  EXPECT_TRUE(PolicyPresetByName("Balanced").ok());
  EXPECT_TRUE(PolicyPresetByName("LATENCY_BOUND").ok());
  EXPECT_TRUE(PolicyPresetByName("latency-bound").ok());
  EXPECT_EQ(PolicyPresetByName("balanced")->name, "balanced");
  EXPECT_FALSE(PolicyPresetByName("greedy").ok());
  EXPECT_FALSE(PolicyPresetByName("").ok());
}

TEST(EvolutionPolicy, ValidateRejectsBadKnobs) {
  const auto rejects = [](auto&& mutate) {
    EvolutionPolicy policy;
    mutate(policy.options);
    return !policy.Validate().ok();
  };
  EXPECT_TRUE(
      rejects([](EveOptions& o) { o.synchronizer.max_rewritings = 0; }));
  EXPECT_TRUE(
      rejects([](EveOptions& o) { o.synchronizer.max_rewritings = -3; }));
  EXPECT_TRUE(rejects([](EveOptions& o) { o.synchronizer.max_pc_hops = 0; }));
  EXPECT_TRUE(rejects([](EveOptions& o) { o.policy.cap_max_rewritings = 0; }));
  EXPECT_TRUE(rejects([](EveOptions& o) { o.qc.rho_quality = 0.5; }));
  EXPECT_FALSE(rejects([](EveOptions&) {}));
}

TEST(EvolutionPolicy, FieldsComposeOntoPreset) {
  EvolutionPolicy tuned = EvolutionPolicy::Balanced();
  tuned.name = "tuned";
  tuned.options.synchronizer.max_rewritings = 64;
  tuned.options.synchronizer.strategies =
      StrategySet::All().Without(Strategy::kCvsPair);
  tuned.options.synchronize_threads = 2;
  ASSERT_TRUE(tuned.Validate().ok()) << tuned.Validate().ToString();
  const EveOptions options = tuned.ToEveOptions();
  EXPECT_EQ(options.policy.mode, PolicyMode::kBalanced);
  EXPECT_EQ(options.policy.cap_max_rewritings, 32);
  EXPECT_EQ(options.synchronizer.max_rewritings, 64);
  EXPECT_FALSE(options.synchronizer.strategies.Has(Strategy::kCvsPair));
  EXPECT_EQ(options.synchronize_threads, 2);
}

// --- Decision pre-checks on hand-built spaces --------------------------------

// Two PC-equivalent relations; the view references R's attributes with
// every evolution flag permissive, so relation deletion admits an exact
// covering replacement and the CVS fan-out is dominated (the cap case).
struct CapFixture {
  MetaKnowledgeBase mkb;
  ViewDefinition view;
  SchemaChange change{DeleteRelation{RelationId{"IS1", "R"}}};

  CapFixture() {
    const Schema ab({Attribute::Make("A", DataType::kInt64, 50),
                     Attribute::Make("B", DataType::kInt64, 50)});
    (void)mkb.RegisterRelationWithStats({"IS1", "R"}, ab, 1000, 0.5);
    (void)mkb.RegisterRelationWithStats({"IS2", "S"}, ab, 1000, 0.5);
    (void)mkb.RegisterRelationWithStats({"IS3", "T"}, ab, 800, 0.5);
    (void)mkb.AddPcConstraint(MakeProjectionPc({"IS1", "R"}, {"IS2", "S"},
                                               {"A", "B"},
                                               PcRelationType::kEquivalent));
    (void)mkb.AddPcConstraint(MakeProjectionPc({"IS1", "R"}, {"IS3", "T"},
                                               {"A"},
                                               PcRelationType::kSubset));
    view = ParseViewDefinition(
               "CREATE VIEW V AS SELECT R.A (AD=true, AR=true), "
               "R.B (AD=true, AR=true) FROM R (RD=true, RR=true)")
               .value();
  }
};

TEST(PolicyDecision, ExhaustiveModeNeverSkips) {
  CapFixture fixture;
  PolicyConfig config;  // kExhaustive.
  const PolicyEngine engine(fixture.mkb, config, SynchronizerOptions{});
  // Even a change to a relation the view never references stays kFull.
  const SchemaChange unrelated{DeleteRelation{RelationId{"IS3", "T"}}};
  EXPECT_EQ(engine.Decide(fixture.view, unrelated).action,
            PolicyAction::kFull);
  EXPECT_EQ(engine.Decide(fixture.view, fixture.change).action,
            PolicyAction::kFull);
}

TEST(PolicyDecision, SkipsUnaffectedPairs) {
  CapFixture fixture;
  PolicyConfig config;
  config.mode = PolicyMode::kBalanced;
  const PolicyEngine engine(fixture.mkb, config, SynchronizerOptions{});
  const ViewSynchronizer oracle(fixture.mkb);

  const SchemaChange cases[] = {
      SchemaChange{DeleteRelation{RelationId{"IS3", "T"}}},
      SchemaChange{DeleteAttribute{RelationId{"IS2", "S"}, "A"}},
      SchemaChange{AddAttribute{RelationId{"IS1", "R"},
                                Attribute::Make("C", DataType::kInt64, 10)}},
      SchemaChange{RenameAttribute{RelationId{"IS1", "R"}, "Z", "Z2"}},
  };
  for (const SchemaChange& change : cases) {
    const PolicyDecision decision = engine.Decide(fixture.view, change);
    EXPECT_EQ(decision.action, PolicyAction::kSkipUnaffected);
    const auto full = oracle.Synchronize(fixture.view, change);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_FALSE(full->affected) << "skip must match the oracle";
  }
}

TEST(PolicyDecision, CapDropsCvsPairAndPreservesTopPick) {
  CapFixture fixture;
  PolicyConfig config;
  config.mode = PolicyMode::kBalanced;
  config.cap_max_rewritings = 8;
  const SynchronizerOptions base;
  const PolicyEngine engine(fixture.mkb, config, base);
  const PolicyDecision decision = engine.Decide(fixture.view, fixture.change);
  ASSERT_EQ(decision.action, PolicyAction::kCap);
  EXPECT_FALSE(decision.options.strategies.Has(Strategy::kCvsPair));
  EXPECT_EQ(decision.options.max_rewritings, 8);

  // The capped enumeration's QC top-1 must equal the full enumeration's.
  const auto full =
      ViewSynchronizer(fixture.mkb, base)
          .Synchronize(fixture.view, fixture.change);
  const auto capped =
      ViewSynchronizer(fixture.mkb, decision.options)
          .Synchronize(fixture.view, fixture.change);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(capped.ok());
  ASSERT_FALSE(full->rewritings.empty());
  ASSERT_FALSE(capped->rewritings.empty());
  const QcModel model(QcParameters{}, CostModelOptions{}, WorkloadOptions{});
  const auto full_ranking =
      model.Rank(fixture.view, full->rewritings, fixture.mkb);
  const auto capped_ranking =
      model.Rank(fixture.view, capped->rewritings, fixture.mkb);
  ASSERT_TRUE(full_ranking.ok());
  ASSERT_TRUE(capped_ranking.ok());
  EXPECT_EQ(
      PrintViewCompact(full_ranking->front().rewriting.definition),
      PrintViewCompact(capped_ranking->front().rewriting.definition));
}

// No PC edges and indispensable references: the drop strategies are
// blocked and no discovery strategy has an edge to follow, so the policy
// proves death without enumerating.
struct DeadFixture {
  MetaKnowledgeBase mkb;
  ViewDefinition view;

  DeadFixture() {
    const Schema ab({Attribute::Make("A", DataType::kInt64, 50),
                     Attribute::Make("B", DataType::kInt64, 50)});
    (void)mkb.RegisterRelationWithStats({"IS1", "R"}, ab, 1000, 0.5);
    view = ParseViewDefinition("CREATE VIEW V AS SELECT R.A, R.B FROM R")
               .value();
  }
};

TEST(PolicyDecision, SkipDeadMatchesOracle) {
  DeadFixture fixture;
  PolicyConfig config;
  config.mode = PolicyMode::kBalanced;
  const PolicyEngine engine(fixture.mkb, config, SynchronizerOptions{});
  const ViewSynchronizer oracle(fixture.mkb);

  const SchemaChange cases[] = {
      SchemaChange{DeleteAttribute{RelationId{"IS1", "R"}, "A"}},
      SchemaChange{DeleteRelation{RelationId{"IS1", "R"}}},
  };
  for (const SchemaChange& change : cases) {
    const PolicyDecision decision = engine.Decide(fixture.view, change);
    EXPECT_EQ(decision.action, PolicyAction::kSkipDead);
    const auto full = oracle.Synchronize(fixture.view, change);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_TRUE(full->affected);
    EXPECT_TRUE(full->rewritings.empty())
        << "skip-dead must only fire when enumeration finds nothing";
    EXPECT_FALSE(full->truncated);
  }
}

// --- Oracle sweep over the evolution stream ----------------------------------

ScenarioOptions SmallScenario() {
  ScenarioOptions options;
  options.families = 3;
  options.replicas_per_family = 4;
  options.churn_relations = 3;
  options.views = 12;
  options.dimension_rows = 64;
  options.fact_rows = 64;
  options.churn_rows = 16;
  return options;
}

std::unique_ptr<EveSystem> BuildSmall(const EveOptions& base, int threads = 0,
                                      const ScenarioOptions& scenario =
                                          SmallScenario()) {
  EveOptions eve_options = base;
  eve_options.materialize = false;
  eve_options.synchronize_threads = threads;
  auto system = BuildScenarioSystem(scenario, eve_options);
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  return std::move(*system);
}

// Replays a stream; before every capability change, every alive view's
// Balanced decision is checked against full enumeration on the pre-change
// MKB.  This is the skip-soundness corpus of the policy header: skips must
// reproduce the oracle's unaffected/dead verdicts exactly, and caps must
// preserve the QC top-1.
TEST(PolicyOracle, EveryStreamDecisionSoundAgainstFullEnumeration) {
  const auto system = BuildSmall(EveOptions{});
  const auto stream =
      GenerateEventStream(SmallScenario(), 300, SmallScenario().seed + 1);

  PolicyConfig config;
  config.mode = PolicyMode::kBalanced;
  const SynchronizerOptions base;
  const QcModel model(QcParameters{}, CostModelOptions{}, WorkloadOptions{});
  int64_t skips_unaffected = 0, skips_dead = 0, caps = 0, fulls = 0;

  for (const ScenarioEvent& event : stream) {
    if (const auto* change = std::get_if<SchemaChange>(&event.op)) {
      const PolicyEngine engine(system->mkb(), config, base);
      const ViewSynchronizer oracle(system->mkb(), base);
      for (const std::string& name : system->vkb().ViewNames()) {
        if (system->GetViewState(name).value_or(ViewState::kDead) !=
            ViewState::kAlive) {
          continue;
        }
        const ViewDefinition def = system->GetViewDefinition(name).value();
        const PolicyDecision decision = engine.Decide(def, *change);
        if (decision.action == PolicyAction::kFull) {
          ++fulls;
          continue;
        }
        const auto full = oracle.Synchronize(def, *change);
        ASSERT_TRUE(full.ok()) << event.ToString() << ": "
                               << full.status().ToString();
        switch (decision.action) {
          case PolicyAction::kSkipUnaffected:
            ++skips_unaffected;
            EXPECT_FALSE(full->affected)
                << name << " under " << event.ToString();
            break;
          case PolicyAction::kSkipDead:
            ++skips_dead;
            EXPECT_TRUE(full->affected)
                << name << " under " << event.ToString();
            EXPECT_TRUE(full->rewritings.empty())
                << name << " under " << event.ToString();
            break;
          case PolicyAction::kCap: {
            ++caps;
            const auto capped = ViewSynchronizer(system->mkb(),
                                                 decision.options)
                                    .Synchronize(def, *change);
            ASSERT_TRUE(capped.ok());
            if (full->rewritings.empty()) {
              EXPECT_TRUE(capped->rewritings.empty());
              break;
            }
            ASSERT_FALSE(capped->rewritings.empty())
                << name << " under " << event.ToString();
            const auto a = model.Rank(def, full->rewritings, system->mkb());
            const auto b = model.Rank(def, capped->rewritings, system->mkb());
            ASSERT_TRUE(a.ok());
            ASSERT_TRUE(b.ok());
            EXPECT_EQ(PrintViewCompact(a->front().rewriting.definition),
                      PrintViewCompact(b->front().rewriting.definition))
                << name << " under " << event.ToString();
            break;
          }
          case PolicyAction::kFull:
            break;
        }
      }
      ASSERT_TRUE(system->NotifySchemaChange(*change).ok())
          << event.ToString();
    } else if (const auto* update = std::get_if<DataUpdate>(&event.op)) {
      ASSERT_TRUE(system->NotifyDataUpdate(*update).ok()) << event.ToString();
    } else {
      ASSERT_TRUE(
          system->AddPcConstraint(std::get<PcConstraint>(event.op)).ok());
    }
  }
  // The stream must actually exercise the selective actions.
  EXPECT_GT(skips_unaffected, 0);
  EXPECT_GT(fulls + caps + skips_dead, 0);
}

// --- End-to-end through EveSystem --------------------------------------------

// Exhaustive() must be byte-identical to the seed's always-enumerate
// behavior: same ChangeReports over a full stream.
TEST(PolicyEndToEnd, ExhaustivePresetByteIdenticalToSeedOptions) {
  const auto seed_system = BuildSmall(EveOptions{});
  const auto policy_system =
      BuildSmall(EvolutionPolicy::Exhaustive().ToEveOptions());
  const auto stream =
      GenerateEventStream(SmallScenario(), 300, SmallScenario().seed + 1);
  for (const ScenarioEvent& event : stream) {
    const auto* change = std::get_if<SchemaChange>(&event.op);
    if (change == nullptr) continue;
    const auto a = seed_system->NotifySchemaChange(*change);
    const auto b = policy_system->NotifySchemaChange(*change);
    ASSERT_TRUE(a.ok()) << event.ToString();
    ASSERT_TRUE(b.ok()) << event.ToString();
    EXPECT_EQ(a->ToString(), b->ToString()) << event.ToString();
  }
  const PolicyStats& stats = policy_system->policy_stats();
  EXPECT_EQ(stats.full, stats.decisions);
  EXPECT_EQ(stats.capped, 0);
  EXPECT_EQ(stats.skipped_unaffected, 0);
  EXPECT_EQ(stats.skipped_dead, 0);
}

// Balanced replay over the CVS-rich space (partial mirrors on): the
// counters add up, the selective actions fire, the stream's survival
// outcome matches the exhaustive oracle, and the policy curve's acceptance
// holds -- at least 3x less enumeration work for at most 2% mean
// adopted-QC loss.  Everything is seeded, so the inequalities are
// deterministic.
TEST(PolicyEndToEnd, BalancedCountersAndSurvivalMatchOracle) {
  ScenarioOptions scenario = SmallScenario();
  scenario.partial_mirrors = 8;
  const auto stream = GenerateEventStream(scenario, 400, scenario.seed + 1);
  const auto exhaustive = BuildSmall(EveOptions{}, 0, scenario);
  const auto balanced =
      BuildSmall(EvolutionPolicy::Balanced().ToEveOptions(), 0, scenario);
  const auto a = ReplayScenario(*exhaustive, stream);
  const auto b = ReplayScenario(*balanced, stream);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->alive_views, b->alive_views);
  EXPECT_EQ(a->dead_views, b->dead_views);

  const PolicyStats& stats = b->final_policy;
  EXPECT_EQ(stats.decisions, stats.full + stats.capped +
                                 stats.skipped_unaffected +
                                 stats.skipped_dead);
  EXPECT_GT(stats.decisions, 0);
  EXPECT_GT(stats.skipped_unaffected, 0);
  EXPECT_GT(stats.capped, 0);
  // The acceptance curve: >= 3x fewer candidates considered...
  EXPECT_GE(a->final_policy.candidates_considered,
            3 * stats.candidates_considered);
  // ... at <= 2% mean adopted-QC loss vs the always-enumerate oracle.
  ASSERT_GT(a->MeanAdoptedQc(), 0.0);
  EXPECT_LE(a->MeanAdoptedQc() - b->MeanAdoptedQc(),
            0.02 * a->MeanAdoptedQc());
  EXPECT_NE(stats.ToString().find("decisions"), std::string::npos);
}

}  // namespace
}  // namespace eve
