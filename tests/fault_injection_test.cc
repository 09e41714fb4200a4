// Chaos suite: deterministic fault injection across every armed site in
// the library.  For each site the contract is the same -- an injected
// failure surfaces as a clean non-OK Status (never an abort or undefined
// behavior), no torn state survives, and once the site is disarmed the
// exact same operation succeeds byte-identically to an oracle run captured
// before any fault was armed.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "algebra/executor.h"
#include "common/fault_injection.h"
#include "esql/parser.h"
#include "eve/eve_system.h"
#include "maintenance/maintainer.h"
#include "misd/mkb.h"
#include "oracles/executor_reference.h"
#include "plan/plan_cache.h"
#include "plan/planner.h"
#include "space/information_space.h"
#include "synch/synchronizer.h"

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

// Every test must leave the process-wide registry clean, or an armed site
// would leak into unrelated tests.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Instance().Reset(); }
  void TearDown() override { FaultInjection::Instance().Reset(); }
};

// --- Registry semantics -------------------------------------------------------

TEST_F(FaultInjectionTest, DisarmedSiteIsFree) {
  EXPECT_FALSE(FaultInjection::Instance().enabled());
  EXPECT_TRUE(FaultInjection::Probe("nonexistent.site").ok());
  EXPECT_EQ(FaultInjection::Instance().HitCount("nonexistent.site"), 0);
}

TEST_F(FaultInjectionTest, CountWindowSkipsThenFires) {
  FaultInjection& fi = FaultInjection::Instance();
  FaultSpec spec;
  spec.after = 2;
  spec.count = 1;
  fi.Arm("x", spec);
  EXPECT_TRUE(fi.enabled());
  EXPECT_TRUE(fi.OnHit("x").ok());   // Hit 1: in the skip window.
  EXPECT_TRUE(fi.OnHit("x").ok());   // Hit 2: in the skip window.
  const Status fired = fi.OnHit("x");  // Hit 3: fires.
  EXPECT_EQ(fired.code(), StatusCode::kInternal);
  EXPECT_TRUE(fi.OnHit("x").ok());   // Hit 4: window exhausted.
  EXPECT_EQ(fi.HitCount("x"), 4);
  EXPECT_EQ(fi.FiredCount("x"), 1);
}

TEST_F(FaultInjectionTest, StarCountFiresForever) {
  FaultInjection& fi = FaultInjection::Instance();
  ASSERT_TRUE(fi.ArmFromString("x=1+*").ok());
  EXPECT_TRUE(fi.OnHit("x").ok());
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(fi.OnHit("x").ok());
  EXPECT_EQ(fi.FiredCount("x"), 5);
}

TEST_F(FaultInjectionTest, InjectedCodeIsConfigurable) {
  FaultInjection& fi = FaultInjection::Instance();
  ASSERT_TRUE(fi.ArmFromString(
                    "a=0:deadline; b=0:cancelled; c=0:resource; "
                    "d=0:failed; e=0:notfound; f=0:internal")
                  .ok());
  EXPECT_EQ(fi.OnHit("a").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(fi.OnHit("b").code(), StatusCode::kCancelled);
  EXPECT_EQ(fi.OnHit("c").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fi.OnHit("d").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fi.OnHit("e").code(), StatusCode::kNotFound);
  EXPECT_EQ(fi.OnHit("f").code(), StatusCode::kInternal);
}

TEST_F(FaultInjectionTest, ProbabilisticFiringIsDeterministic) {
  FaultInjection& fi = FaultInjection::Instance();
  auto pattern = [&](const std::string& spec) {
    fi.Reset();
    EXPECT_TRUE(fi.ArmFromString(spec).ok());
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(!fi.OnHit("x").ok());
    return fired;
  };
  const auto first = pattern("x=p0.3@42");
  const auto second = pattern("x=p0.3@42");
  EXPECT_EQ(first, second) << "same seed must reproduce the same run";
  const int fired_count = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired_count, 20);   // ~60 expected; loose deterministic bounds.
  EXPECT_LT(fired_count, 120);
  EXPECT_NE(first, pattern("x=p0.3@43")) << "different seed, different run";
}

TEST_F(FaultInjectionTest, MalformedSpecsAreRejected) {
  FaultInjection& fi = FaultInjection::Instance();
  for (const char* bad :
       {"noequals", "=rule", "x=", "x=abc", "x=-1", "x=2+0", "x=2+x",
        "x=p0.5", "x=p1.5@3", "x=p0.5@zz", "x=0:nosuchcode"}) {
    EXPECT_FALSE(fi.ArmFromString(bad).ok()) << bad;
  }
  // A valid multi-entry spec with whitespace and empty entries parses.
  EXPECT_TRUE(fi.ArmFromString(" a=0 ; ; b=p0.5@7:resource ").ok());
  EXPECT_EQ(fi.ArmedSites().size(), 2u);
}

TEST_F(FaultInjectionTest, RearmReplacesAndResetsCounters) {
  FaultInjection& fi = FaultInjection::Instance();
  ASSERT_TRUE(fi.ArmFromString("x=0+*").ok());
  EXPECT_FALSE(fi.OnHit("x").ok());
  ASSERT_TRUE(fi.ArmFromString("x=5").ok());  // Re-arm: counters reset.
  EXPECT_EQ(fi.HitCount("x"), 0);
  EXPECT_TRUE(fi.OnHit("x").ok());
  fi.Disarm("x");
  EXPECT_FALSE(fi.enabled());
  EXPECT_TRUE(fi.OnHit("x").ok());
}

// --- Chaos walk over every library fault site ---------------------------------

// One joined view over two relations plus maintenance and synchronization
// machinery: enough surface to reach every fault site in the library.
class ChaosWalkTest : public FaultInjectionTest {
 protected:
  void SetUp() override {
    FaultInjectionTest::SetUp();
    std::vector<std::vector<int>> r_rows, s_rows;
    for (int i = 0; i < 16; ++i) {
      r_rows.push_back({i, i * 10});
      s_rows.push_back({i, i * 100});
    }
    ASSERT_TRUE(space_.AddRelation("IS1", MakeRelation("R", {"K", "X"}, r_rows))
                    .ok());
    ASSERT_TRUE(space_.AddRelation("IS2", MakeRelation("S", {"K", "Y"}, s_rows))
                    .ok());
    view_ = Parse("CREATE VIEW V AS SELECT R.X, S.Y FROM R, S WHERE R.K = S.K");

    // A separate schema-only world for the synchronizer/MKB sites: R(A,B)
    // with its A column contained in S(A,C), so deleting R has exactly one
    // legal replacement.
    auto int_schema = [](const std::vector<std::string>& names) {
      std::vector<Attribute> attrs;
      for (const std::string& n : names) {
        attrs.push_back(Attribute::Make(n, DataType::kInt64, 50));
      }
      return Schema(std::move(attrs));
    };
    ASSERT_TRUE(mkb_.RegisterRelationWithStats(RelationId{"IS1", "R"},
                                               int_schema({"A", "B"}), 16, 1.0)
                    .ok());
    ASSERT_TRUE(mkb_.RegisterRelationWithStats(RelationId{"IS2", "S"},
                                               int_schema({"A", "C"}), 16, 1.0)
                    .ok());
    ASSERT_TRUE(mkb_.AddPcConstraint(
                        MakeProjectionPc(RelationId{"IS1", "R"},
                                         RelationId{"IS2", "S"}, {"A"},
                                         PcRelationType::kSubset))
                    .ok());
    sync_view_ = Parse("CREATE VIEW W AS SELECT R.A (AR=true) "
                       "FROM R (RR=true)");
  }

  // Runs `op` with `site` armed to fail its first hit, then disarmed.
  // Asserts: armed -> clean non-OK Status that actually fired; disarmed ->
  // success with a byte-identical result to `oracle`.
  void ExpectFaultThenRecovery(const std::string& site,
                               const std::function<Result<std::string>()>& op) {
    const auto oracle = op();
    ASSERT_TRUE(oracle.ok()) << site << ": " << oracle.status().ToString();

    FaultInjection& fi = FaultInjection::Instance();
    ASSERT_TRUE(fi.ArmFromString(site + "=0+*").ok());
    const auto faulted = op();
    EXPECT_FALSE(faulted.ok()) << site << " armed but operation succeeded";
    EXPECT_EQ(faulted.status().code(), StatusCode::kInternal) << site;
    EXPECT_GT(fi.FiredCount(site), 0) << site << " never fired";

    fi.Disarm(site);
    const auto recovered = op();
    ASSERT_TRUE(recovered.ok())
        << site << " after disarm: " << recovered.status().ToString();
    EXPECT_EQ(*recovered, *oracle)
        << site << ": post-recovery result differs from the oracle";
  }

  InformationSpace space_;
  MetaKnowledgeBase mkb_;
  ViewDefinition view_;
  ViewDefinition sync_view_;
};

TEST_F(ChaosWalkTest, ExecutionAndPlanningSites) {
  const auto execute = [&]() -> Result<std::string> {
    EVE_ASSIGN_OR_RETURN(Relation rel, ExecuteView(view_, space_));
    return rel.ToString();
  };
  for (const char* site : {"planner.prepare", "planner.pushdown",
                           "executor.probe", "executor.gather",
                           "executor.materialize"}) {
    SCOPED_TRACE(site);
    ExpectFaultThenRecovery(site, execute);
  }
  ExpectFaultThenRecovery("executor.reference", [&]() -> Result<std::string> {
    EVE_ASSIGN_OR_RETURN(Relation rel, ExecuteViewReference(view_, space_));
    return rel.ToString();
  });
}

TEST_F(ChaosWalkTest, PlanCacheSite) {
  ExpectFaultThenRecovery("plan_cache.get", [&]() -> Result<std::string> {
    PlanCache cache;
    EVE_ASSIGN_OR_RETURN(Relation rel, cache.Execute(view_, space_));
    return rel.ToString();
  });
}

TEST_F(ChaosWalkTest, SynchronizerSites) {
  const SchemaChange change = DeleteRelation{RelationId{"IS1", "R"}};
  const auto synchronize = [&]() -> Result<std::string> {
    ViewSynchronizer synchronizer(mkb_);
    EVE_ASSIGN_OR_RETURN(SynchronizationResult result,
                         synchronizer.Synchronize(sync_view_, change));
    std::string out;
    for (const Rewriting& rw : result.rewritings) {
      out += rw.definition.name + ";";
    }
    return out;
  };
  for (const char* site : {"synch.run", "synch.finish"}) {
    SCOPED_TRACE(site);
    ExpectFaultThenRecovery(site, synchronize);
  }
}

TEST_F(ChaosWalkTest, MkbClosureSite) {
  ExpectFaultThenRecovery("mkb.closure", [&]() -> Result<std::string> {
    EVE_ASSIGN_OR_RETURN(
        const std::vector<PcEdge>* edges,
        mkb_.PcEdgesFromTransitiveGoverned(RelationId{"IS1", "R"}, 4,
                                           ExecContext::Unlimited()));
    return std::to_string(edges->size());
  });
}

TEST_F(ChaosWalkTest, MaintainerSites) {
  MaintainerOptions no_backoff;
  no_backoff.recompute_retry_backoff = std::chrono::microseconds(0);
  ExpectFaultThenRecovery("maintainer.recompute", [&]() -> Result<std::string> {
    ViewMaintainer maintainer(space_, no_backoff);
    EVE_ASSIGN_OR_RETURN(Relation rel, maintainer.Recompute(view_));
    return rel.ToString();
  });

  ExpectFaultThenRecovery("maintainer.update", [&]() -> Result<std::string> {
    // A self-contained incremental round: private space so the armed run
    // cannot leave partial state behind for the recovery run.
    InformationSpace space;
    EVE_RETURN_IF_ERROR(space.AddRelation(
        "IS1", MakeRelation("R", {"K", "X"}, {{1, 10}, {2, 20}})));
    EVE_RETURN_IF_ERROR(space.AddRelation(
        "IS2", MakeRelation("S", {"K", "Y"}, {{1, 100}, {2, 200}})));
    const ViewDefinition view =
        Parse("CREATE VIEW V AS SELECT R.X, S.Y FROM R, S WHERE R.K = S.K");
    ViewMaintainer maintainer(space);
    EVE_ASSIGN_OR_RETURN(Relation extent, maintainer.Recompute(view));
    const DataUpdate update{UpdateKind::kInsert, RelationId{"IS1", "R"},
                            Tuple{Value(3), Value(30)}};
    EVE_RETURN_IF_ERROR(space.ApplyDataUpdate(update));
    EVE_RETURN_IF_ERROR(
        maintainer.ProcessUpdate(view, update, &extent).status());
    return extent.ToString();
  });
}

TEST_F(ChaosWalkTest, EveMaterializeSite) {
  ExpectFaultThenRecovery("eve.materialize", [&]() -> Result<std::string> {
    EveSystem eve;  // materialize=true: DefineView materializes immediately.
    EVE_RETURN_IF_ERROR(eve.RegisterRelation(
        "IS1", MakeRelation("R", {"A", "B"}, {{1, 2}, {3, 4}}), 1.0));
    EVE_RETURN_IF_ERROR(eve.DefineView(
        "CREATE VIEW V AS SELECT R.A (AR=true) FROM R (RR=true)"));
    EVE_ASSIGN_OR_RETURN(const Relation extent, eve.GetViewExtent("V"));
    return extent.ToString();
  });
}

// --- Recovery-path behaviors beyond plain retry -------------------------------

TEST_F(ChaosWalkTest, MaintainerRetriesTransientRecomputeFaults) {
  MaintainerOptions options;
  options.max_recompute_attempts = 3;
  options.recompute_retry_backoff = std::chrono::microseconds(0);
  ViewMaintainer maintainer(space_, options);
  FaultInjection& fi = FaultInjection::Instance();

  // Two transient failures, third attempt clean: the retry loop absorbs
  // them and the caller never sees an error.
  ASSERT_TRUE(fi.ArmFromString("maintainer.recompute=0+2").ok());
  const auto recovered = maintainer.Recompute(view_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(fi.FiredCount("maintainer.recompute"), 2);

  // Persistent failure: all attempts burn, the last error propagates.
  ASSERT_TRUE(fi.ArmFromString("maintainer.recompute=0+*").ok());
  const auto failed = maintainer.Recompute(view_);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(fi.FiredCount("maintainer.recompute"), 3)
      << "must stop at max_recompute_attempts";
}

TEST_F(ChaosWalkTest, MaintainerDoesNotRetryGovernanceFaults) {
  MaintainerOptions options;
  options.recompute_retry_backoff = std::chrono::microseconds(0);
  ViewMaintainer maintainer(space_, options);
  FaultInjection& fi = FaultInjection::Instance();
  // A deadline-coded fault is not transient: exactly one attempt.
  ASSERT_TRUE(fi.ArmFromString("maintainer.recompute=0+*:deadline").ok());
  const auto result = maintainer.Recompute(view_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(fi.FiredCount("maintainer.recompute"), 1);
}

TEST_F(ChaosWalkTest, PlanCacheQuarantinesFaultingPlan) {
  PlanCache cache;
  // Warm the cache, then let execution fail once with an Internal error:
  // the cache must evict the implicated plan, replan, and succeed.
  const auto warm = cache.Execute(view_, space_);
  ASSERT_TRUE(warm.ok());
  FaultInjection& fi = FaultInjection::Instance();
  ASSERT_TRUE(fi.ArmFromString("executor.probe=0+1").ok());
  const auto result = cache.Execute(view_, space_);
  ASSERT_TRUE(result.ok())
      << "one transient execution fault must be absorbed by quarantine: "
      << result.status().ToString();
  EXPECT_EQ(result->ToString(), warm->ToString());
  EXPECT_EQ(cache.stats().quarantines, 1);

  // A persistently faulting plan is NOT retried forever: the second
  // failure propagates.
  ASSERT_TRUE(fi.ArmFromString("executor.probe=0+*").ok());
  const auto persistent = cache.Execute(view_, space_);
  ASSERT_FALSE(persistent.ok());
  EXPECT_EQ(persistent.status().code(), StatusCode::kInternal);
}

TEST_F(ChaosWalkTest, EveSystemLifecycleSurvivesTransientChaos) {
  // Probabilistic chaos over the whole 5-step lifecycle: every outcome must
  // be a clean Status, and after disarming, the change must apply and leave
  // the view alive on its replacement.
  auto lifecycle = []() -> Result<std::string> {
    EveSystem eve;
    EVE_RETURN_IF_ERROR(eve.RegisterRelation(
        "IS1", MakeRelation("R", {"A", "B"}, {{1, 2}, {3, 4}}), 1.0));
    EVE_RETURN_IF_ERROR(eve.RegisterRelation(
        "IS2", MakeRelation("S", {"A", "C"}, {{1, 5}, {3, 6}}), 1.0));
    EVE_RETURN_IF_ERROR(eve.AddPcConstraint(
        MakeProjectionPc(RelationId{"IS1", "R"}, RelationId{"IS2", "S"},
                         {"A"}, PcRelationType::kSubset)));
    EVE_RETURN_IF_ERROR(eve.DefineView(
        "CREATE VIEW V AS SELECT R.A (AR=true) FROM R (RR=true)"));
    EVE_RETURN_IF_ERROR(
        eve.NotifySchemaChange(DeleteRelation{RelationId{"IS1", "R"}})
            .status());
    EVE_ASSIGN_OR_RETURN(const Relation extent, eve.GetViewExtent("V"));
    return extent.ToString();
  };
  const auto oracle = lifecycle();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  FaultInjection& fi = FaultInjection::Instance();
  ASSERT_TRUE(fi.ArmFromString("executor.probe=p0.2@7; synch.run=p0.2@11; "
                               "mkb.closure=p0.1@13; eve.materialize=p0.3@17")
                  .ok());
  int failures = 0;
  for (int round = 0; round < 20; ++round) {
    const auto chaotic = lifecycle();
    if (!chaotic.ok()) {
      ++failures;
      EXPECT_NE(chaotic.status().code(), StatusCode::kOk);
    } else {
      EXPECT_EQ(*chaotic, *oracle);
    }
  }
  EXPECT_GT(failures, 0) << "chaos was armed but nothing ever failed";

  fi.Reset();
  const auto recovered = lifecycle();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, *oracle);
}

TEST_F(ChaosWalkTest, ConcurrentProbabilisticInjectionIsClean) {
  // Shared prepared plan, four threads, 20% injected faults: exercised
  // under TSan in CI.  Every result is OK or the injected code.
  const auto plan = PrepareView(view_, space_);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(FaultInjection::Instance()
                  .ArmFromString("executor.gather=p0.2@23")
                  .ok());
  std::atomic<int> ok_count{0}, injected_count{0}, other_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 25; ++round) {
        const auto result = ExecutePrepared(**plan);
        if (result.ok()) {
          ++ok_count;
        } else if (result.status().code() == StatusCode::kInternal) {
          ++injected_count;
        } else {
          ++other_count;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(other_count.load(), 0);
  EXPECT_GT(ok_count.load(), 0);
  EXPECT_GT(injected_count.load(), 0);
}

}  // namespace
}  // namespace eve
