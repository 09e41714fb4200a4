// Resource-governance tests: ExecContext knobs and edge cases, the
// amortized ExecGovernor, governed execution (hard errors), governed
// rewriting enumeration (graceful truncation), the governed MKB closure
// memo, and concurrent cancellation (exercised under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "algebra/executor.h"
#include "common/exec_context.h"
#include "common/parallel.h"
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

// --- ExecContext knobs --------------------------------------------------------

TEST(ExecContext, UnlimitedDefaultNeverFails) {
  const ExecContext& ctx = ExecContext::Unlimited();
  EXPECT_FALSE(ctx.limited());
  EXPECT_TRUE(ctx.CheckNow().ok());
  EXPECT_TRUE(ctx.ConsumeRows(1 << 20).ok());
  EXPECT_TRUE(ctx.ConsumeCandidates(1 << 20).ok());
  EXPECT_TRUE(ctx.ConsumeMemory(int64_t{1} << 40).ok());
  EXPECT_EQ(ctx.RowsRemaining(), ExecContext::kUnlimited);
}

TEST(ExecContext, ZeroRowBudgetFailsImmediately) {
  ExecContext ctx;
  ctx.WithRowBudget(0);
  EXPECT_TRUE(ctx.limited());
  const Status s = ctx.ConsumeRows(1);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.RowsRemaining(), 0);
}

TEST(ExecContext, BudgetAccountingAndOvershoot) {
  ExecContext ctx;
  ctx.WithRowBudget(10);
  EXPECT_TRUE(ctx.ConsumeRows(6).ok());
  EXPECT_EQ(ctx.RowsRemaining(), 4);
  EXPECT_TRUE(ctx.ConsumeRows(4).ok());  // Exactly at the budget.
  EXPECT_EQ(ctx.RowsRemaining(), 0);
  EXPECT_EQ(ctx.ConsumeRows(5).code(), StatusCode::kResourceExhausted);
  // Counters keep counting past exhaustion so the overshoot is reported.
  EXPECT_EQ(ctx.rows_used(), 15);
}

TEST(ExecContext, CandidateAndMemoryBudgets) {
  ExecContext ctx;
  ctx.WithCandidateBudget(2).WithMemoryBudget(100);
  EXPECT_TRUE(ctx.ConsumeCandidates(2).ok());
  EXPECT_EQ(ctx.ConsumeCandidates(1).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(ctx.ConsumeMemory(100).ok());
  EXPECT_EQ(ctx.ConsumeMemory(1).code(), StatusCode::kResourceExhausted);
}

TEST(ExecContext, ExpiredDeadline) {
  ExecContext ctx;
  ctx.WithDeadline(ExecContext::Clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(ctx.limited());
  EXPECT_EQ(ctx.CheckNow().code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecContext, FutureDeadlinePasses) {
  ExecContext ctx;
  ctx.WithDeadlineAfter(std::chrono::hours(1));
  EXPECT_TRUE(ctx.limited());
  EXPECT_TRUE(ctx.CheckNow().ok());
}

TEST(ExecContext, CancellationBeatsDeadline) {
  CancelToken token;
  ExecContext ctx;
  // Both tripwires set: cancellation must win (it is the caller's explicit
  // intent; a deadline message would misdiagnose it as slowness).
  ctx.WithDeadline(ExecContext::Clock::now() - std::chrono::seconds(1))
      .WithCancelToken(&token);
  token.Cancel();
  EXPECT_EQ(ctx.CheckNow().code(), StatusCode::kCancelled);
}

TEST(ExecContext, SharedAcrossThreads) {
  ExecContext ctx;
  ctx.WithRowBudget(1000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&ctx] {
      for (int i = 0; i < 100; ++i) (void)ctx.ConsumeRows(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ctx.rows_used(), 400);
  EXPECT_EQ(ctx.RowsRemaining(), 600);
}

// --- ExecGovernor -------------------------------------------------------------

TEST(ExecGovernor, InactiveOnUnlimitedContext) {
  const ExecContext ctx;  // Default-constructed: no knob set.
  ExecGovernor gov(ctx);
  EXPECT_FALSE(gov.active());
  for (int i = 0; i < 10000; ++i) EXPECT_TRUE(gov.Charge().ok());
  EXPECT_TRUE(gov.Flush().ok());
  EXPECT_EQ(ctx.rows_used(), 0) << "inactive governor must not charge";
}

TEST(ExecGovernor, SmallBudgetTripsWithinOneStride) {
  ExecContext ctx;
  ctx.WithRowBudget(10);
  ExecGovernor gov(ctx);
  EXPECT_TRUE(gov.active());
  // The stride tightens to the remaining budget, so the failure surfaces
  // promptly -- not after kCheckStride rows.
  Status s;
  int charged = 0;
  for (; charged < 100 && s.ok(); ++charged) s = gov.Charge();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_LT(charged, 64) << "small budget must not wait for a full stride";
}

TEST(ExecGovernor, FlushChargesTheTail) {
  ExecContext ctx;
  ctx.WithRowBudget(1000000);
  {
    ExecGovernor gov(ctx);
    for (int i = 0; i < 7; ++i) EXPECT_TRUE(gov.Charge().ok());
    EXPECT_TRUE(gov.Flush().ok());
  }
  EXPECT_EQ(ctx.rows_used(), 7);
}

// --- Governed execution: hard errors ------------------------------------------

class GovernedExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<std::vector<int>> r_rows, s_rows;
    for (int i = 0; i < 64; ++i) {
      r_rows.push_back({i, i * 10});
      s_rows.push_back({i, i * 100});
    }
    ASSERT_TRUE(space_.AddRelation("IS1", MakeRelation("R", {"K", "X"}, r_rows))
                    .ok());
    ASSERT_TRUE(space_.AddRelation("IS2", MakeRelation("S", {"K", "Y"}, s_rows))
                    .ok());
    view_ = Parse("CREATE VIEW V AS SELECT R.X, S.Y FROM R, S WHERE R.K = S.K");
  }

  InformationSpace space_;
  ViewDefinition view_;
};

TEST_F(GovernedExecutionTest, GenerousContextMatchesUngoverned) {
  const auto plain = ExecuteView(view_, space_);
  ASSERT_TRUE(plain.ok());
  ExecContext ctx;
  ctx.WithRowBudget(int64_t{1} << 40).WithDeadlineAfter(std::chrono::hours(1));
  const auto governed = ExecuteView(view_, space_, {}, ctx);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_EQ(governed->ToString(), plain->ToString());
  EXPECT_GT(ctx.rows_used(), 0) << "governed execution must charge rows";
}

TEST_F(GovernedExecutionTest, RowBudgetExhaustionIsHardError) {
  ExecContext ctx;
  ctx.WithRowBudget(4);
  const auto result = ExecuteView(view_, space_, {}, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GovernedExecutionTest, ExpiredDeadlineIsHardError) {
  ExecContext ctx;
  ctx.WithDeadline(ExecContext::Clock::now() - std::chrono::seconds(1));
  const auto result = ExecuteView(view_, space_, {}, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  const auto reference = ExecuteViewReference(view_, space_, {}, ctx);
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(reference.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(GovernedExecutionTest, CancelledTokenIsHardError) {
  CancelToken token;
  token.Cancel();
  ExecContext ctx;
  ctx.WithCancelToken(&token);
  const auto result = ExecuteView(view_, space_, {}, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// One shared prepared plan, one shared context, four executing threads, a
// cancel raised mid-flight: every thread must come back with OK or
// Cancelled (never a crash or torn Relation).  TSan covers the data-race
// side of this contract in CI.
TEST_F(GovernedExecutionTest, ConcurrentCancellationIsClean) {
  const auto plan = PrepareView(view_, space_);
  ASSERT_TRUE(plan.ok());
  CancelToken token;
  ExecContext ctx;
  ctx.WithCancelToken(&token);
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0}, cancelled_count{0}, other_count{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        const auto result = ExecutePrepared(**plan, ctx);
        if (result.ok()) {
          ++ok_count;
        } else if (result.status().code() == StatusCode::kCancelled) {
          ++cancelled_count;
        } else {
          ++other_count;
        }
      }
    });
  }
  token.Cancel();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(other_count.load(), 0);
  EXPECT_GT(cancelled_count.load(), 0);
}

TEST_F(GovernedExecutionTest, ParallelForStatusStopsOnCancel) {
  CancelToken token;
  token.Cancel();
  ExecContext ctx;
  ctx.WithCancelToken(&token);
  std::atomic<int> bodies_run{0};
  const Status s = ParallelForStatus(
      1000, 4,
      [&](int64_t) -> Status {
        ++bodies_run;
        return Status::OK();
      },
      ctx);
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_LT(bodies_run.load(), 1000);
}

TEST_F(GovernedExecutionTest, MaintainerRecomputeHonorsDeadline) {
  ViewMaintainer maintainer(space_);
  ExecContext ctx;
  ctx.WithDeadline(ExecContext::Clock::now() - std::chrono::seconds(1));
  const auto result = maintainer.Recompute(view_, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// --- Governed enumeration: graceful truncation --------------------------------

// Experiment 1's fixture: deleting R.A yields three legal rewritings (keep
// A from S, keep A from T, drop to B) -- enough alternatives for a small
// candidate budget to bite.
class GovernedSynchronizerTest : public ::testing::Test {
 protected:
  static Schema IntSchema(const std::vector<std::string>& names) {
    std::vector<Attribute> attrs;
    for (const std::string& n : names) {
      attrs.push_back(Attribute::Make(n, DataType::kInt64, 50));
    }
    return Schema(std::move(attrs));
  }

  void SetUp() override {
    ASSERT_TRUE(mkb_.RegisterRelationWithStats(RelationId{"IS1", "R"},
                                               IntSchema({"A", "B"}), 100, 1.0)
                    .ok());
    ASSERT_TRUE(mkb_.RegisterRelationWithStats(RelationId{"IS2", "S"},
                                               IntSchema({"A", "C"}), 120, 1.0)
                    .ok());
    ASSERT_TRUE(mkb_.RegisterRelationWithStats(RelationId{"IS3", "T"},
                                               IntSchema({"A", "D"}), 140, 1.0)
                    .ok());
    ASSERT_TRUE(mkb_.AddPcConstraint(
                        MakeProjectionPc(RelationId{"IS1", "R"},
                                         RelationId{"IS2", "S"}, {"A"},
                                         PcRelationType::kSubset))
                    .ok());
    ASSERT_TRUE(mkb_.AddPcConstraint(
                        MakeProjectionPc(RelationId{"IS1", "R"},
                                         RelationId{"IS3", "T"}, {"A"},
                                         PcRelationType::kSubset))
                    .ok());
    view_ = Parse(
        "CREATE VIEW V0 AS SELECT R.A (AD=true, AR=true), R.B (AD=true) "
        "FROM R (RR=true)");
  }

  MetaKnowledgeBase mkb_;
  ViewDefinition view_;
  SchemaChange change_ = DeleteAttribute{RelationId{"IS1", "R"}, "A"};
};

TEST_F(GovernedSynchronizerTest, UnlimitedEnumerationIsNotTruncated) {
  ViewSynchronizer synchronizer(mkb_);
  const auto result = synchronizer.Synchronize(view_, change_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->affected);
  EXPECT_FALSE(result->truncated);
  EXPECT_EQ(result->rewritings.size(), 3u);
}

TEST_F(GovernedSynchronizerTest, CandidateBudgetTruncatesInsteadOfFailing) {
  ViewSynchronizer synchronizer(mkb_);
  ExecContext ctx;
  ctx.WithCandidateBudget(1);
  const auto result = synchronizer.Synchronize(view_, change_, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->affected);
  EXPECT_TRUE(result->truncated);
  EXPECT_FALSE(result->truncation_reason.empty());
  // Best-so-far: whatever was admitted survives, and it is a strict subset
  // of the full enumeration.
  EXPECT_LT(result->rewritings.size(), 3u);
}

TEST_F(GovernedSynchronizerTest, ExpiredDeadlineTruncatesInsteadOfFailing) {
  ViewSynchronizer synchronizer(mkb_);
  ExecContext ctx;
  ctx.WithDeadline(ExecContext::Clock::now() - std::chrono::seconds(1));
  const auto result = synchronizer.Synchronize(view_, change_, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);
}

TEST_F(GovernedSynchronizerTest, CancellationIsAHardError) {
  ViewSynchronizer synchronizer(mkb_);
  CancelToken token;
  token.Cancel();
  ExecContext ctx;
  ctx.WithCancelToken(&token);
  const auto result = synchronizer.Synchronize(view_, change_, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(GovernedSynchronizerTest, CandidateApiReportsTruncationToo) {
  ViewSynchronizer synchronizer(mkb_);
  ExecContext ctx;
  ctx.WithCandidateBudget(1);
  const auto result = synchronizer.SynchronizeCandidates(view_, change_, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);
}

TEST_F(GovernedSynchronizerTest, GovernedClosureMemoHitIgnoresBudget) {
  // Cold memo + zero row budget: the closure walk has edges to charge, so
  // the governed variant fails...
  ExecContext exhausted;
  exhausted.WithRowBudget(0);
  const auto cold = mkb_.PcEdgesFromTransitiveGoverned(RelationId{"IS1", "R"},
                                                       4, exhausted);
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.status().code(), StatusCode::kResourceExhausted);
  // ...but after an ungoverned warm-up the memo hit is free and succeeds
  // even through the exhausted context.
  const auto warm = mkb_.PcEdgesFromTransitiveGoverned(
      RelationId{"IS1", "R"}, 4, ExecContext::Unlimited());
  ASSERT_TRUE(warm.ok());
  const auto hit = mkb_.PcEdgesFromTransitiveGoverned(RelationId{"IS1", "R"},
                                                      4, exhausted);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ((*hit)->size(), (*warm)->size());
}

// --- EveSystem integration ----------------------------------------------------

TEST(EveSystemGovernance, TruncatedEmptyEnumerationIsNeverFalselyDead) {
  EveSystem eve;
  eve.options().materialize = false;
  ExecContext ctx;
  ctx.WithCandidateBudget(0);  // Nothing can ever be admitted.
  eve.options().exec = &ctx;
  ASSERT_TRUE(eve.RegisterRelation("IS1", MakeRelation("R", {"A", "B"},
                                                       {{1, 2}}), 1.0)
                  .ok());
  ASSERT_TRUE(eve.RegisterRelation("IS2", MakeRelation("S", {"A", "C"},
                                                       {{1, 3}}), 1.0)
                  .ok());
  ASSERT_TRUE(eve.AddPcConstraint(
                      MakeProjectionPc(RelationId{"IS1", "R"},
                                       RelationId{"IS2", "S"}, {"A"},
                                       PcRelationType::kSubset))
                  .ok());
  ASSERT_TRUE(eve.DefineView("CREATE VIEW V AS SELECT R.A (AR=true) "
                             "FROM R (RR=true)")
                  .ok());
  const auto report = eve.NotifySchemaChange(
      SchemaChange(DeleteRelation{RelationId{"IS1", "R"}}));
  // A cut-off that found nothing must surface as an error -- an empty
  // truncated enumeration proves nothing about view death.
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(eve.GetViewState("V").value_or(ViewState::kDead), ViewState::kDead);
}

TEST(EveSystemGovernance, UngovernedLifecycleUnchanged) {
  EveSystem eve;
  eve.options().materialize = false;
  ASSERT_TRUE(eve.RegisterRelation("IS1", MakeRelation("R", {"A", "B"},
                                                       {{1, 2}}), 1.0)
                  .ok());
  ASSERT_TRUE(eve.RegisterRelation("IS2", MakeRelation("S", {"A", "C"},
                                                       {{1, 3}}), 1.0)
                  .ok());
  ASSERT_TRUE(eve.AddPcConstraint(
                      MakeProjectionPc(RelationId{"IS1", "R"},
                                       RelationId{"IS2", "S"}, {"A"},
                                       PcRelationType::kSubset))
                  .ok());
  ASSERT_TRUE(eve.DefineView("CREATE VIEW V AS SELECT R.A (AR=true) "
                             "FROM R (RR=true)")
                  .ok());
  const auto report = eve.NotifySchemaChange(
      SchemaChange(DeleteRelation{RelationId{"IS1", "R"}}));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->views.size(), 1u);
  EXPECT_FALSE(report->views[0].truncated);
  EXPECT_EQ(eve.GetViewState("V").value_or(ViewState::kDead),
            ViewState::kAlive);
}

}  // namespace
}  // namespace eve
