// The fixed cost of a Focused report's verify gate must not grow with
// the registry or with the reports already run (paper Figure 1,
// Theorems 3-4):
//
//  - the registry age range that stamps age=/bound= comes from the
//    registry table's epoch-keyed memo, so a second report on an
//    unchanged registry reads 0 Heartbeat rows at 20 and at 20,000
//    sources — and after every kind of registry commit, and at a
//    snapshot older than the memo, age= and the NOTICE bound still
//    equal a fresh scan;
//  - each query is planned exactly once per report: the verify gate's
//    plans are the ones that execute.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/heartbeat.h"
#include "core/recency_reporter.h"
#include "core/session.h"
#include "exec/planner.h"
#include "expr/binder.h"
#include "ir/lower.h"
#include "ir/plan_ir.h"
#include "telemetry/metrics.h"
#include "workload/eval_workload.h"

namespace trac {
namespace {

int64_t RegistryRowsRead() {
  return MetricRegistry::Default()
      .GetCounter("trac_lower_registry_rows_read_total", "")
      ->Value();
}

int64_t PlansMade() {
  return MetricRegistry::Default()
      .GetCounter("trac_plan_verify_total", "", {{"outcome", "ok"}})
      ->Value();
}

/// The registry's recency range at `snap`, by a plain scan.
TimestampBounds ScanAges(const HeartbeatTable& hb, Snapshot snap) {
  TimestampBounds b;
  for (const auto& [source, ts] : hb.GetAll(snap)) {
    const int64_t us = ts.micros();
    if (!b.known) {
      b = TimestampBounds{true, us, us};
      continue;
    }
    b.lo = std::min(b.lo, us);
    b.hi = std::max(b.hi, us);
  }
  return b;
}

/// Every age= of `ir` and the report node's bound= equal `expected`.
void ExpectAgesEqual(const PlanIr& ir, const TimestampBounds& expected) {
  ASSERT_TRUE(expected.known);
  size_t ages = 0;
  bool bound = false;
  for (const IrNode& n : ir.nodes) {
    if (n.has_age) {
      ++ages;
      EXPECT_EQ(n.age_lo, expected.lo) << "node " << n.id;
      EXPECT_EQ(n.age_hi, expected.hi) << "node " << n.id;
    }
    if (n.kind == IrNodeKind::kReport) {
      bound = n.has_bound;
      EXPECT_EQ(n.notice_bound_micros, expected.hi - expected.lo);
    }
  }
  EXPECT_GT(ages, 0u);
  EXPECT_TRUE(bound);
}

class ReportGateCostTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    EvalWorkloadOptions options;
    options.num_sources = GetParam();
    options.total_activity_rows = 2 * GetParam();
    auto workload = BuildEvalWorkload(&db_, options);
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    workload_ = *workload;
    auto hb = HeartbeatTable::Open(&db_);
    ASSERT_TRUE(hb.ok());
    heartbeat_ = std::make_unique<HeartbeatTable>(*hb);
  }

  /// One Focused Q1 report (temp tables on, profiled), checked against a
  /// fresh registry scan at its snapshot. Returns the registry rows the
  /// report's gate read.
  int64_t ReportAndCheck() {
    RecencyReporter reporter(&db_, &session_);
    const int64_t before = RegistryRowsRead();
    auto report = reporter.Run(workload_.Q1());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) return -1;
    const int64_t read = RegistryRowsRead() - before;
    const TimestampBounds scan = ScanAges(*heartbeat_, report->snapshot);
    auto ir = ParsePlanIr(report->profiled_ir);
    EXPECT_TRUE(ir.ok()) << ir.status().ToString();
    if (ir.ok()) ExpectAgesEqual(*ir, scan);
    if (report->static_bounds_computed) {
      EXPECT_LE(report->static_staleness_width_micros, scan.hi - scan.lo);
    }
    return read;
  }

  size_t Visible() const {
    return heartbeat_->NumSources(db_.LatestSnapshot());
  }

  Database db_;
  Session session_{&db_};
  EvalWorkload workload_;
  std::unique_ptr<HeartbeatTable> heartbeat_;
};

TEST_P(ReportGateCostTest, SecondReportReadsNoRegistryRows) {
  EXPECT_EQ(ReportAndCheck(), static_cast<int64_t>(GetParam()));
  EXPECT_EQ(ReportAndCheck(), 0);
  EXPECT_EQ(ReportAndCheck(), 0);
}

TEST_P(ReportGateCostTest, AgesTrackEveryRegistryCommit) {
  ASSERT_GT(ReportAndCheck(), 0);
  const Snapshot before_commits = db_.LatestSnapshot();
  const TimestampBounds start = ScanAges(*heartbeat_, before_commits);
  const std::string& victim = workload_.sources.back();

  // A heartbeat commit past the current maximum.
  ASSERT_TRUE(
      heartbeat_->ReportHeartbeat(victim, Timestamp(start.hi + 60'000'000))
          .ok());
  EXPECT_EQ(ReportAndCheck(), static_cast<int64_t>(Visible()));
  EXPECT_EQ(ReportAndCheck(), 0);

  // SetRecency lowering a timestamp below the current minimum.
  ASSERT_TRUE(
      heartbeat_->SetRecency(victim, Timestamp(start.lo - 60'000'000)).ok());
  EXPECT_EQ(ReportAndCheck(), static_cast<int64_t>(Visible()));
  EXPECT_EQ(ReportAndCheck(), 0);

  // Deleting the registry row that holds the minimum.
  auto deleted = db_.DeleteWhere(heartbeat_->name(), [&](const Row& row) {
    return row[0].str_val() == victim;
  });
  ASSERT_TRUE(deleted.ok());
  ASSERT_EQ(*deleted, 1);
  EXPECT_EQ(ReportAndCheck(), static_cast<int64_t>(Visible()));
  EXPECT_EQ(ReportAndCheck(), 0);

  // A lowering at a snapshot older than the memo's epoch must scan at
  // that snapshot, and must not disturb the memo for later reports.
  auto bound = BindSql(db_, workload_.Q1());
  ASSERT_TRUE(bound.ok());
  auto plan = PlanQuery(db_, *bound, before_commits);
  ASSERT_TRUE(plan.ok());
  ReportSessionInput input;
  input.user_query = &*bound;
  input.user_plan = &*plan;
  input.snapshot = before_commits;
  LowerOptions lower;
  lower.heartbeat_table = std::string(HeartbeatTable::kDefaultName);
  const int64_t old_before = RegistryRowsRead();
  ExpectAgesEqual(LowerReportSession(db_, input, lower), start);
  EXPECT_EQ(RegistryRowsRead() - old_before,
            static_cast<int64_t>(heartbeat_->NumSources(before_commits)));
  EXPECT_EQ(ReportAndCheck(), 0);
}

INSTANTIATE_TEST_SUITE_P(RegistrySizes, ReportGateCostTest,
                         ::testing::Values(size_t{20}, size_t{20000}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "sources" + std::to_string(info.param);
                         });

/// Planner calls per Run equal 1 (user query) + #parts + #guards: the
/// verify gate plans each query once and execution reuses those plans.
TEST(PlanOnceTest, EachQueryIsPlannedOncePerReport) {
  Database db;
  EvalWorkloadOptions options;
  options.num_sources = 40;
  options.total_activity_rows = 400;
  auto workload = BuildEvalWorkload(&db, options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  Session session(&db);
  RecencyReporter reporter(&db, &session);
  size_t guarded = 0;
  for (const std::string& sql : {workload->Q1(), workload->Q3()}) {
    auto bound = BindSql(db, sql);
    ASSERT_TRUE(bound.ok());
    auto generated = GenerateRecencyQueries(db, *bound);
    ASSERT_TRUE(generated.ok());
    int64_t expected = 1 + static_cast<int64_t>(generated->parts.size());
    for (const RecencyQueryPlan::Part& part : generated->parts) {
      expected += static_cast<int64_t>(part.guards.size());
      guarded += part.guards.size();
    }
    for (int rep = 0; rep < 2; ++rep) {
      const int64_t before = PlansMade();
      auto report = reporter.Run(sql);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(PlansMade() - before, expected) << sql;
    }
  }
  EXPECT_GT(guarded, 0u) << "Q3 must exercise the guard path";
}

}  // namespace
}  // namespace trac
