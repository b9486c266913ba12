// Concurrency stress for the registry age memo behind age=/bound=
// (Table::VisibleTimestampBounds): reporter threads run Focused Q1
// reports while a writer keeps committing heartbeats that move the
// registry's minimum and maximum. Every report — memo hit or scan —
// must stamp exactly the recency range a plain registry scan finds at
// the report's own snapshot: on every age= annotation, on the NOTICE
// bound=, and in the static staleness width the verify gate reads off
// the fixpoint. TSan-clean by construction: the memo lock is a leaf
// and the scan that fills the memo runs outside it.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/heartbeat.h"
#include "core/recency_reporter.h"
#include "ir/plan_ir.h"
#include "workload/eval_workload.h"

namespace trac {
namespace {

/// True when every age= of the report's session IR, its NOTICE bound=
/// and its static staleness width agree with a scan at its snapshot.
bool ReportMatchesScan(const HeartbeatTable& hb, const RecencyReport& report) {
  bool known = false;
  int64_t lo = 0;
  int64_t hi = 0;
  for (const auto& [source, ts] : hb.GetAll(report.snapshot)) {
    lo = known ? std::min(lo, ts.micros()) : ts.micros();
    hi = known ? std::max(hi, ts.micros()) : ts.micros();
    known = true;
  }
  auto ir = ParsePlanIr(report.profiled_ir);
  if (!known || !ir.ok()) return false;
  size_t ages = 0;
  bool bound = false;
  for (const IrNode& n : ir->nodes) {
    if (n.has_age) {
      ++ages;
      if (n.age_lo != lo || n.age_hi != hi) return false;
    }
    if (n.kind == IrNodeKind::kReport) {
      bound = n.has_bound && n.notice_bound_micros == hi - lo;
    }
  }
  return ages > 0 && bound && report.static_bounds_computed &&
         report.static_staleness_width_micros == hi - lo;
}

TEST(RegistryAgeStressTest, ReportsRacingHeartbeatsMatchAScan) {
  Database db;
  EvalWorkloadOptions options;
  options.num_sources = 200;
  options.total_activity_rows = 400;
  auto workload = BuildEvalWorkload(&db, options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto hb = HeartbeatTable::Open(&db);
  ASSERT_TRUE(hb.ok());
  const Timestamp base = options.base_time;

  constexpr size_t kReaders = 3;
  constexpr size_t kReportsPerReader = 40;
  constexpr size_t kWriterBeats = 80;

  std::atomic<size_t> failures{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> readers_left{kReaders};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      RecencyReporter reporter(&db, nullptr);
      RecencyReportOptions report_options;
      report_options.create_temp_tables = false;
      for (size_t i = 0; i < kReportsPerReader; ++i) {
        auto report = reporter.Run(workload->Q1(), report_options);
        if (!report.ok()) {
          ++failures;
          continue;
        }
        if (!ReportMatchesScan(*hb, *report)) ++mismatches;
      }
      --readers_left;
    });
  }
  threads.emplace_back([&] {
    // Each beat pushes one source past the current minimum (odd beats)
    // or maximum (even beats), so a memo served across a commit would
    // show as a wrong age= or bound=. Beats continue until every reader
    // is done, so the whole report stream races the writer.
    for (size_t b = 0; b < kWriterBeats || readers_left.load() > 0; ++b) {
      const std::string& source =
          workload->sources[b % workload->sources.size()];
      const int64_t shift =
          static_cast<int64_t>(b + 1) * Timestamp::kMicrosPerHour;
      const Timestamp ts = b % 2 == 1 ? base - shift : base + shift;
      if (!hb->SetRecency(source, ts).ok()) ++failures;
      std::this_thread::yield();
    }
  });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace trac
