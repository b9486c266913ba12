#include "replay.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "core/recency_stats.h"
#include "core/relevance.h"
#include "exec/executor.h"
#include "exec/planner.h"
#include "expr/binder.h"
#include "ir/lower.h"
#include "sql/parser.h"
#include "telemetry/trace.h"
#include "verify/verifier.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SpanRecorder::Begin(const char* name, uint64_t request,
                            int64_t parent) {
  return Add(name, request, parent, NowNs(), 0);
}

void SpanRecorder::End(int64_t index) { spans_[index].end_ns = NowNs(); }

int64_t SpanRecorder::Add(const char* name, uint64_t request, int64_t parent,
                          int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> SpanRecorder::SelfMicrosByName() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                   1000.0;
  }
  return out;
}

void SpanRecorder::AppendJsonLines(std::string* out) const {
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"parent\":%lld,"
                  "\"request\":%llu,\"name\":\"%s\",\"start_ns\":%lld,"
                  "\"end_ns\":%lld}\n",
                  i, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.name,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    *out += line;
  }
}

namespace {

uint64_t ScanRows(const trac::ExecProfile& profile) {
  uint64_t rows = 0;
  for (const trac::ExecProfile::Level& level : profile.levels) {
    rows += level.scan_rows;
  }
  return rows;
}

std::string CompareStats(const trac::RecencyStats& a,
                         const trac::RecencyStats& b) {
  if (!(a.normal == b.normal)) return "normal source list differs";
  if (!(a.exceptional == b.exceptional)) {
    return "exceptional source list differs";
  }
  if (a.least_recent != b.least_recent) return "least recent source differs";
  if (a.most_recent != b.most_recent) return "most recent source differs";
  if (a.inconsistency_bound_micros != b.inconsistency_bound_micros) {
    return "bound of inconsistency differs";
  }
  return "";
}

}  // namespace

std::string ReplayReport(trac::Database* db, trac::Session* session,
                         const std::string& sql,
                         const trac::RecencyReport& report,
                         SpanRecorder* spans, uint64_t request,
                         int64_t parent, LayerSamples* samples) {
  const trac::Snapshot snapshot = report.snapshot;
  // Times one layer call in its own span and records its duration.
  auto timed = [&](const char* span_name, const char* metric, auto&& call) {
    const int64_t span = spans->Begin(span_name, request, parent);
    auto result = call();
    spans->End(span);
    const Span& s = spans->spans()[span];
    (*samples)[metric].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                                 1000.0);
    return result;
  };
  auto record = [&](const char* metric, double value) {
    (*samples)[metric].push_back(value);
  };

  auto stmt = timed("sql.parse", "sql.parse_us",
                    [&] { return trac::ParseSelect(sql); });
  if (!stmt.ok()) return "ParseSelect: " + stmt.status().ToString();
  auto query = timed("expr.bind", "expr.bind_us",
                     [&] { return trac::BindSelect(*db, *stmt); });
  if (!query.ok()) return "BindSelect: " + query.status().ToString();
  const trac::RelevanceOptions relevance_options;
  auto plan = timed("core.generate", "core.generate_us", [&] {
    return trac::GenerateRecencyQueries(*db, *query, relevance_options);
  });
  if (!plan.ok()) {
    return "GenerateRecencyQueries: " + plan.status().ToString();
  }
  size_t guards = 0;
  for (const auto& part : plan->parts) guards += part.guards.size();
  record("core.parts", static_cast<double>(plan->parts.size()));
  record("core.guards", static_cast<double>(guards));

  // Plans exactly what the reporter's verify gate plans: the user query,
  // then every unsharded part and its guards.
  trac::PlanningHints hints;
  hints.guarantee = &plan->analysis;
  trac::QueryPlan user_plan;
  std::vector<trac::QueryPlan> part_plans(plan->parts.size());
  std::vector<std::vector<trac::QueryPlan>> guard_plans(plan->parts.size());
  trac::ReportSessionInput input;
  size_t plan_calls = 0;
  const trac::Status planned = timed("exec.plan", "exec.plan_us", [&] {
    auto user = trac::PlanQuery(*db, *query, snapshot, hints);
    ++plan_calls;
    if (!user.ok()) return user.status();
    user_plan = std::move(*user);
    input.user_query = &*query;
    input.user_plan = &user_plan;
    input.snapshot = snapshot;
    for (size_t i = 0; i < plan->parts.size(); ++i) {
      const auto& part = plan->parts[i];
      trac::SessionPartInput in;
      in.query = &part.query;
      in.shards = trac::PlannedHeartbeatShards(*db, part,
                                               relevance_options.parallelism);
      if (in.shards == 1) {
        auto p = trac::PlanQuery(*db, part.query, snapshot);
        ++plan_calls;
        if (!p.ok()) return p.status();
        part_plans[i] = std::move(*p);
        in.plan = &part_plans[i];
        guard_plans[i].resize(part.guards.size());
        for (size_t g = 0; g < part.guards.size(); ++g) {
          auto gp = trac::PlanQuery(*db, part.guards[g], snapshot);
          ++plan_calls;
          if (!gp.ok()) return gp.status();
          guard_plans[i][g] = std::move(*gp);
          in.guard_queries.push_back(&part.guards[g]);
          in.guard_plans.push_back(&guard_plans[i][g]);
        }
      }
      input.parts.push_back(std::move(in));
    }
    return trac::Status::OK();
  });
  if (!planned.ok()) return "PlanQuery: " + planned.ToString();
  record("exec.plan_calls", static_cast<double>(plan_calls));
  input.temp_writes = {"sys_temp_a", "sys_temp_e"};
  input.session = session->id();

  trac::LowerOptions lower;
  lower.heartbeat_table = relevance_options.heartbeat_table;
  trac::SessionLayout layout;
  const trac::PlanIr ir = timed("ir.lower", "ir.lower_us", [&] {
    return trac::LowerReportSession(*db, input, lower, &layout);
  });
  record("ir.nodes", static_cast<double>(ir.nodes.size()));
  const trac::Status verified = timed("verify.verify", "verify.verify_us",
                                      [&] { return trac::VerifyIrStatus(ir); });
  if (!verified.ok()) return "VerifyIrStatus: " + verified.ToString();

  trac::ExecProfile user_profile;
  const trac::ClockFn clock = trac::Telemetry::Default().clock;
  auto result = timed("exec.user_query", "exec.user_query_us", [&] {
    return trac::ExecuteQuery(*db, *query, snapshot, hints, &user_profile,
                              clock);
  });
  if (!result.ok()) return "ExecuteQuery: " + result.status().ToString();
  record("exec.user_scan_rows", static_cast<double>(ScanRows(user_profile)));

  trac::RelevanceOptions profiled = relevance_options;
  profiled.profile = true;
  auto exec = timed("core.relevance", "core.relevance_us", [&] {
    return trac::ExecuteRecencyQueriesDetailed(*db, *plan, snapshot,
                                               profiled);
  });
  if (!exec.ok()) {
    return "ExecuteRecencyQueriesDetailed: " + exec.status().ToString();
  }
  int64_t busy_us = 0;
  for (int64_t micros : exec->task_micros) busy_us += micros;
  // A sharded task (a pure registry scan) bypasses the executor and has
  // no operator profile; it emits every registry row it reads.
  uint64_t relevance_rows = 0;
  for (const trac::TaskProfile& task : exec->task_profiles) {
    if (task.sharded) {
      relevance_rows += task.rows;
      continue;
    }
    for (const trac::ExecProfile& guard : task.guards) {
      relevance_rows += ScanRows(guard);
    }
    relevance_rows += ScanRows(task.main);
  }
  record("core.relevance_busy_us", static_cast<double>(busy_us));
  record("core.merge_us", static_cast<double>(exec->merge_micros));
  record("core.premerge_rows", static_cast<double>(exec->premerge_rows));
  record("core.relevance_scan_rows", static_cast<double>(relevance_rows));
  record("core.relevant_sources", static_cast<double>(exec->sources.size()));

  const trac::RecencyStats stats = timed("core.stats", "core.stats_us", [&] {
    return trac::ComputeRecencyStats(exec->sources);
  });

  const trac::Status written =
      timed("core.temp_write", "core.temp_write_us", [&] {
        auto make_rows = [](const std::vector<trac::SourceRecency>& list) {
          std::vector<trac::Row> rows;
          rows.reserve(list.size());
          for (const trac::SourceRecency& s : list) {
            rows.push_back(
                {trac::Value::Str(s.source), trac::Value::Ts(s.recency)});
          }
          return rows;
        };
        const std::vector<trac::ColumnDef> columns = {
            trac::ColumnDef("sid", trac::TypeId::kString),
            trac::ColumnDef("recency_timestamp", trac::TypeId::kTimestamp)};
        auto normal = session->CreateTempTable("sys_temp_a", columns,
                                               make_rows(stats.normal));
        if (!normal.ok()) return normal.status();
        auto exceptional = session->CreateTempTable(
            "sys_temp_e", columns, make_rows(stats.exceptional));
        return exceptional.status();
      });
  if (!written.ok()) return "CreateTempTable: " + written.ToString();

  // Conservation: the replay must reproduce what Run reported.
  if (result->rows != report.result.rows) return "answer rows differ";
  if (!(exec->sources == report.relevance.sources)) {
    return "relevant set differs";
  }
  return CompareStats(stats, report.stats);
}

void CollectReporterSpans(const trac::RecencyReport& report,
                          LayerSamples* samples) {
  static const std::map<std::string, std::string> kPhases = {
      {"parse", "report.span.parse_us"},
      {"plan", "report.span.plan_us"},
      {"verify", "report.span.verify_us"},
      {"user-query", "report.span.user_query_us"},
      {"relevance", "report.span.relevance_us"},
      {"stats", "report.span.stats_us"}};
  for (const trac::SpanRecord& span :
       trac::Tracer::Default().CollectTrace(report.trace_id)) {
    auto it = kPhases.find(span.name);
    if (it == kPhases.end()) continue;
    (*samples)[it->second].push_back(
        static_cast<double>(span.end_micros - span.start_micros));
  }
}

}  // namespace perfbench
