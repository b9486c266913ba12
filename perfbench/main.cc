// The TRAC benchmark program. Builds the Figure 1 data set (20,000
// sources x data ratio 10) afresh for each of kRounds rounds, drives
// RecencyReporter::Run with default options on one of three traffic
// mixes, checks every answer, and prints one JSON line of metrics.
//
//   trac_perfbench --workload <selective|scan-heavy|ingest-mixed>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <spans.jsonl>]
//
// --trace 0 prints the end-to-end metrics. --trace 1 takes the stream of
// 1/kTraceShare of --seconds, runs it untraced twice (for the drift and
// tracing-overhead ratios, and to check that both passes did the same
// work), then a traced pass that replays each report through the
// per-layer calls (replay.h), and prints the per-layer metrics; the
// spans go to --trace-out.
// Human-readable summaries go to stderr; the JSON result is the last
// line of stdout.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/heartbeat.h"
#include "core/recency_reporter.h"
#include "core/session.h"
#include "expr/binder.h"
#include "generator.h"
#include "monitor/data_source.h"
#include "monitor/sniffer.h"
#include "replay.h"
#include "telemetry/metrics.h"
#include "workload/eval_workload.h"

namespace perfbench {
namespace {

/// A --trace 1 run makes three passes, one of them replaying every
/// report, over the stream of 1/kTraceShare of --seconds, so it takes
/// about as long as a --trace 0 run.
constexpr int kTraceShare = 4;

struct Args {
  Workload workload = Workload::kSelective;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      auto w = ParseWorkload(value);
      if (!w.has_value()) return false;
      args->workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || s < 1 || s > 600) return false;
      args->seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

long RssKb() {
  long pages_total = 0;
  long pages_resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
    pages_resident = 0;
  }
  std::fclose(f);
  return pages_resident * (sysconf(_SC_PAGESIZE) / 1024);
}

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 if empty.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

/// The highest of p99 / p90 with at least ten samples beyond it.
double TailQuantileLevel(size_t n) { return n >= 1000 ? 0.99 : 0.90; }

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

/// One freshly built data set: the eval workload plus a sniffer per
/// source whose log holds the stream's scheduled Activity rows.
struct DataSet {
  trac::Database db;
  trac::EvalWorkload eval;
  std::optional<trac::HeartbeatTable> heartbeat;
  /// Sniffer series go to a registry of the data set's own, so every
  /// pass starts from the same telemetry state.
  trac::MetricRegistry sniffer_metrics;
  std::vector<std::unique_ptr<trac::DataSource>> sources;
  std::vector<std::unique_ptr<trac::Sniffer>> sniffers;
};

trac::Status BuildDataSet(uint64_t seed, DataSet* ds) {
  trac::EvalWorkloadOptions options;
  options.total_activity_rows = kActivityRows;
  options.num_sources = kSources;
  options.seed = seed;
  auto eval = trac::BuildEvalWorkload(&ds->db, options);
  if (!eval.ok()) return eval.status();
  ds->eval = std::move(*eval);
  auto heartbeat = trac::HeartbeatTable::Open(&ds->db);
  if (!heartbeat.ok()) return heartbeat.status();
  ds->heartbeat.emplace(*heartbeat);
  trac::SnifferOptions sniffer_options;
  sniffer_options.metrics = &ds->sniffer_metrics;
  for (const std::string& id : ds->eval.sources) {
    ds->sources.push_back(std::make_unique<trac::DataSource>(id));
    ds->sniffers.push_back(std::make_unique<trac::Sniffer>(
        ds->sources.back().get(), &ds->db, &*ds->heartbeat,
        sniffer_options));
  }
  return trac::Status::OK();
}

trac::Timestamp EventTime(const DataSet& ds, int64_t offset_us) {
  return ds.eval.options.base_time + offset_us;
}

void LoadLogs(const RequestStream& stream, size_t round, DataSet* ds) {
  const size_t begin = round == 0 ? 0 : stream.poll_end[round - 1];
  for (size_t k = begin; k < stream.poll_end[round]; ++k) {
    const IngestPoll& p = stream.polls[k];
    trac::DataSource& source = *ds->sources[p.source];
    for (size_t j = 0; j < p.values.size(); ++j) {
      const trac::Timestamp t = EventTime(*ds, p.event_offsets_us[j]);
      source.EmitInsert(t, "activity",
                        {trac::Value::Str(source.id()),
                         trac::Value::Str(p.values[j]), trac::Value::Ts(t)});
    }
  }
}

/// The poll's sniffer clock: its last row's event time, so it ships
/// exactly this poll's rows.
trac::Timestamp PollTime(const DataSet& ds, const IngestPoll& p) {
  return EventTime(ds, p.event_offsets_us.back());
}

/// What a scan-heavy report must show, computed from the registry.
struct Extremes {
  trac::SourceRecency least;
  trac::SourceRecency most;
};

Extremes RegistryExtremes(const DataSet& ds) {
  Extremes e;
  bool first = true;
  for (const auto& [source, recency] :
       ds.heartbeat->GetAll(ds.db.LatestSnapshot())) {
    if (first || recency < e.least.recency) e.least = {source, recency};
    if (first || recency > e.most.recency) e.most = {source, recency};
    first = false;
  }
  return e;
}

/// Everything one pass over the stream measured.
struct PassResult {
  std::vector<double> report_us;  ///< RecencyReporter::Run, call to return.
  std::vector<double> poll_us;    ///< Sniffer::Poll, call to return.
  double report_seconds = 0;  ///< Time base of reports_per_s.
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  size_t tables_created = 0;
  size_t heartbeat_versions = 0;
  size_t rows_shipped = 0;
  std::vector<double> setup_seconds;  ///< One per round.
  long rss_setup_kb = 0;    ///< After the first round's set-up.
  long rss_end_kb = 0;      ///< After the first round.
  size_t first_round_reports = 0;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(what));
  }

  /// Folds another pass's operation counts and failures into this one.
  void Merge(const PassResult& other) {
    attempted += other.attempted;
    failed += other.failed;
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
  }
};

/// State of the traced pass.
struct Tracing {
  SpanRecorder spans;
  LayerSamples samples;
};

/// Checks a report against the workload's known answer; returns an
/// empty string when it holds. ingest-mixed answers are recomputed at
/// the report's snapshot.
std::string CheckReport(DataSet* ds, Workload workload,
                        const ReportRequest& req,
                        const trac::RecencyReport& report,
                        const Extremes& extremes) {
  if (workload == Workload::kIngestMixed) {
    auto query = trac::BindSql(ds->db, req.sql);
    if (!query.ok()) return "BindSql: " + query.status().ToString();
    auto plan = trac::GenerateRecencyQueries(ds->db, *query);
    if (!plan.ok()) return "GenerateRecencyQueries failed";
    auto rows = trac::ExecuteQuery(ds->db, *query, report.snapshot);
    auto sources =
        trac::ExecuteRecencyQueries(ds->db, *plan, report.snapshot);
    if (!rows.ok() || !sources.ok()) return "recomputation failed";
    if (rows->rows != report.result.rows) return "answer differs";
    if (*sources != report.relevance.sources) return "relevant set differs";
    return "";
  }
  if (report.result.rows.size() != 1 || report.result.rows[0].size() != 1) {
    return "answer is not one COUNT row";
  }
  const int64_t count = report.result.count();
  if (workload == Workload::kSelective) {
    if (count != static_cast<int64_t>(kInListSize * (kActivityRows /
                                                     kSources / 2))) {
      return "COUNT " + std::to_string(count);
    }
    std::vector<std::string> want = req.in_list;
    std::sort(want.begin(), want.end());
    if (report.relevance.SourceIds() != want) return "relevant set differs";
    if (report.relevance.analysis.verdict !=
        trac::RecencyGuarantee::kExactMinimum) {
      return "verdict is not EXACT_MINIMUM";
    }
    return "";
  }
  if (count != static_cast<int64_t>(kActivityRows / 2)) {
    return "COUNT " + std::to_string(count);
  }
  if (report.relevance.sources.size() != kSources) {
    return std::to_string(report.relevance.sources.size()) +
           " relevant sources";
  }
  const trac::RecencyStats& s = report.stats;
  if (!s.least_recent.has_value() || !s.most_recent.has_value() ||
      s.least_recent->recency != extremes.least.recency ||
      s.most_recent->recency != extremes.most.recency) {
    return "least/most recent source differs from the registry";
  }
  if (s.inconsistency_bound_micros !=
      extremes.most.recency.micros() - extremes.least.recency.micros()) {
    return "bound of inconsistency differs from the registry";
  }
  return "";
}

/// Times one report in the traced pass, replays it, and records the
/// reporter's spans and the unattributed remainder.
void TraceReport(DataSet* ds, trac::Session* session,
                 const ReportRequest& req, uint64_t request,
                 const trac::RecencyReport& report, int64_t run_start_ns,
                 int64_t run_end_ns, Tracing* tracing, PassResult* pass) {
  SpanRecorder& spans = tracing->spans;
  const int64_t root = spans.Add("request", request, -1, run_start_ns, 0);
  spans.Add("report.run", request, root, run_start_ns, run_end_ns);
  const double run_us = static_cast<double>(run_end_ns - run_start_ns) / 1e3;
  tracing->samples["report.run_us"].push_back(run_us);
  const int64_t replay = spans.Begin("replay", request, root);
  const std::string mismatch =
      ReplayReport(&ds->db, session, req.sql, report, &spans, request, replay,
                   &tracing->samples);
  spans.End(replay);
  spans.End(root);
  if (!mismatch.empty()) {
    pass->Fail("replay of report " + std::to_string(request) + ": " +
               mismatch);
  }
  int64_t replayed_ns = 0;
  for (size_t i = static_cast<size_t>(replay) + 1; i < spans.spans().size();
       ++i) {
    const Span& s = spans.spans()[i];
    if (s.parent == replay) replayed_ns += s.end_ns - s.start_ns;
  }
  tracing->samples["report.unattributed_us"].push_back(
      run_us - static_cast<double>(replayed_ns) / 1e3);
  CollectReporterSpans(report, &tracing->samples);
}

/// Runs polls [*next, end) one after another, timing each.
void RunPolls(DataSet* ds, const RequestStream& stream, size_t end,
              size_t* next, Tracing* tracing, PassResult* pass) {
  for (; *next < end; ++*next) {
    const IngestPoll& p = stream.polls[*next];
    const int64_t start = NowNs();
    const trac::Status st = ds->sniffers[p.source]->Poll(PollTime(*ds, p));
    const int64_t stop = NowNs();
    const double us = static_cast<double>(stop - start) / 1e3;
    ++pass->attempted;
    pass->poll_us.push_back(us);
    if (!st.ok()) pass->Fail("poll: " + st.ToString());
    if (tracing != nullptr) {
      // Polls are requests of their own, numbered after the reports.
      tracing->spans.Add("monitor.poll", stream.reports.size() + *next, -1,
                         start, stop);
      tracing->samples["monitor.poll_us"].push_back(us);
    }
  }
}

/// Round `round` of the stream on its own data set: one client, closed
/// loop, each report after the polls scheduled before it,
/// kReportsPerSession reports per Session, then the round's remaining
/// polls. Answers are checked between requests, outside the timed calls.
void RunRound(DataSet* ds, const RequestStream& stream, size_t round,
              Tracing* tracing, PassResult* pass) {
  const Extremes extremes = RegistryExtremes(*ds);
  const size_t first = round == 0 ? 0 : stream.report_end[round - 1];
  size_t next_poll = round == 0 ? 0 : stream.poll_end[round - 1];
  std::unique_ptr<trac::Session> session;
  int64_t busy_ns = 0;
  for (size_t i = first; i < stream.report_end[round]; ++i) {
    const ReportRequest& req = stream.reports[i];
    RunPolls(ds, stream, next_poll + req.polls_before, &next_poll, tracing,
             pass);
    if ((i - first) % kReportsPerSession == 0) {
      const int64_t start = NowNs();
      session.reset();
      session = std::make_unique<trac::Session>(&ds->db);
      busy_ns += NowNs() - start;
    }
    trac::RecencyReporter reporter(&ds->db, session.get());
    const int64_t start = NowNs();
    auto report = reporter.Run(req.sql);
    const int64_t end = NowNs();
    busy_ns += end - start;
    ++pass->attempted;
    pass->report_us.push_back(static_cast<double>(end - start) / 1e3);
    if (!report.ok()) {
      pass->Fail("report: " + report.status().ToString());
      continue;
    }
    const std::string bad =
        CheckReport(ds, stream.workload, req, *report, extremes);
    if (!bad.empty()) pass->Fail("report " + std::to_string(i) + ": " + bad);
    if (tracing != nullptr) {
      TraceReport(ds, session.get(), req, i, *report, start, end, tracing,
                  pass);
    }
  }
  const int64_t start = NowNs();
  session.reset();
  busy_ns += NowNs() - start;
  pass->report_seconds += static_cast<double>(busy_ns) / 1e9;
  RunPolls(ds, stream, stream.poll_end[round], &next_poll, tracing, pass);
}

/// Builds a data set and loads the logs of the round's polls, timing
/// both.
std::unique_ptr<DataSet> SetUp(uint64_t seed, const RequestStream& stream,
                               size_t round, double* seconds) {
  const int64_t start = NowNs();
  auto ds = std::make_unique<DataSet>();
  const trac::Status st = BuildDataSet(seed, ds.get());
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  LoadLogs(stream, round, ds.get());
  *seconds = static_cast<double>(NowNs() - start) / 1e9;
  return ds;
}

/// Runs every round of the stream, each on a data set of its own.
PassResult RunPass(uint64_t seed, const RequestStream& stream,
                   Tracing* tracing) {
  PassResult pass;
  std::unique_ptr<DataSet> ds;
  for (size_t round = 0; round < kRounds; ++round) {
    ds.reset();
    double setup_seconds = 0;
    ds = SetUp(seed, stream, round, &setup_seconds);
    pass.setup_seconds.push_back(setup_seconds);
    if (round == 0) pass.rss_setup_kb = RssKb();
    const size_t ids_before = ds->db.catalog().NumIds();
    const size_t reports_before = pass.report_us.size();
    const size_t polls_before = pass.poll_us.size();
    RunRound(ds.get(), stream, round, tracing, &pass);
    std::fprintf(stderr, "round %zu: report p50 %.1f us, poll p50 %.1f us\n",
                 round,
                 Quantile({pass.report_us.begin() + reports_before,
                           pass.report_us.end()}, 0.5),
                 Quantile({pass.poll_us.begin() + polls_before,
                           pass.poll_us.end()}, 0.5));
    size_t shipped = 0;
    for (const auto& sniffer : ds->sniffers) {
      shipped += sniffer->records_shipped();
    }
    const size_t first_poll = round == 0 ? 0 : stream.poll_end[round - 1];
    const size_t scheduled =
        (stream.poll_end[round] - first_poll) * kRowsPerPoll;
    if (shipped != scheduled) {
      pass.Fail("round " + std::to_string(round) + ": sniffers shipped " +
                std::to_string(shipped) + " rows, " +
                std::to_string(scheduled) + " scheduled");
    }
    pass.rows_shipped += shipped;
    pass.tables_created += ds->db.catalog().NumIds() - ids_before;
    pass.heartbeat_versions =
        ds->db.GetTable(ds->heartbeat->table_id())->num_versions();
    if (round == 0) {
      pass.rss_end_kb = RssKb();
      pass.first_round_reports = pass.report_us.size();
    }
  }
  return pass;
}

/// The request stream of a run of `seconds` seconds. It needs the
/// registry's source names, which only a built data set knows.
RequestStream MakeStream(const Args& args, int seconds) {
  DataSet probe;
  const trac::Status st = BuildDataSet(args.seed, &probe);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return GenerateRequests(args.workload, args.seed, seconds,
                          probe.eval.sources);
}

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name.c_str(),
                  std::isfinite(value) ? value : 0.0, unit);
    body_ += buf;
  }
  void AddTiming(const std::string& name, const std::vector<double>& v) {
    Add(name + ".p50", Quantile(v, 0.5), "us");
    Add(name + ".tail", Quantile(v, TailQuantileLevel(v.size())), "us");
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

void PrintResult(const PassResult& pass, const JsonMetrics& metrics) {
  for (const std::string& e : pass.errors) {
    std::fprintf(stderr, "FAILED: %s\n", e.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      pass.failed == 0 ? "true" : "false", pass.attempted, pass.failed,
      metrics.body().c_str());
}

void PrintPassSummary(const char* label, const PassResult& pass) {
  std::fprintf(stderr,
               "%s: %zu reports (p50 %.1f us, p99 %.1f us), %zu polls (p50 "
               "%.1f us, p99 %.1f us), %zu failed\n",
               label, pass.report_us.size(), Quantile(pass.report_us, 0.5),
               Quantile(pass.report_us, 0.99), pass.poll_us.size(),
               Quantile(pass.poll_us, 0.5), Quantile(pass.poll_us, 0.99),
               pass.failed);
}

int RunEndToEnd(const Args& args) {
  const RequestStream stream = MakeStream(args, args.seconds);
  const PassResult pass = RunPass(args.seed, stream, nullptr);
  PrintPassSummary(WorkloadName(args.workload), pass);

  JsonMetrics m;
  m.Add("report_p50_us", Quantile(pass.report_us, 0.5), "us");
  m.Add("report_p90_us", Quantile(pass.report_us, 0.9), "us");
  m.Add("report_p99_us", Quantile(pass.report_us, 0.99), "us");
  m.Add("reports_per_s",
        static_cast<double>(pass.report_us.size()) / pass.report_seconds,
        "1/s");
  m.Add("ingest_p50_us", Quantile(pass.poll_us, 0.5), "us");
  m.Add("ingest_p90_us", Quantile(pass.poll_us, 0.9), "us");
  m.Add("setup_s", Quantile(pass.setup_seconds, 0.5), "s");
  m.Add("setup_rss_mb", static_cast<double>(pass.rss_setup_kb) / 1024.0,
        "MB");
  PrintResult(pass, m);
  return 0;
}

/// Mean per report of a count series.
double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

void PrintSelfTime(const Tracing& tracing) {
  std::map<std::string, double> self = tracing.spans.SelfMicrosByName();
  const double run_total = Sum(tracing.samples.at("report.run_us"));
  std::vector<std::pair<double, std::string>> layers;
  for (const auto& [name, us] : self) {
    if (name == "request" || name == "report.run" || name == "replay" ||
        name == "monitor.poll") {
      continue;
    }
    layers.push_back({us, name});
  }
  layers.push_back({Sum(tracing.samples.at("report.unattributed_us")),
                    "report.unattributed"});
  std::sort(layers.rbegin(), layers.rend());
  std::fprintf(stderr, "self time per layer (share of summed report.run):\n");
  for (const auto& [us, name] : layers) {
    std::fprintf(stderr, "  %-24s %12.0f us  %6.1f%%\n", name.c_str(), us,
                 100.0 * us / run_total);
  }
  std::fprintf(stderr, "p50 per call, replay vs the reporter's own spans:\n");
  for (const auto& [name, values] : tracing.samples) {
    if (name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0) {
      std::fprintf(stderr, "  %-28s p50 %10.1f us\n", name.c_str(),
                   Quantile(values, 0.5));
    }
  }
}

void WriteSpans(const Tracing& tracing, const std::string& path) {
  if (path.empty()) return;
  std::string out;
  tracing.spans.AppendJsonLines(&out);
  std::ofstream f(path, std::ios::trunc);
  f << out;
  if (!f) std::fprintf(stderr, "could not write spans to %s\n", path.c_str());
}

/// Two untraced passes (the second proves the work is the same on every
/// run with one seed), then the traced pass.
int RunTraced(const Args& args) {
  const RequestStream stream =
      MakeStream(args, std::max(1, args.seconds / kTraceShare));
  PassResult plain = RunPass(args.seed, stream, nullptr);
  PrintPassSummary("untraced pass", plain);
  const PassResult again = RunPass(args.seed, stream, nullptr);
  PrintPassSummary("untraced pass, repeated", again);
  if (again.tables_created != plain.tables_created ||
      again.heartbeat_versions != plain.heartbeat_versions ||
      again.rows_shipped != plain.rows_shipped) {
    plain.Fail("two passes with one seed did different work");
  }
  Tracing tracing;
  PassResult traced = RunPass(args.seed, stream, &tracing);
  PrintPassSummary("traced pass", traced);
  PrintSelfTime(tracing);
  WriteSpans(tracing, args.trace_out);

  LayerSamples& s = tracing.samples;
  JsonMetrics m;
  for (const char* name :
       {"report.run_us", "sql.parse_us", "expr.bind_us", "core.generate_us",
        "exec.plan_us", "ir.lower_us", "verify.verify_us",
        "exec.user_query_us", "core.relevance_us", "core.relevance_busy_us",
        "core.merge_us", "core.stats_us", "core.temp_write_us",
        "report.unattributed_us", "report.span.parse_us",
        "report.span.plan_us", "report.span.verify_us",
        "report.span.user_query_us", "report.span.relevance_us",
        "report.span.stats_us", "monitor.poll_us"}) {
    m.AddTiming(name, s[name]);
  }
  for (const char* name :
       {"core.parts", "core.guards", "exec.plan_calls", "ir.nodes",
        "exec.user_scan_rows", "core.premerge_rows",
        "core.relevance_scan_rows", "core.relevant_sources"}) {
    m.Add(name, Mean(s[name]), "count");
  }
  const double scan_rows = Sum(s["exec.user_scan_rows"]);
  m.Add("exec.user_ns_per_row",
        scan_rows == 0 ? 0 : Sum(s["exec.user_query_us"]) * 1e3 / scan_rows,
        "ns");
  m.Add("catalog.tables_created", static_cast<double>(plain.tables_created),
        "count");
  m.Add("storage.heartbeat_versions_end",
        static_cast<double>(plain.heartbeat_versions), "count");
  // Every round starts on a fresh data set, so the drift is the one
  // within a round: the last tenth of each round's reports against the
  // first tenth.
  std::vector<double> first;
  std::vector<double> last;
  size_t begin = 0;
  for (size_t end : stream.report_end) {
    const auto at = [&](size_t i) { return plain.report_us.begin() + i; };
    if (end == begin) continue;
    const size_t tenth = std::max<size_t>(1, (end - begin) / 10);
    first.insert(first.end(), at(begin), at(begin + tenth));
    last.insert(last.end(), at(end - tenth), at(end));
    begin = end;
  }
  m.Add("report.drift_ratio", Quantile(last, 0.5) / Quantile(first, 0.5),
        "ratio");
  m.Add("report.tracing_overhead_ratio",
        Quantile(s["report.run_us"], 0.5) /
            Quantile(plain.report_us, 0.5),
        "ratio");
  m.Add("monitor.rows_shipped", static_cast<double>(traced.rows_shipped),
        "count");
  m.Add("storage.rss_kb_per_report",
        static_cast<double>(plain.rss_end_kb - plain.rss_setup_kb) /
            static_cast<double>(plain.first_round_reports),
        "kB");

  traced.Merge(plain);
  traced.Merge(again);
  PrintResult(traced, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <selective|scan-heavy|ingest-mixed> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  return args.trace ? perfbench::RunTraced(args)
                    : perfbench::RunEndToEnd(args);
}
