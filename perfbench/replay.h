#ifndef TRAC_PERFBENCH_REPLAY_H_
#define TRAC_PERFBENCH_REPLAY_H_

// The traced run's per-layer view of a report: after
// RecencyReporter::Run returns, the benchmark replays the same pipeline
// at the report's snapshot through the library's public per-layer calls,
// wrapping each call in a span of its own.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/recency_reporter.h"
#include "core/session.h"
#include "storage/database.h"

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// One timed interval of the traced run. Spans of one request share
/// `request`; `parent` indexes the enclosing span (-1 for a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// In-memory span store, written out once the run ends.
class SpanRecorder {
 public:
  /// Opens a span and returns its index.
  int64_t Begin(const char* name, uint64_t request, int64_t parent);
  void End(int64_t index);
  /// Records an already-timed interval.
  int64_t Add(const char* name, uint64_t request, int64_t parent,
              int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, in microseconds: each span's duration
  /// minus the part its direct children cover.
  std::map<std::string, double> SelfMicrosByName() const;

  /// Appends every span as one JSON object per line.
  void AppendJsonLines(std::string* out) const;

 private:
  std::vector<Span> spans_;
};

/// Per-layer samples of the traced run, keyed by per-layer metric name
/// ("sql.parse_us", "core.parts", ...); one entry per report or poll.
using LayerSamples = std::map<std::string, std::vector<double>>;

/// Replays `report`'s pipeline for `sql` at report.snapshot: parse,
/// bind, generate, plan (user query, parts and guards), lower, verify,
/// user query, relevance, stats and the two temp-table writes, each
/// timed in its own span under `parent`. Appends each layer's time and
/// counts to `samples`. Returns an empty string when the replay
/// reproduces the report's answer rows, relevant set and stats, else a
/// description of the first difference.
std::string ReplayReport(trac::Database* db, trac::Session* session,
                         const std::string& sql,
                         const trac::RecencyReport& report,
                         SpanRecorder* spans, uint64_t request,
                         int64_t parent, LayerSamples* samples);

/// Adds the reporter's own spans for report.trace_id (from the default
/// tracer) to `samples` as "report.span.<phase>_us".
void CollectReporterSpans(const trac::RecencyReport& report,
                          LayerSamples* samples);

}  // namespace perfbench

#endif  // TRAC_PERFBENCH_REPLAY_H_
