#ifndef TRAC_PERFBENCH_GENERATOR_H_
#define TRAC_PERFBENCH_GENERATOR_H_

// Seeded request streams for the TRAC benchmark. Everything the library
// receives during a run -- report SQL text and the Activity rows the
// sniffers ship -- is produced here from the workload seed, with a
// pseudo-random generator of the benchmark's own so that two commits of
// the library always see the same inputs.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { kSelective, kScanHeavy, kIngestMixed };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

/// The Figure 1 point every workload runs at: 20,000 sources at data
/// ratio 10.
inline constexpr size_t kSources = 20000;
inline constexpr size_t kActivityRows = 200000;
inline constexpr size_t kInListSize = 6;
/// Reports one Session serves before it ends (and drops its temp tables).
inline constexpr size_t kReportsPerSession = 16;
/// Activity rows shipped by one sniffer poll.
inline constexpr size_t kRowsPerPoll = 4;

/// Report counts per requested second. Every workload is a closed loop
/// with one client, and the count is a fixed function of --seconds, so
/// every commit runs the same requests; the rates were calibrated so that
/// the library at the commit that added the benchmark takes a little less
/// than --seconds.
inline constexpr size_t kSelectiveReportsPerSecond = 800;
inline constexpr size_t kScanHeavyReportsPerSecond = 20;
inline constexpr size_t kIngestMixedReportsPerSecond = 180;
/// selective and scan-heavy end every round with their share of this many
/// sniffer polls per requested second, timed one after another, so every
/// workload measures the write path.
inline constexpr size_t kTrailingPollsPerSecond = 500;
/// A run is kRounds rounds, each on a freshly built data set. The state
/// the library never reclaims (dropped temp tables in the catalog, dead
/// heartbeat versions) then grows over one round, not the whole run, and
/// every latency quantile pools requests from across the run instead of
/// from its last seconds, which keeps run-to-run noise down.
inline constexpr size_t kRounds = 10;
/// ingest-mixed alternates a burst of kPollsPerBurst polls with
/// kReportsPerBurst reports, so one report in kReportsPerBurst follows
/// fresh commits.
inline constexpr size_t kPollsPerBurst = 10;
inline constexpr size_t kReportsPerBurst = 4;

/// One recency report: the SQL handed to RecencyReporter::Run plus what
/// the benchmark needs to check its answer.
struct ReportRequest {
  std::string sql;
  /// The IN-list sources (selective, ingest-mixed); empty for scan-heavy.
  std::vector<std::string> in_list;
  /// Polls (the next ones in RequestStream::polls) to run just before
  /// this report.
  size_t polls_before = 0;
};

/// One sniffer poll: the source it serves and the Activity rows its log
/// holds for this poll.
struct IngestPoll {
  size_t source = 0;  ///< Index into the source list.
  /// Event time of each shipped row, in microseconds after the data
  /// set's base time; increasing within a poll and across polls.
  std::vector<int64_t> event_offsets_us;
  /// The `value` column of each shipped row.
  std::vector<std::string> values;
};

struct RequestStream {
  Workload workload = Workload::kSelective;
  std::vector<ReportRequest> reports;
  std::vector<IngestPoll> polls;
  /// Round r runs reports [report_end[r-1], report_end[r]) and polls
  /// [poll_end[r-1], poll_end[r]) (0 for r = 0). Polls its reports do not
  /// take run after the round's last report.
  std::vector<size_t> report_end;
  std::vector<size_t> poll_end;
};

/// Builds the request stream of `workload` for a run of `seconds`
/// seconds. `sources` is the registry's source list; IN-lists draw from
/// it. Same (workload, seed, seconds, sources) -> same stream.
RequestStream GenerateRequests(Workload workload, uint64_t seed,
                               int seconds,
                               const std::vector<std::string>& sources);

/// Canonical text of a stream (one line per request or poll), for the
/// generator test's byte-identity check.
std::string SerializeRequests(const RequestStream& stream);

}  // namespace perfbench

#endif  // TRAC_PERFBENCH_GENERATOR_H_
