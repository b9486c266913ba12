#include "generator.h"

#include <algorithm>
#include <numeric>

#include "common/str_util.h"

namespace perfbench {

namespace {

/// SplitMix64: small, fast, and fixed here so the inputs never depend on
/// the library's own random-number code.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n); n > 0. The modulo bias is below 2^-40 for the
  /// sizes used here.
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

// Independent streams for report parameters and the poll schedule, so
// changing one workload's report count leaves the other stream alone.
constexpr uint64_t kReportStream = 0x5245504f52540001ULL;
constexpr uint64_t kPollStream = 0x504f4c4c53000002ULL;

const char* RandomValue(Rng* rng) {
  return rng->Below(2) == 0 ? "idle" : "busy";
}

std::vector<std::string> DrawInList(Rng* rng,
                                    const std::vector<std::string>& sources) {
  std::vector<size_t> picked;
  while (picked.size() < kInListSize) {
    const size_t idx = rng->Below(sources.size());
    if (std::find(picked.begin(), picked.end(), idx) == picked.end()) {
      picked.push_back(idx);
    }
  }
  std::vector<std::string> out;
  for (size_t idx : picked) out.push_back(sources[idx]);
  return out;
}

std::string QuotedList(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += trac::QuoteSqlString(name);
  }
  return out;
}

/// Paper Q1 with a drawn IN-list: selective single-relation COUNT.
ReportRequest SelectiveReport(Rng* rng,
                              const std::vector<std::string>& sources) {
  ReportRequest r;
  r.in_list = DrawInList(rng, sources);
  r.sql = "SELECT COUNT(*) FROM activity a WHERE a.mach_id IN (" +
          QuotedList(r.in_list) + ") AND a.value = 'idle'";
  return r;
}

/// Paper Q2 with a drawn value: every source is relevant.
ReportRequest ScanHeavyReport(Rng* rng) {
  ReportRequest r;
  r.sql = std::string("SELECT COUNT(*) FROM activity a WHERE a.value = '") +
          RandomValue(rng) + "'";
  return r;
}

/// Paper Q3 with a drawn IN-list: selective join through Routing.
ReportRequest JoinReport(Rng* rng, const std::vector<std::string>& sources) {
  ReportRequest r;
  r.in_list = DrawInList(rng, sources);
  r.sql = "SELECT COUNT(*) FROM routing r, activity a WHERE r.mach_id IN (" +
          QuotedList(r.in_list) +
          ") AND r.neighbor = a.mach_id AND a.value = 'idle'";
  return r;
}

/// `count` polls over a seeded permutation of the sources (cycling when
/// there are more polls than sources).
std::vector<IngestPoll> MakePolls(uint64_t seed, size_t count,
                                  size_t num_sources) {
  Rng rng(seed ^ kPollStream);
  std::vector<size_t> order(num_sources);
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t i = num_sources; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  std::vector<IngestPoll> polls(count);
  for (size_t k = 0; k < count; ++k) {
    IngestPoll& p = polls[k];
    p.source = order[k % num_sources];
    // Event times start one second after the base time (newer than every
    // loaded heartbeat) and step 1 ms per poll, 1 us per row.
    for (size_t j = 0; j < kRowsPerPoll; ++j) {
      p.event_offsets_us.push_back(1000000 + static_cast<int64_t>(k) * 1000 +
                                   static_cast<int64_t>(j));
      p.values.push_back(RandomValue(&rng));
    }
  }
  return polls;
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "selective") return Workload::kSelective;
  if (name == "scan-heavy") return Workload::kScanHeavy;
  if (name == "ingest-mixed") return Workload::kIngestMixed;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kSelective:
      return "selective";
    case Workload::kScanHeavy:
      return "scan-heavy";
    case Workload::kIngestMixed:
      return "ingest-mixed";
  }
  return "?";
}

RequestStream GenerateRequests(Workload workload, uint64_t seed,
                               int seconds,
                               const std::vector<std::string>& sources) {
  RequestStream stream;
  stream.workload = workload;
  Rng rng(seed ^ kReportStream);
  const size_t secs = static_cast<size_t>(std::max(1, seconds));
  switch (workload) {
    case Workload::kSelective:
      for (size_t i = 0; i < kSelectiveReportsPerSecond * secs; ++i) {
        stream.reports.push_back(SelectiveReport(&rng, sources));
      }
      stream.polls =
          MakePolls(seed, kTrailingPollsPerSecond * secs, sources.size());
      break;
    case Workload::kScanHeavy:
      for (size_t i = 0; i < kScanHeavyReportsPerSecond * secs; ++i) {
        stream.reports.push_back(ScanHeavyReport(&rng));
      }
      stream.polls =
          MakePolls(seed, kTrailingPollsPerSecond * secs, sources.size());
      break;
    case Workload::kIngestMixed:
      for (size_t i = 0; i < kIngestMixedReportsPerSecond * secs; ++i) {
        ReportRequest r = JoinReport(&rng, sources);
        if (i % kReportsPerBurst == 0) r.polls_before = kPollsPerBurst;
        stream.reports.push_back(std::move(r));
      }
      stream.polls = MakePolls(
          seed,
          (stream.reports.size() + kReportsPerBurst - 1) / kReportsPerBurst *
              kPollsPerBurst,
          sources.size());
      break;
  }
  // A round's polls are those its reports take plus an even share of the
  // trailing polls no report takes.
  size_t taken = 0;
  for (const ReportRequest& r : stream.reports) taken += r.polls_before;
  const size_t trailing = stream.polls.size() - taken;
  size_t taken_so_far = 0;
  for (size_t r = 1; r <= kRounds; ++r) {
    const size_t begin =
        stream.report_end.empty() ? 0 : stream.report_end.back();
    stream.report_end.push_back(r * stream.reports.size() / kRounds);
    for (size_t i = begin; i < stream.report_end.back(); ++i) {
      taken_so_far += stream.reports[i].polls_before;
    }
    stream.poll_end.push_back(taken_so_far + r * trailing / kRounds);
  }
  return stream;
}

std::string SerializeRequests(const RequestStream& stream) {
  std::string out = std::string("workload ") + WorkloadName(stream.workload) +
                    "\n";
  for (size_t r = 0; r < stream.report_end.size(); ++r) {
    out += "round " + std::to_string(stream.report_end[r]) + " " +
           std::to_string(stream.poll_end[r]) + "\n";
  }
  for (const ReportRequest& r : stream.reports) {
    out += "report " + std::to_string(r.polls_before) + " " + r.sql + "\n";
  }
  for (const IngestPoll& p : stream.polls) {
    out += "poll " + std::to_string(p.source);
    for (size_t j = 0; j < p.values.size(); ++j) {
      out += " " + std::to_string(p.event_offsets_us[j]) + ":" + p.values[j];
    }
    out += "\n";
  }
  return out;
}

}  // namespace perfbench
