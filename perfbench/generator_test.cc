// Checks the benchmark's request generator: a seed fixes the request
// stream and schedule byte for byte, another seed draws other IN-lists,
// and every IN-list names kInListSize distinct registered sources.
// Exits 0 when every check holds, 1 otherwise.

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/heartbeat.h"
#include "generator.h"
#include "workload/eval_workload.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

std::vector<std::vector<std::string>> InLists(
    const perfbench::RequestStream& stream) {
  std::vector<std::vector<std::string>> out;
  for (const perfbench::ReportRequest& r : stream.reports) {
    out.push_back(r.in_list);
  }
  return out;
}

}  // namespace

int main() {
  using perfbench::Workload;
  trac::Database db;
  trac::EvalWorkloadOptions options;
  options.total_activity_rows = perfbench::kActivityRows;
  options.num_sources = perfbench::kSources;
  auto eval = trac::BuildEvalWorkload(&db, options);
  if (!eval.ok()) {
    std::fprintf(stderr, "BuildEvalWorkload: %s\n",
                 eval.status().ToString().c_str());
    return 1;
  }
  auto heartbeat = trac::HeartbeatTable::Open(&db);
  if (!heartbeat.ok()) return 1;
  std::set<std::string> registered;
  for (const auto& [source, recency] :
       heartbeat->GetAll(db.LatestSnapshot())) {
    registered.insert(source);
  }
  const std::vector<std::string>& sources = eval->sources;

  constexpr int kSeconds = 2;
  for (Workload w : {Workload::kSelective, Workload::kScanHeavy,
                     Workload::kIngestMixed}) {
    const std::string name = perfbench::WorkloadName(w);
    const auto a = perfbench::GenerateRequests(w, 7, kSeconds, sources);
    const auto b = perfbench::GenerateRequests(w, 7, kSeconds, sources);
    Expect(perfbench::SerializeRequests(a) == perfbench::SerializeRequests(b),
           name + ": same seed gives a different stream");
    Expect(!a.reports.empty() && !a.polls.empty(),
           name + ": stream has no reports or no polls");

    const auto c = perfbench::GenerateRequests(w, 8, kSeconds, sources);
    if (w != Workload::kScanHeavy) {
      Expect(InLists(a) != InLists(c),
             name + ": seeds 7 and 8 draw the same IN-lists");
    }
    Expect(perfbench::SerializeRequests(a) != perfbench::SerializeRequests(c),
           name + ": seeds 7 and 8 give the same stream");

    for (const auto* stream : {&a, &c}) {
      for (const perfbench::ReportRequest& r : stream->reports) {
        if (w == Workload::kScanHeavy) {
          Expect(r.in_list.empty(), name + ": scan-heavy has an IN-list");
          continue;
        }
        const std::set<std::string> distinct(r.in_list.begin(),
                                             r.in_list.end());
        Expect(r.in_list.size() == perfbench::kInListSize &&
                   distinct.size() == perfbench::kInListSize,
               name + ": IN-list is not 6 distinct sources: " + r.sql);
        for (const std::string& s : r.in_list) {
          Expect(registered.count(s) == 1,
                 name + ": unregistered source " + s);
        }
      }
      for (const perfbench::IngestPoll& p : stream->polls) {
        Expect(p.source < sources.size() &&
                   p.values.size() == perfbench::kRowsPerPoll &&
                   p.event_offsets_us.size() == perfbench::kRowsPerPoll,
               name + ": malformed poll");
      }
    }
  }
  if (failures == 0) std::printf("generator_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
