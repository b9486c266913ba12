#ifndef TRAC_EXEC_EXECUTOR_H_
#define TRAC_EXEC_EXECUTOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "exec/planner.h"
#include "expr/bound_expr.h"
#include "storage/database.h"
#include "storage/snapshot.h"

namespace trac {

struct ExecProfile;  // telemetry/profile.h

/// A fully materialized query result.
struct ResultSet {
  std::vector<std::string> column_names;
  std::vector<Row> rows;

  size_t num_rows() const { return rows.size(); }

  /// For COUNT(*) results: the single counter value.
  int64_t count() const { return rows.at(0).at(0).int_val(); }

  /// True if some row equals `row` (structural equality).
  bool Contains(const Row& row) const;

  /// Pipe-separated textual table, one line per row; stable ordering is
  /// the executor's emission order.
  std::string ToString() const;
};

/// Executes `plan` — built by PlanQuery for `query` at `snapshot` — with
/// no further planning: the one execution entry point. A report session
/// plans and verifies every query once and then runs exactly those plans
/// through here, so what executes is what the verifier passed and what
/// the profiler annotates. `row_limit` > 0 stops as soon as that many
/// output rows (or counted tuples, for COUNT(*)) exist. Under
/// TRAC_DEBUG_INVARIANTS the plan is re-verified first, so a plan
/// mutated (or hand-built) after planning cannot slip through.
/// `profile`/`clock` as for ExecuteQuery below.
[[nodiscard]] Result<ResultSet> ExecutePlan(const Database& db,
                                            const BoundQuery& query,
                                            Snapshot snapshot,
                                            const QueryPlan& plan,
                                            size_t row_limit = 0,
                                            ExecProfile* profile = nullptr,
                                            ClockFn clock = nullptr);

/// True iff a result produced for `query` holds at least one tuple (for
/// COUNT(*), a nonzero count).
bool HasResults(const BoundQuery& query, const ResultSet& rs);

/// Plans `query` at `snapshot` (PlanQuery) and executes that plan
/// (ExecutePlan): the ad-hoc path for SQL outside a report session.
/// Every read is pinned to `snapshot`; running the user query and the
/// recency queries at the *same* snapshot is what yields the consistency
/// guarantee of Section 3.2. `hints` forwards static-analysis results to
/// the planner (a proven-unsatisfiable predicate short-circuits to an
/// empty result).
///
/// `profile`, when non-null, receives per-operator row counters for the
/// execution (telemetry/profile.h); `clock` additionally enables stage
/// timings (pass the telemetry bundle's ClockFn — clock reads happen
/// only when a profile sink is attached, keeping the unprofiled path
/// free of time syscalls).
[[nodiscard]] Result<ResultSet> ExecuteQuery(const Database& db, const BoundQuery& query,
                               Snapshot snapshot,
                               const PlanningHints& hints = PlanningHints(),
                               ExecProfile* profile = nullptr,
                               ClockFn clock = nullptr);

/// As above, but stops as soon as `row_limit` output rows (or counted
/// tuples, for COUNT(*)) have been produced.
[[nodiscard]] Result<ResultSet> ExecuteQueryWithLimit(const Database& db,
                                        const BoundQuery& query,
                                        Snapshot snapshot, size_t row_limit,
                                        const PlanningHints& hints =
                                            PlanningHints(),
                                        ExecProfile* profile = nullptr,
                                        ClockFn clock = nullptr);

/// True iff the query produces at least one tuple under `snapshot`;
/// evaluation stops at the first one. `profile`/`clock` as above.
[[nodiscard]] Result<bool> QueryHasResults(const Database& db, const BoundQuery& query,
                             Snapshot snapshot,
                             ExecProfile* profile = nullptr,
                             ClockFn clock = nullptr);

/// Parse + bind + execute against the latest snapshot.
[[nodiscard]] Result<ResultSet> ExecuteSql(const Database& db, std::string_view sql);

}  // namespace trac

#endif  // TRAC_EXEC_EXECUTOR_H_
