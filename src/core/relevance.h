#ifndef TRAC_CORE_RELEVANCE_H_
#define TRAC_CORE_RELEVANCE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/guarantee.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "core/heartbeat.h"
#include "exec/planner.h"
#include "expr/bound_expr.h"
#include "predicate/normalize.h"
#include "predicate/satisfiability.h"
#include "storage/database.h"
#include "telemetry/profile.h"
#include "verify/admissible.h"

namespace trac {

class Counter;
class Gauge;
class ThreadPool;
struct Telemetry;

/// Knobs for recency-query generation and execution.
struct RelevanceOptions {
  std::string heartbeat_table = std::string(HeartbeatTable::kDefaultName);
  NormalizeOptions normalize;
  SatOptions sat;

  /// Telemetry sinks and clock; nullptr = the process defaults. Task
  /// wall times go to the `trac_relevance_task_micros` histogram.
  const Telemetry* telemetry = nullptr;
  /// Trace linkage: with trace_id != 0, every execution task records a
  /// "relevance-task" span under `parent_span_id` — same trace tree as
  /// the report session that issued the queries.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;

  /// Number of concurrent strands used to execute a plan's recency
  /// queries (1 = fully serial, the default). The per-part queries are
  /// independent reads of one Snapshot — embarrassingly parallel — so
  /// ExecuteRecencyQueries fans them out across `parallelism` strands
  /// (the calling thread plus pool workers) and merges the partial
  /// results in deterministic part order: results are byte-identical to
  /// the serial execution at any parallelism level.
  size_t parallelism = 1;
  /// Pool supplying the helper threads; nullptr = ThreadPool::Shared()
  /// when parallelism > 1. Ignored when parallelism <= 1.
  ThreadPool* pool = nullptr;

  /// Collect per-operator execution profiles (telemetry/profile.h) for
  /// every task into RecencyExecution::task_profiles. Off by default —
  /// profiling is requested by the reporter, which owns the session IR
  /// the profiles attach onto. Each task writes only its own profile
  /// slot, so collection is race-free at any parallelism.
  bool profile = false;
};

/// The generated recency queries for a user query — one per
/// (DNF conjunct, referenced relation) pair, following Theorem 3 (single
/// relation) and Theorem 4 (multi relation):
///
///   S(Q, R_i) [=|⊆] π_{c_s}( σ_{P_s' ∧ J_s' ∧ P_o}
///                             (H × R_1 × ... R_{i-1} × R_{i+1} ... × R_n) )
///
/// Each part's query SELECTs DISTINCT H.source_id and H's recency
/// timestamp so one execution yields both the relevant set and the data
/// for the recency report. S(Q) is the union over all parts
/// (Corollaries 1 and 4).
struct RecencyQueryPlan {
  struct Part {
    BoundQuery query;
    /// EXISTS guards: relations of the Theorem 4 cross product that are
    /// not predicate-connected to the Heartbeat slot only matter through
    /// non-emptiness, so each such connected component becomes a guard
    /// query evaluated with LIMIT 1. If any guard is empty the part
    /// contributes nothing; otherwise `query` (which keeps only H's
    /// component) computes the sources. Semantically identical to the
    /// full cross product, and it reproduces the cost profile the paper
    /// describes for Q4's Routing subquery.
    std::vector<BoundQuery> guards;
    /// Which user-query relation this part covers (S(Q, R_i) via R_i).
    size_t via_relation = 0;
    size_t conjunct = 0;
    /// Theorem 3/4 preconditions held: P_m and J_rm NULL, P_r proven
    /// satisfiable. The part computes the exact S for its conjunct.
    bool minimal = true;
    std::string sql;  ///< Rendered text of `query`.
  };

  std::vector<Part> parts;

  /// True when generation fell back to "all sources are relevant"
  /// (DNF blow-up, or a query relation without a data source column in a
  /// position that prevents analysis). The plan then holds a single part
  /// scanning the whole Heartbeat table — complete but maximally
  /// imprecise, equivalent to the Naive method.
  bool fallback_all = false;

  /// All parts minimal, the DNF was exact, and no conjunct was dropped
  /// on an unproven satisfiability verdict: A(Q) == S(Q) guaranteed.
  /// Always equal to (analysis.verdict != kUpperBound).
  bool minimal = true;

  /// The static guarantee analysis the plan was generated from: the
  /// three-way verdict (EXACT_MINIMUM / UPPER_BOUND / EMPTY_SET) with
  /// source-anchored diagnostics and per-theorem citations. Plan
  /// generation consumes the same per-conjunct classification the
  /// verdict is derived from, so the two cannot disagree.
  GuaranteeReport analysis;

  /// Human-readable reasons minimality (or precision) was lost.
  std::vector<std::string> notes;
};

/// Generates the recency queries for `user_query` (pure analysis; does
/// not touch table data). Corresponds to the paper's "parse a user query
/// and generate a recency query" phase, which the evaluation times
/// separately.
[[nodiscard]] Result<RecencyQueryPlan> GenerateRecencyQueries(
    const Database& db, const BoundQuery& user_query,
    const RelevanceOptions& options = RelevanceOptions());

/// A relevant source with its recency timestamp.
struct SourceRecency {
  std::string source;
  Timestamp recency;

  friend bool operator==(const SourceRecency& a, const SourceRecency& b) {
    return a.source == b.source && a.recency == b.recency;
  }
};

/// Executes the plan's parts against `snapshot` and unions the results;
/// output sorted by source id. With options.parallelism > 1 the parts
/// run as pool tasks against the *same* snapshot; a part that is a pure
/// Heartbeat scan (the Naive plan, or the recency query of a
/// non-selective single-relation conjunct) is additionally sharded into
/// version ranges so even single-part plans fan out. The merged result
/// is identical to serial execution.
[[nodiscard]] Result<std::vector<SourceRecency>> ExecuteRecencyQueries(
    const Database& db, const RecencyQueryPlan& plan, Snapshot snapshot,
    const RelevanceOptions& options = RelevanceOptions());

/// ExecuteRecencyQueries plus per-task timing: `task_micros[i]` is the
/// wall time of task i (serial execution is one task per part), letting
/// the reporter split the relevance wall time into busy time vs.
/// fan-out win.
struct RecencyExecution {
  std::vector<SourceRecency> sources;
  std::vector<int64_t> task_micros;
  size_t parallelism = 1;  ///< Strands actually requested (clamped >= 1).

  /// Per-task operator profiles, parallel to `task_micros`, when
  /// options.profile was set; empty otherwise.
  std::vector<TaskProfile> task_profiles;
  /// Rows the tasks fed into the set merge (pre-dedup); always counted.
  uint64_t premerge_rows = 0;
  /// Wall time of the dedup merge fold; measured only under
  /// options.profile (the unprofiled path takes no extra clock reads).
  int64_t merge_micros = 0;
};

/// The plans one recency part runs, made with PlanQuery at the execution
/// snapshot by the caller (the report session's verify gate): `main` for
/// the part's query, `guards` parallel to the part's guards. A part that
/// executes as heartbeat shards (IsPureHeartbeatScan) runs off the
/// version log and needs no plan.
struct PlannedPart {
  std::optional<QueryPlan> main;
  std::vector<QueryPlan> guards;
};

/// `planned`, when non-null, holds one entry per plan part, and every
/// unsharded part with a `main` plan executes exactly those plans
/// (ExecutePlan) instead of planning again; parts without one plan ad
/// hoc (ExecuteQuery).
[[nodiscard]] Result<RecencyExecution> ExecuteRecencyQueriesDetailed(
    const Database& db, const RecencyQueryPlan& plan, Snapshot snapshot,
    const RelevanceOptions& options = RelevanceOptions(),
    const std::vector<PlannedPart>* planned = nullptr);

/// A part that is nothing but `SELECT DISTINCT source, recency FROM
/// heartbeat` — the Naive plan, and the Focused part of a conjunct with
/// no source-column predicate. Such a part can be sharded by version
/// range instead of being one indivisible task.
bool IsPureHeartbeatScan(const RecencyQueryPlan::Part& part);

/// Version-range fan-out ExecuteRecencyQueriesDetailed will use for
/// `part` at `parallelism` strands: 1 unless the part is a pure
/// Heartbeat scan and parallelism > 1. Exposed so the plan verifier
/// models exactly the sharding the executor performs (one source of
/// truth for the shard-count formula).
size_t PlannedHeartbeatShards(const Database& db,
                              const RecencyQueryPlan::Part& part,
                              size_t parallelism);

/// The combined answer: A(Q) with its provenance.
struct RelevanceResult {
  std::vector<SourceRecency> sources;  ///< Sorted by source id.
  bool minimal = true;                 ///< A(Q) == S(Q) proven.
  bool fallback_all = false;
  /// The plan's static guarantee analysis (verdict + diagnostics).
  GuaranteeReport analysis;
  std::vector<std::string> recency_sqls;  ///< One per generated part.
  std::vector<std::string> notes;

  std::vector<std::string> SourceIds() const;
};

/// Generation + execution in one call.
[[nodiscard]] Result<RelevanceResult> ComputeRelevantSources(
    const Database& db, const BoundQuery& user_query, Snapshot snapshot,
    const RelevanceOptions& options = RelevanceOptions());

/// The Naive method (Section 5): every source in the Heartbeat table is
/// reported relevant. Used as the experimental baseline and as the
/// fallback plan.
[[nodiscard]] Result<RecencyQueryPlan> GenerateNaivePlan(
    const Database& db, const RelevanceOptions& options = RelevanceOptions());

/// A verified relevance-result cache: maps the cache fingerprint of a
/// report session's relevance plan (ir/fingerprint.h) to the
/// SourceRecency vector that plan computed, so repeat traffic skips
/// ExecuteRecencyQueries entirely. Three proofs make a served entry
/// byte-identical to recomputation:
///
///   1. Admission — only plans the static admissibility analysis
///      (verify/admissible.h, TRAC-V013..V016) proves to be pure
///      functions of durable state with a complete footprint may enter.
///   2. Keying — entries are bucketed by the 64-bit FNV-1a fingerprint
///      of the canonical cache key and the full key string is compared
///      on lookup, so even a fingerprint collision cannot alias plans.
///   3. Invalidation — an entry computed at snapshot S0 is served at
///      lookup snapshot S only if the catalog epoch is unchanged (no
///      schema/index/table churn) and every table in its footprint
///      still exists with last_mutation_version() <= min(S0, S): any
///      commit in between (heartbeat arrivals included — the registry
///      table is in every staleness-sensitive footprint by TRAC-V015)
///      marks its table and evicts the entry on the next probe.
///
/// Thread safe. The internal mutex is a leaf (lock_rank::kRelevanceCache):
/// Lookup/Insert resolve catalog epochs and table mutation versions
/// *before* acquiring it, so it never nests inside storage locks.
///
/// Accounting invariant (relied on by the concurrency stress test):
/// every Lookup resolves to exactly one of hit / miss / inadmissible,
/// so stats().hits + misses + inadmissible == stats().lookups. A lookup
/// that evicts a stale entry counts one invalidation *and* one miss.
class RelevanceCache {
 public:
  /// Everything the cache needs from one report session, captured at
  /// verify time (before execution). Built by MakeProbe from the
  /// admissibility verdict of the session's relevance plan.
  struct Probe {
    bool admissible = false;
    uint64_t fingerprint = 0;
    /// Canonical cache key; compared byte-for-byte on lookup.
    std::string cache_key;
    /// Durable tables of the extracted footprint (absint/deps.h) —
    /// the entry's invalidation set.
    std::vector<std::string> tables;
    /// Catalog epoch observed when the probe was built. Insert discards
    /// the result if the epoch moved during execution.
    uint64_t catalog_epoch = 0;
  };

  /// Exact counters, mirrored (same increments) to the
  /// `trac_relevance_cache_total{outcome=...}` and
  /// `trac_relevance_cache_invalidations_total` metrics.
  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inadmissible = 0;
    uint64_t invalidations = 0;
    uint64_t inserts = 0;
    /// Inserts discarded by the race guard (epoch moved, table dropped,
    /// or a commit landed past the probe snapshot during execution).
    uint64_t insert_discards = 0;
    size_t entries = 0;
  };

  RelevanceCache();

  /// Captures a probe from an admissibility verdict: copies the verdict,
  /// fingerprint, cache key and footprint tables, and stamps the current
  /// catalog epoch. Call before executing the plan.
  static Probe MakeProbe(const Database& db,
                         const CacheAdmissibility& admissibility);

  /// Returns the cached sources for `probe` valid at `snapshot`, or
  /// nullopt. Counts exactly one of hit / miss / inadmissible; a stale
  /// entry is evicted and additionally counted as an invalidation.
  std::optional<std::vector<SourceRecency>> Lookup(const Database& db,
                                                   const Probe& probe,
                                                   Snapshot snapshot);

  /// Offers the result computed for `probe` at `snapshot`. Returns true
  /// if the entry was stored; false when the probe is inadmissible or
  /// the race guard proves the result may already be stale (catalog
  /// epoch moved, a footprint table vanished, or a footprint table's
  /// last mutation postdates `snapshot`).
  bool Insert(const Database& db, const Probe& probe, Snapshot snapshot,
              const std::vector<SourceRecency>& sources);

  /// Drops every entry (test hook; counts nothing).
  void Clear();

  Stats stats() const;

 private:
  struct Entry {
    std::string cache_key;
    std::vector<std::string> tables;
    uint64_t catalog_epoch = 0;
    /// Snapshot the entry was computed at (the S0 of the validity rule).
    Snapshot snapshot;
    std::vector<SourceRecency> sources;
  };

  /// True iff an entry with this footprint/epoch/S0 is provably valid at
  /// `snapshot` *now*. Touches catalog and table state — must be called
  /// with mu_ released (kRelevanceCache ranks above the storage locks).
  static bool ValidAt(const Database& db, const Entry& entry,
                      Snapshot snapshot);

  mutable Mutex mu_{lock_rank::kRelevanceCache, "RelevanceCache::mu_"};
  std::map<uint64_t, Entry> entries_ TRAC_GUARDED_BY(mu_);
  Stats stats_ TRAC_GUARDED_BY(mu_);

  // Process-wide metric handles (telemetry/metrics.h), resolved once.
  Counter* hits_total_;
  Counter* misses_total_;
  Counter* inadmissible_total_;
  Counter* invalidations_total_;
};

}  // namespace trac

#endif  // TRAC_CORE_RELEVANCE_H_
