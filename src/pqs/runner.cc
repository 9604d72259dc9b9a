#include "src/pqs/runner.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "src/common/rng.h"
#include "src/interp/bytecode.h"
#include "src/interp/eval.h"
#include "src/minidb/database.h"
#include "src/obs/telemetry.h"
#include "src/pqs/scheduler.h"
#include "src/sqlexpr/rectify.h"
#include "src/sqlmeta/oracle.h"

namespace pqs {

// The runner indexes RunStats::predicate_depth_buckets with
// sqlexpr::ExprDepthBucket; the two bucket counts must agree.
static_assert(RunStats::kDepthBuckets == kExprDepthBuckets,
              "RunStats depth histogram width must match ExprDepthBucket");

namespace {

using Rows = std::vector<std::vector<SqlValue>>;

// Statement-stream distribution tallies for the mutation actions.
void TallyAction(const Stmt& stmt, RunStats* stats) {
  switch (stmt.kind()) {
    case StmtKind::kInsert:
      ++stats->actions_insert;
      break;
    case StmtKind::kUpdate:
      ++stats->actions_update;
      break;
    case StmtKind::kDelete:
      ++stats->actions_delete;
      break;
    case StmtKind::kCreateIndex:
      ++stats->actions_create_index;
      break;
    case StmtKind::kDropIndex:
      ++stats->actions_drop_index;
      break;
    case StmtKind::kMaintenance:
      ++stats->actions_maintenance;
      break;
    default:
      break;
  }
}

// True when every row of `subset` occurs in `superset` as a multiset
// (each superset row consumed at most once). On failure *missing (when
// non-null) receives the first unmatched subset row.
bool RowsMultisetContained(const Rows& subset, const Rows& superset,
                           std::vector<SqlValue>* missing) {
  std::vector<bool> used(superset.size(), false);
  for (const auto& row : subset) {
    bool found = false;
    for (size_t i = 0; i < superset.size(); ++i) {
      if (used[i] || superset[i].size() != row.size()) continue;
      bool equal = true;
      for (size_t c = 0; c < row.size(); ++c) {
        if (!ValueEquals(superset[i][c], row[c])) {
          equal = false;
          break;
        }
      }
      if (equal) {
        used[i] = true;
        found = true;
        break;
      }
    }
    if (!found) {
      if (missing != nullptr) *missing = row;
      return false;
    }
  }
  return true;
}

// Worst-case 1-based position of the pivot in `query`'s result under
// reference semantics: the number of result rows whose ORDER BY keys sort
// at-or-before the pivot's (ties may legally precede it), or the full
// result size when the query has no ORDER BY (any row order is legal
// then). A LIMIT of at least this bound provably keeps the pivot in the
// result whatever tie-breaking the engine uses — the paper's restriction
// to queries where containment stays decidable. The base-table rows were
// already fetched for pivot selection, so this reuses them with the same
// shared relational core the engine runs.
bool PivotWorstCaseRank(const SelectStmt& query,
                        const std::vector<const TableSchema*>& from,
                        const std::vector<Rows>& table_rows,
                        const RowSchema& joined_schema,
                        const std::vector<SqlValue>& pivot,
                        const EvalContext& ctx, int64_t* rank) {
  std::vector<JoinInput> inputs;
  inputs.reserve(from.size());
  for (size_t t = 0; t < from.size(); ++t) {
    JoinInput input;
    for (const ColumnDef& col : from[t]->columns) {
      input.schema.cols.emplace_back(from[t]->name, col.name);
    }
    input.rows = &table_rows[t];
    inputs.push_back(std::move(input));
  }
  Rows joined;
  std::string error;
  if (!JoinRows(inputs, query.joins, ctx, &joined, &error, nullptr)) {
    return false;
  }
  // The WHERE runs once per joined row — compile it once.
  CompiledExpr where_code;
  if (query.where != nullptr) {
    where_code = CompileExpr(*query.where, joined_schema, ctx.dialect);
  }
  Rows result;
  for (std::vector<SqlValue>& row : joined) {
    if (query.where != nullptr) {
      RowView view{&joined_schema, &row};
      EvalResult evaluated = where_code.Run(view, ctx);
      if (evaluated.error) return false;
      if (Truthiness(evaluated.value, ctx.dialect) != Bool3::kTrue) continue;
    }
    result.push_back(std::move(row));
  }
  if (query.distinct) {
    std::vector<size_t> keep = DistinctKeepIndexes(result, ctx);
    Rows deduped;
    deduped.reserve(keep.size());
    for (size_t idx : keep) deduped.push_back(std::move(result[idx]));
    result = std::move(deduped);
  }
  if (query.order_by.empty()) {
    *rank = static_cast<int64_t>(result.size());
  } else {
    // Key expressions run once per kept row — compile each once.
    std::vector<CompiledExpr> key_code;
    key_code.reserve(query.order_by.size());
    for (const OrderByItem& item : query.order_by) {
      if (item.expr == nullptr) return false;
      key_code.push_back(CompileExpr(*item.expr, joined_schema, ctx.dialect));
    }
    auto eval_keys = [&](const RowView& view, std::vector<SqlValue>* keys) {
      keys->clear();
      keys->reserve(key_code.size());
      for (const CompiledExpr& code : key_code) {
        EvalResult evaluated = code.Run(view, ctx);
        if (evaluated.error) return false;
        keys->push_back(std::move(evaluated.value));
      }
      return true;
    };
    RowView pivot_view{&joined_schema, &pivot};
    std::vector<SqlValue> pivot_keys;
    if (!eval_keys(pivot_view, &pivot_keys)) return false;
    int64_t at_or_before = 0;
    std::vector<SqlValue> keys;
    for (const std::vector<SqlValue>& row : result) {
      RowView view{&joined_schema, &row};
      if (!eval_keys(view, &keys)) return false;
      if (CompareOrderKeys(keys, pivot_keys, query.order_by) <= 0) {
        ++at_or_before;
      }
    }
    *rank = at_or_before;
  }
  // Rectification guarantees the pivot is in the reference result, so the
  // bound is structurally >= 1; clamp defensively (LIMIT 0 would be an
  // instant false positive).
  if (*rank < 1) *rank = 1;
  return true;
}

// Outcome of one database of the shard plan. Merging these in db_index
// order reconstructs exactly what the sequential loop would have reported.
struct DbRunResult {
  RunStats stats;
  obs::MetricsRegistry metrics;
  std::vector<Finding> findings;
  bool unsupported_engine = false;
  bool factory_failed = false;  // factory returned null; run ends before it
};

// What an engine table is compared against (CompareTable).
enum class Reference {
  kModel,         // the model's replay of setup and stream (DESIGN §9)
  kSerialReplay,  // committed transactions replayed serially (DESIGN §14)
  kSnapshot,      // the mirror's view inside the current session
};

// One database of the shard plan: the paper's Algorithm 1 loop. The
// session builds a database from its private RNG stream, runs the setup
// on the engine under test and on a clean MiniDB model, and then takes
// `queries_per_database` query steps. Each step is Mutate (the scheduler's
// statement stream) followed by one check unit: containment, NoREC/TLP, or
// the transaction checks when `gen.txn_sessions > 1`. Whichever unit
// issues it, every engine statement goes through Exec and its answer
// through Judge (the NoREC/TLP queries run inside src/sqlmeta, which
// classifies their answers itself), every finding through Fail, and every
// engine-vs-reference table comparison through CompareTable. A finding or
// an unsupported engine ends the session: every step returns false then.
//
// Ground truth: `model_` — the reference implementation of the shared
// interp core — executes every setup and stream statement alongside the
// engine, so a statement the engine applied wrongly (lost row, ghost row,
// wrong value) is caught by the table compares even though a rectified
// query can only prove *pivot* containment. In K-session runs the model is
// the *mirror*: it executes the identical interleaved stream (SetSession
// included) and answers "what should this session see right now" — the
// snapshot-isolation oracle. Those runs add `replay_`, which never sees a
// BEGIN: it receives each committed transaction's successful DML serially,
// in commit order, and answers "what must the committed state be" — the
// serial-replay oracle. Under SI with first-committer-wins at table
// granularity, applying committed transactions' writes in commit order
// reproduces the committed state exactly (no committer's written tables
// changed between its snapshot and its commit), which is what makes the
// serial comparison sound.
class Session {
 public:
  // `telemetry` is the session's installed telemetry context; the session
  // stamps its findings' flight dumps from it.
  Session(const RunnerOptions& options, uint64_t db_seed, ConnectionPtr conn,
          obs::SessionTelemetry* telemetry)
      : options_(options),
        telemetry_(*telemetry),
        rng_(db_seed),
        conn_(std::move(conn)),
        dialect_(conn_->dialect()),
        generator_(options.gen, dialect_),
        plan_(GeneratePlan()),
        model_(dialect_),
        replay_(options.gen.txn_sessions > 1
                    ? std::make_unique<minidb::Database>(dialect_)
                    : nullptr),
        scheduler_(&generator_, options.gen, &plan_),
        session_txns_(static_cast<size_t>(options.gen.txn_sessions)) {
    ++stats_.databases_created;
  }

  DbRunResult Run() {
    if (Setup()) {
      for (int q = 0; q < options_.queries_per_database; ++q) {
        if (!Mutate() || !Check()) break;
      }
    }
    return std::move(out_);
  }

 private:
  // Per-session bookkeeping for the serial-replay model: the successful
  // DML of each open transaction, forwarded on commit.
  struct SessionTxn {
    bool open = false;
    std::vector<StmtPtr> committed_dml;
  };

  DatabasePlan GeneratePlan() {
    obs::ScopedPhase span(obs::Phase::kGenerate);
    DatabasePlan plan = generator_.GenerateDatabase(&rng_);
    if (options_.gen.txn_sessions > 1) {
      // Guarantee at least one index per table: the transaction stream
      // never issues DDL, so only setup indexes keep the index-maintenance
      // paths (and the rollback-stale-index probe) reachable. A unique
      // index over already-inserted duplicate data is rejected as a
      // tolerated constraint violation, same as mid-session CREATE INDEX.
      int index_counter = 0;
      for (const StmtPtr& s : plan.statements) {
        if (s->kind() == StmtKind::kCreateIndex) ++index_counter;
      }
      for (const TableSchema& table : plan.tables) {
        plan.statements.push_back(generator_.GenerateIndex(
            table, "i" + std::to_string(index_counter++), &rng_));
      }
    }
    return plan;
  }

  // Runs one statement on the engine under test.
  StatementResult Exec(const Stmt& stmt) {
    return ExecuteCounted(*conn_, stmt);
  }

  StatementResult ExecModel(const Stmt& stmt) {
    obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
    return model_.Execute(stmt);
  }

  // The judgement of every engine answer. kUnsupported ends the run. On a
  // state-changing statement a kConstraintViolation (a rejected random
  // write, counted) and a kTxnConflict (a first-committer-wins abort,
  // expected under SI; the serial model only ever sees the winner) are
  // tolerated. Everything else — kError and kCrash anywhere, any failure
  // of a SELECT — is a finding. Returns false when the session ends here.
  bool Judge(const Stmt& stmt, const StatementResult& result) {
    bool query = stmt.kind() == StmtKind::kSelect;
    switch (result.status) {
      case StatementStatus::kOk:
        return true;
      case StatementStatus::kUnsupported:
        return Unsupported();
      case StatementStatus::kConstraintViolation:
        if (query) break;
        ++stats_.constraint_violations;
        return true;
      case StatementStatus::kTxnConflict:
        if (query) break;
        return true;
      case StatementStatus::kError:
      case StatementStatus::kCrash:
        break;
    }
    return Fail(result.status == StatementStatus::kCrash ? OracleKind::kCrash
                                                         : OracleKind::kError,
                Replay(query ? &stmt : nullptr), result.error);
  }

  // The engine cannot run the workload (e.g. the stub SQLite adapter): the
  // run ends with this session, which reports what it had.
  bool Unsupported() {
    out_.unsupported_engine = true;
    return false;
  }

  // Records a finding, which ends the session (always returns false).
  bool Fail(OracleKind oracle, std::vector<StmtPtr> statements,
            std::string message, std::vector<SqlValue> pivot = {}) {
    Finding finding;
    finding.oracle = oracle;
    finding.dialect = dialect_;
    finding.statements = std::move(statements);
    finding.pivot = std::move(pivot);
    finding.message = std::move(message);
    finding.seed = options_.seed;
    // Provenance: stamp the finding into the flight ring, then ship the
    // ring's contents with the finding. The dump is therefore never empty
    // (it at least holds its own kFindingRecorded marker) and is a pure
    // function of the session seed — worker-count-invariant.
    telemetry_.recorder.Emit(telemetry_.clock,
                             obs::EventKind::kFindingRecorded,
                             static_cast<uint32_t>(finding.oracle));
    finding.flight = telemetry_.recorder.Dump();
    out_.findings.push_back(std::move(finding));
    return false;
  }

  // The replayable session: the setup statements executed so far, every
  // stream statement since, and optionally the SELECT that triggered a
  // finding. Stream statements never read their own results, so this flat
  // order reproduces the exact state a finding was observed in. Only
  // called when a finding is recorded, so the common path never copies
  // ASTs.
  std::vector<StmtPtr> Replay(const Stmt* last) const {
    std::vector<StmtPtr> out;
    out.reserve(setup_done_ + log_.size() + 1);
    for (size_t i = 0; i < setup_done_; ++i) {
      out.push_back(plan_.statements[i]->Clone());
    }
    for (const StmtPtr& s : log_) out.push_back(s->Clone());
    if (last != nullptr) out.push_back(last->Clone());
    return out;
  }

  // Compares the engine's rows of the single-table `fetch` with the
  // reference rows as multisets. A divergence is a finding whose pivot is
  // the first reference row the engine lost (none when the engine instead
  // holds rows the reference does not).
  bool CompareTable(const SelectStmt& fetch, const StatementResult& engine,
                    Reference reference) {
    const std::string& table = fetch.from_tables[0];
    // The stored rows of a clean MiniDB are the multiset a bare SELECT *
    // returns, without the query machinery. The snapshot needs the
    // mirror's session view, so it runs the fetch there.
    const Rows* expected = nullptr;
    if (reference == Reference::kModel) {
      expected = model_.TableRows(table);
      ++stats_.state_compares;
    } else if (reference == Reference::kSerialReplay) {
      expected = replay_->TableRows(table);
    }
    StatementResult mirror;
    bool same;
    {
      obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
      if (reference == Reference::kSnapshot) {
        mirror = model_.Execute(fetch);
        if (mirror.ok()) expected = &mirror.rows;  // clean mirror; defensive
      }
      same = expected == nullptr || SameRowMultiset(engine.rows, *expected);
    }
    if (same) return true;
    std::vector<SqlValue> lost;
    for (const std::vector<SqlValue>& row : *expected) {
      if (!ResultContainsRow(engine, row)) {
        lost = row;
        break;
      }
    }
    std::string subject = "table " + table;
    const char* against = "the ground-truth mutation replay";
    const char* reference_name = "reference";
    if (reference == Reference::kSerialReplay) {
      against = "the serial replay of committed transactions";
      reference_name = "serial replay";
    } else if (reference == Reference::kSnapshot) {
      subject = "session " + std::to_string(current_session_) +
                " snapshot of " + subject;
      against = "the interleaved ground-truth replay";
    }
    return Fail(reference == Reference::kModel ? OracleKind::kContainment
                                               : OracleKind::kTxnSerial,
                Replay(&fetch),
                subject + " diverged from " + against + ": engine has " +
                    std::to_string(engine.rows.size()) + " row(s), " +
                    reference_name + " " + std::to_string(expected->size()),
                std::move(lost));
  }

  // SELECT * of `table` on the engine, judged and then compared with
  // `reference`.
  bool FetchTable(const std::string& table, Reference reference,
                  StatementResult* rows) {
    SelectStmt fetch;
    fetch.from_tables = {table};
    *rows = Exec(fetch);
    if (reference == Reference::kSnapshot) ++stats_.txn_snapshot_checks;
    return Judge(fetch, *rows) && CompareTable(fetch, *rows, reference);
  }

  bool FetchTables(Reference reference) {
    StatementResult rows;
    for (const TableSchema& table : plan_.tables) {
      if (!FetchTable(table.name, reference, &rows)) return false;
    }
    return true;
  }

  // Typed-expression stats: generated-predicate depth histogram and
  // function-call tallies (surfaced through bench_figure3).
  void TallyPredicate(const Expr& predicate) {
    ++stats_.predicate_depth_buckets[ExprDepthBucket(predicate.Depth())];
    size_t calls = predicate.CountKind(ExprKind::kFunctionCall);
    stats_.function_calls_generated += calls;
    if (calls > 0) ++stats_.predicates_with_function;
  }

  // --- Setup: DDL, base data and indexes on engine and model. ----------
  bool Setup() {
    for (const StmtPtr& stmt : plan_.statements) {
      StatementResult result = Exec(*stmt);
      ++setup_done_;
      StatementResult model_result = ExecModel(*stmt);
      if (replay_ != nullptr) {
        {
          obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
          replay_->Execute(*stmt);
        }
        // Key columns of setup indexes the mirror accepted, for the index
        // probe (a corrupted index shows up only through an indexed lookup).
        if (model_result.ok() && stmt->kind() == StmtKind::kCreateIndex) {
          const auto& ci = static_cast<const CreateIndexStmt&>(*stmt);
          if (!ci.columns.empty()) {
            probe_cols_.emplace_back(ci.table_name, ci.columns[0]);
          }
        }
      }
      scheduler_.Observe(*stmt, model_result.ok());
      if (!Judge(*stmt, result)) return false;
    }
    return true;
  }

  // --- Mutate: the statement stream between two checks (DESIGN §9). ----
  // NextBatch's weighted mutation mix, or in K-session runs NextTxnBatch's
  // interleaved BEGIN/COMMIT/ROLLBACK stream (DESIGN §14).
  bool Mutate() {
    if (replay_ == nullptr) {
      for (StmtPtr& stmt : scheduler_.NextBatch(&rng_)) {
        if (!Apply(std::move(stmt))) return false;
      }
      return true;
    }
    for (SessionAction& action : scheduler_.NextTxnBatch(&rng_)) {
      if (!SwitchSession(action.session) || !Apply(std::move(action.stmt))) {
        return false;
      }
    }
    return true;
  }

  // One stream statement, on the engine and then the model.
  bool Apply(StmtPtr stmt) {
    StatementResult result = Exec(*stmt);
    TallyAction(*stmt, &stats_);
    StatementResult model_result = ExecModel(*stmt);
    scheduler_.Observe(*stmt, model_result.ok());
    bool committed = replay_ != nullptr && TrackTxn(*stmt, model_result);
    log_.push_back(std::move(stmt));
    if (!Judge(*log_.back(), result)) return false;
    // Committed-state check right after every COMMIT: the strongest point
    // to compare, since the committing session is back in autocommit and
    // reads the latest committed state.
    return !committed || CommittedStateMatches();
  }

  // Prefixes a session switch when `session` differs from the last
  // action's. The switch joins the log so findings replay flat, and its
  // answer goes through Judge like any other statement's, so a switch the
  // engine refused ends the session at the switch itself.
  bool SwitchSession(int session) {
    if (session == current_session_) return true;
    auto set = std::make_unique<SetSessionStmt>();
    set->session = session;
    StatementResult result = Exec(*set);
    ExecModel(*set);
    current_session_ = session;
    log_.push_back(std::move(set));
    return Judge(*log_.back(), result);
  }

  // Transaction lifecycle of one stream statement the mirror ran in the
  // current session, and the serial-replay model's share of it: an open
  // transaction's successful DML waits for its COMMIT, autocommit DML is
  // its own committed transaction. Returns true for a COMMIT.
  bool TrackTxn(const Stmt& stmt, const StatementResult& mirror_result) {
    SessionTxn& sess = session_txns_[static_cast<size_t>(current_session_)];
    uint32_t session = static_cast<uint32_t>(current_session_);
    uint32_t clock = static_cast<uint32_t>(model_.commit_clock());
    switch (stmt.kind()) {
      case StmtKind::kBegin:
        if (mirror_result.ok()) {
          sess.open = true;
          sess.committed_dml.clear();
          ++stats_.txn_begins;
          obs::Emit(obs::EventKind::kTxnBegin, session, clock);
        }
        return false;
      case StmtKind::kCommit:
        if (mirror_result.ok()) {
          ++stats_.txn_commits;
          obs::Emit(obs::EventKind::kTxnCommit, session, clock);
          obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
          for (const StmtPtr& dml : sess.committed_dml) replay_->Execute(*dml);
        } else if (mirror_result.status == StatementStatus::kTxnConflict) {
          ++stats_.txn_conflicts;
          obs::Emit(obs::EventKind::kTxnAbort, session, 1);
        }
        sess.open = false;
        sess.committed_dml.clear();
        return true;
      case StmtKind::kRollback:
        if (mirror_result.ok()) {
          ++stats_.txn_rollbacks;
          obs::Emit(obs::EventKind::kTxnAbort, session, 0);
        }
        sess.open = false;
        sess.committed_dml.clear();
        return false;
      default:  // DML
        if (!mirror_result.ok()) return false;
        if (sess.open) {
          sess.committed_dml.push_back(stmt.Clone());
        } else {
          obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
          replay_->Execute(stmt);
        }
        return false;
    }
  }

  // The engine's post-commit autocommit view of every table must equal
  // the serial replay of the committed transactions.
  bool CommittedStateMatches() {
    ++stats_.txn_serial_replays;
    return FetchTables(Reference::kSerialReplay);
  }

  // --- Check units. ----------------------------------------------------
  bool Check() {
    if (replay_ != nullptr) return CheckTxn();
    if (options_.family == OracleFamily::kNorec ||
        options_.family == OracleFamily::kTlp) {
      return CheckMeta();
    }
    return CheckContainment();
  }

  // Containment (paper §3.2, Algorithm 3): select a pivot, synthesize a
  // rectified query, and require the engine to return the pivot.
  bool CheckContainment() {
    QueryShape shape;
    {
      obs::ScopedPhase span(obs::Phase::kGenerate);
      shape = generator_.GenerateQueryShape(plan_, &rng_);
    }
    const std::vector<const TableSchema*>& from = shape.tables;

    // Pivot selection through the Connection API: fetch each FROM
    // table's rows and pick one at random (paper §3.2 step 2 — re-run
    // after every mutation batch, so the pivot is always re-selected from
    // the mutated state). Each fetch is also the ground-truth state
    // comparison, which keeps containment exact under UPDATE/DELETE — a
    // wrongly-deleted row could otherwise never be picked as a pivot. The
    // full rowsets are retained: the LIMIT bound below recomputes the
    // query on them under reference semantics.
    RowSchema pivot_schema;
    std::vector<SqlValue> pivot;
    std::vector<Rows> table_rows;
    for (const TableSchema* table : from) {
      StatementResult rows;
      if (!FetchTable(table->name, Reference::kModel, &rows)) return false;
      if (rows.rows.empty()) {
        ++stats_.queries_skipped;  // empty after rejections or deletes
        return true;
      }
      table_rows.push_back(std::move(rows.rows));
      obs::PivotSelected(static_cast<uint32_t>(table_rows.size() - 1),
                         static_cast<uint32_t>(table_rows.back().size()));
      const auto& row = table_rows.back()[rng_.Below(table_rows.back().size())];
      for (size_t c = 0; c < table->columns.size() && c < row.size(); ++c) {
        pivot_schema.cols.emplace_back(table->name, table->columns[c].name);
        pivot.push_back(row[c]);
      }
    }

    EvalContext ground_truth{dialect_, nullptr};
    RowView pivot_view{&pivot_schema, &pivot};

    // Join plan: generate each explicit ON condition and rectify it to
    // TRUE on the pivot (join-aware Algorithm 3), so the multi-table pivot
    // combination survives every INNER/LEFT step un-padded. With
    // rectification ablated the raw ON is used (and, as with WHERE, the
    // containment check is skipped).
    std::vector<JoinClause> joins;
    for (size_t j = 0; j < shape.join_kinds.size(); ++j) {
      JoinClause clause;
      clause.kind = shape.join_kinds[j];
      clause.table = from[j + 1]->name;
      if (clause.kind != JoinKind::kCross) {
        std::vector<const TableSchema*> earlier(from.begin(),
                                                from.begin() + j + 1);
        ExprPtr on;
        {
          obs::ScopedPhase span(obs::Phase::kGenerate);
          on = generator_.GenerateJoinCondition(earlier, from[j + 1], &rng_);
        }
        // Covers the ON evaluation on the pivot and the rectifying wrap.
        obs::ScopedPhase rectify_span(obs::Phase::kRectify);
        bool on_error = false;
        Bool3 raw_on =
            EvaluatePredicate(*on, pivot_view, ground_truth, &on_error);
        if (on_error) {
          ++stats_.queries_skipped;  // generator statically prevents this
          return true;
        }
        if (options_.gen.rectify) {
          clause.on = RectifyToTrue(std::move(on), raw_on);
          ++stats_.join_conditions_rectified;
        } else {
          clause.on = std::move(on);
        }
      }
      joins.push_back(std::move(clause));
    }

    ExprPtr predicate;
    {
      obs::ScopedPhase span(obs::Phase::kGenerate);
      predicate = generator_.GeneratePredicate(from, &rng_);

      // Partial-index probe: sometimes AND a live partial index's predicate
      // in front of the WHERE, making the partial-index scan planner
      // reachable. Rectification leaves the conjunct intact exactly when
      // the raw composite is TRUE on the pivot (the other branches wrap
      // the whole expression, and the planner then simply falls back to a
      // full scan — sound either way).
      if (ExprPtr probe =
              scheduler_.MaybePartialIndexProbe(from[0]->name, &rng_)) {
        predicate = MakeBinary(BinaryOp::kAnd, std::move(probe),
                               std::move(predicate));
      }
    }

    // Algorithm 3: evaluate the raw predicate on the pivot with
    // reference semantics, tally the branch, and rectify to TRUE.
    bool eval_error = false;
    Bool3 raw;
    {
      obs::ScopedPhase span(obs::Phase::kRectify);
      raw = EvaluatePredicate(*predicate, pivot_view, ground_truth,
                              &eval_error);
    }
    if (eval_error) {
      // The generator statically prevents this; defensive skip.
      ++stats_.queries_skipped;
      return true;
    }
    TallyPredicate(*predicate);

    // The raw outcome is tallied in both modes (the ablation bench
    // prints it either way); rectification additionally wraps the
    // predicate so it is TRUE on the pivot.
    switch (raw) {
      case Bool3::kTrue:
        ++stats_.rectified_true;
        break;
      case Bool3::kFalse:
        ++stats_.rectified_false;
        break;
      case Bool3::kNull:
        ++stats_.rectified_null;
        break;
    }
    ExprPtr where;
    {
      obs::ScopedPhase span(obs::Phase::kRectify);
      where = options_.gen.rectify ? RectifyToTrue(std::move(predicate), raw)
                                   : std::move(predicate);
    }

    SelectStmt query;
    query.distinct = shape.distinct;
    if (!joins.empty()) {
      query.from_tables.push_back(from[0]->name);
      query.joins = std::move(joins);
    } else {
      for (const TableSchema* table : from) {
        query.from_tables.push_back(table->name);
      }
    }
    query.where = std::move(where);
    query.order_by = std::move(shape.order_by);

    // LIMIT: only attached with a provably pivot-safe bound (worst-case
    // ordered rank of the pivot, or the whole result when unordered),
    // sometimes with slack so non-binding limits are exercised too.
    if (shape.want_limit && options_.gen.rectify) {
      int64_t rank = 0;
      bool rank_ok;
      {
        // The rank bound reruns the query under reference semantics — the
        // same work the ground-truth model does, so it profiles there.
        obs::ScopedPhase span(obs::Phase::kGroundTruthReplay);
        rank_ok = PivotWorstCaseRank(query, from, table_rows, pivot_schema,
                                     pivot, ground_truth, &rank);
      }
      if (!rank_ok) {
        ++stats_.queries_skipped;
        return true;
      }
      query.limit =
          rank + (rng_.Chance(0.5) ? 0 : static_cast<int64_t>(rng_.Below(4)));
      ++stats_.limited_queries;
    }

    StatementResult result = Exec(query);
    ++stats_.queries_checked;
    if (!Judge(query, result)) return false;
    if (!options_.gen.rectify) return true;
    bool contains;
    {
      obs::ScopedPhase span(obs::Phase::kOracleCheck);
      contains = ResultContainsRow(result, pivot);
      obs::Emit(obs::EventKind::kOracleCheck,
                static_cast<uint32_t>(OracleKind::kContainment),
                contains ? 0u : 1u);
    }
    if (contains) return true;
    std::string row_text;
    for (const SqlValue& v : pivot) {
      if (!row_text.empty()) row_text += ", ";
      row_text += v.ToDisplay();
    }
    return Fail(OracleKind::kContainment, Replay(&query),
                "pivot row (" + row_text +
                    ") missing from a rectified query's result of " +
                    std::to_string(result.rows.size()) + " rows",
                std::move(pivot));
  }

  // NoREC/TLP: the model state compare of one random table — a mutation
  // the engine lost is caught before it can masquerade as a metamorphic
  // mismatch — then the family's transformed queries (src/sqlmeta) run in
  // place of the pivot-containment query.
  bool CheckMeta() {
    bool norec = options_.family == OracleFamily::kNorec;
    const TableSchema& table = plan_.tables[rng_.Below(plan_.tables.size())];
    StatementResult rows;
    if (!FetchTable(table.name, Reference::kModel, &rows)) return false;

    std::vector<const TableSchema*> single{&table};
    ExprPtr predicate;
    {
      obs::ScopedPhase span(obs::Phase::kGenerate);
      predicate = generator_.GeneratePredicate(single, &rng_);
      if (norec) {
        // NoREC's optimized side engages the planner; the partial-index
        // probe keeps the partial-index scan paths reachable there too.
        if (ExprPtr probe =
                scheduler_.MaybePartialIndexProbe(table.name, &rng_)) {
          predicate = MakeBinary(BinaryOp::kAnd, std::move(probe),
                                 std::move(predicate));
        }
      }
    }
    TallyPredicate(*predicate);

    sqlmeta::MetaOutcome outcome;
    if (norec) {
      obs::ScopedPhase span(obs::Phase::kOracleCheck);
      outcome = sqlmeta::RunNorecCheck(*conn_, table.name, *predicate);
    } else {
      std::unique_ptr<SelectStmt> full;
      {
        obs::ScopedPhase span(obs::Phase::kGenerate);
        if (rng_.Chance(options_.gen.tlp_rows_shape_probability)) {
          // Plain row-set shape: SELECT * recombined by multiset union.
          full = std::make_unique<SelectStmt>();
          full->from_tables.push_back(table.name);
        } else {
          full = generator_.GenerateAggregateQuery(table, &rng_);
        }
      }
      if (full->HasAggregates()) {
        ++stats_.aggregate_queries;
        if (!full->group_by.empty()) ++stats_.group_by_queries;
        if (full->having != nullptr) ++stats_.having_queries;
      }
      obs::ScopedPhase span(obs::Phase::kOracleCheck);
      outcome = sqlmeta::RunTlpCheck(*conn_, *full, *predicate);
    }
    if (outcome.verdict == sqlmeta::MetaVerdict::kSkipped) {
      ++stats_.queries_skipped;
      return true;
    }
    if (outcome.verdict == sqlmeta::MetaVerdict::kUnsupported) {
      return Unsupported();
    }
    OracleKind family_oracle = norec ? OracleKind::kNorec : OracleKind::kTlp;
    ++stats_.queries_checked;
    obs::Emit(obs::EventKind::kOracleCheck,
              static_cast<uint32_t>(family_oracle),
              outcome.verdict != sqlmeta::MetaVerdict::kOk ? 1u : 0u);
    if (norec) {
      ++stats_.norec_checks;
    } else {
      ++stats_.tlp_checks;
      size_t executed = outcome.executed.size();
      stats_.tlp_partition_queries += executed > 3 ? 3 : executed;
    }
    if (outcome.verdict == sqlmeta::MetaVerdict::kOk) return true;
    OracleKind oracle = family_oracle;
    if (outcome.verdict == sqlmeta::MetaVerdict::kEngineCrash) {
      oracle = OracleKind::kCrash;
    } else if (outcome.verdict == sqlmeta::MetaVerdict::kEngineError) {
      oracle = OracleKind::kError;
    }
    // The replayable session plus every transformed query the check ran;
    // the query that decided the verdict is last.
    std::vector<StmtPtr> statements = Replay(nullptr);
    for (StmtPtr& s : outcome.executed) statements.push_back(std::move(s));
    return Fail(oracle, std::move(statements), std::move(outcome.message));
  }

  // Transaction checks (DESIGN §14), after the stream's committed-state
  // compares. Snapshot: inside a randomly chosen session's view the engine
  // must agree with the mirror. It runs *before* the index probe so a
  // dirty-read divergence always attributes to the transaction oracle.
  bool CheckTxn() {
    int session = static_cast<int>(
        rng_.Below(static_cast<size_t>(options_.gen.txn_sessions)));
    return SwitchSession(session) && FetchTables(Reference::kSnapshot) &&
           ProbeIndex();
  }

  // Index probe: an equality lookup on an indexed column. The mirror's
  // rows must be multiset-contained in the engine's — a stale index entry
  // left by a rolled-back transaction makes the engine's indexed scan
  // *miss* rows, while extra rows (a dirty read) never misfire this check.
  bool ProbeIndex() {
    if (probe_cols_.empty()) return true;
    const auto& [probe_table, probe_col] =
        probe_cols_[rng_.Below(probe_cols_.size())];
    const Rows* committed_rows = replay_->TableRows(probe_table);
    const TableSchema* schema = nullptr;
    size_t col_index = 0;
    for (const TableSchema& table : plan_.tables) {
      if (table.name != probe_table) continue;
      schema = &table;
      for (size_t c = 0; c < table.columns.size(); ++c) {
        if (table.columns[c].name == probe_col) col_index = c;
      }
    }
    if (schema == nullptr || committed_rows == nullptr ||
        committed_rows->empty()) {
      return true;
    }
    const auto& sample = (*committed_rows)[rng_.Below(committed_rows->size())];
    if (col_index >= sample.size()) return true;
    SelectStmt probe;
    probe.from_tables = {probe_table};
    probe.where =
        MakeBinary(BinaryOp::kEq, MakeColumnRef(probe_table, probe_col),
                   MakeLiteral(sample[col_index]));
    StatementResult engine_rows = Exec(probe);
    if (!Judge(probe, engine_rows)) return false;
    StatementResult mirror_rows = ExecModel(probe);
    std::vector<SqlValue> missing;
    if (!mirror_rows.ok() ||
        RowsMultisetContained(mirror_rows.rows, engine_rows.rows, &missing)) {
      return true;
    }
    return Fail(OracleKind::kContainment, Replay(&probe),
                "indexed lookup on " + probe_table + "." + probe_col +
                    " dropped committed row(s): engine returned " +
                    std::to_string(engine_rows.rows.size()) +
                    " row(s), ground-truth replay " +
                    std::to_string(mirror_rows.rows.size()),
                std::move(missing));
  }

  const RunnerOptions& options_;
  obs::SessionTelemetry& telemetry_;
  DbRunResult out_;
  RunStats& stats_ = out_.stats;
  Rng rng_;
  ConnectionPtr conn_;
  Dialect dialect_;
  Generator generator_;
  DatabasePlan plan_;
  minidb::Database model_;  // the mirror in K-session runs
  std::unique_ptr<minidb::Database> replay_;  // K-session runs only
  ActionScheduler scheduler_;
  size_t setup_done_ = 0;      // setup statements executed so far
  std::vector<StmtPtr> log_;   // stream statements executed since setup
  // Key columns of setup indexes, for the index probe (K-session runs).
  std::vector<std::pair<std::string, std::string>> probe_cols_;
  std::vector<SessionTxn> session_txns_;
  int current_session_ = 0;
};

// Telemetry wrapper around one session: installs a fresh per-session
// telemetry context (registry + flight ring + logical clock) for the
// duration of the session and harvests it into the result. Engine
// internals emit into this session's registry and flight ring, and the
// logical clock is the session's statement count.
DbRunResult RunOneDatabase(const WorkerEngineFactory& factory, int worker,
                           const RunnerOptions& options, uint64_t db_seed) {
  obs::SessionTelemetry telemetry;
  DbRunResult out;
  {
    obs::ScopedSessionTelemetry install(&telemetry);
    ConnectionPtr conn = factory(worker);
    if (conn == nullptr) {
      out.factory_failed = true;
    } else {
      out = Session(options, db_seed, std::move(conn), &telemetry).Run();
    }
  }
  telemetry.metrics.GaugeMax(obs::Gauge::kMaxFlightEvents,
                             telemetry.recorder.total_emitted());
  out.stats.statements_executed = telemetry.clock;
  out.metrics = telemetry.metrics;
  return out;
}

// Folds one database's result into the report, in plan order. Returns
// false when the run terminates at this database: a null factory ends the
// run before it (sequential `break`), an unsupported engine ends it after
// its partial stats (sequential early `return`), and under
// stop_on_first_finding the first database carrying a finding is the last
// one reported.
bool MergeDbResult(DbRunResult&& r, bool stop_on_first_finding,
                   RunReport* report) {
  if (r.factory_failed) return false;
  report->stats.Merge(r.stats);
  report->metrics.Merge(r.metrics);
  bool had_finding = !r.findings.empty();
  for (Finding& f : r.findings) report->findings.push_back(std::move(f));
  if (r.unsupported_engine) {
    report->unsupported_engine = true;
    return false;
  }
  return !(stop_on_first_finding && had_finding);
}

// True when databases after this one can never reach the merged report.
bool TerminatesRun(const DbRunResult& r, bool stop_on_first_finding) {
  return r.factory_failed || r.unsupported_engine ||
         (stop_on_first_finding && !r.findings.empty());
}

// Runs one plan task, timing the whole session for the latency hook. The
// clock is only read when a hook is installed, so unhooked runs pay
// nothing; the hook cannot change the result, so reports stay
// byte-identical either way.
DbRunResult RunTask(const WorkerEngineFactory& factory, int worker,
                    const RunnerOptions& options,
                    const ShardPlan::Task& task) {
  if (!options.session_latency_hook) {
    return RunOneDatabase(factory, worker, options, task.seed);
  }
  auto start = std::chrono::steady_clock::now();
  DbRunResult r = RunOneDatabase(factory, worker, options, task.seed);
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  options.session_latency_hook(task.db_index, elapsed.count());
  return r;
}

}  // namespace

void RunStats::Merge(const RunStats& other) {
  statements_executed += other.statements_executed;
  queries_checked += other.queries_checked;
  queries_skipped += other.queries_skipped;
  databases_created += other.databases_created;
  rectified_true += other.rectified_true;
  rectified_false += other.rectified_false;
  rectified_null += other.rectified_null;
  constraint_violations += other.constraint_violations;
  join_conditions_rectified += other.join_conditions_rectified;
  limited_queries += other.limited_queries;
  norec_checks += other.norec_checks;
  tlp_checks += other.tlp_checks;
  tlp_partition_queries += other.tlp_partition_queries;
  aggregate_queries += other.aggregate_queries;
  group_by_queries += other.group_by_queries;
  having_queries += other.having_queries;
  actions_insert += other.actions_insert;
  actions_update += other.actions_update;
  actions_delete += other.actions_delete;
  actions_create_index += other.actions_create_index;
  actions_drop_index += other.actions_drop_index;
  actions_maintenance += other.actions_maintenance;
  state_compares += other.state_compares;
  txn_begins += other.txn_begins;
  txn_commits += other.txn_commits;
  txn_rollbacks += other.txn_rollbacks;
  txn_conflicts += other.txn_conflicts;
  txn_snapshot_checks += other.txn_snapshot_checks;
  txn_serial_replays += other.txn_serial_replays;
  for (int i = 0; i < kDepthBuckets; ++i) {
    predicate_depth_buckets[i] += other.predicate_depth_buckets[i];
  }
  predicates_with_function += other.predicates_with_function;
  function_calls_generated += other.function_calls_generated;
}

ShardPlan ShardPlan::Build(uint64_t seed, int databases) {
  ShardPlan plan;
  plan.tasks.reserve(databases > 0 ? static_cast<size_t>(databases) : 0);
  for (int i = 0; i < databases; ++i) {
    plan.tasks.push_back(
        Task{i, Rng::StreamSeed(seed, static_cast<uint64_t>(i))});
  }
  return plan;
}

PqsRunner::PqsRunner(EngineFactory factory, RunnerOptions options)
    : factory_([f = std::move(factory)](int) { return f(); }),
      options_(options) {}

PqsRunner::PqsRunner(WorkerEngineFactory factory, RunnerOptions options)
    : factory_(std::move(factory)), options_(options) {}

RunReport PqsRunner::Run() {
  RunReport report;
  // Fail loudly on out-of-range generator options (a negative depth or a
  // probability outside [0,1] would otherwise skew generation silently).
  report.invalid_options = options_.gen.Validate();
  if (!report.invalid_options.empty()) return report;
  ShardPlan plan = ShardPlan::Build(options_.seed, options_.databases);
  size_t task_count = plan.tasks.size();
  int workers = options_.workers;
  if (workers < 1) workers = 1;
  if (static_cast<size_t>(workers) > task_count && task_count > 0) {
    workers = static_cast<int>(task_count);
  }

  if (workers <= 1) {
    // Inline path: identical to the classic sequential loop, including the
    // early exits (no database beyond a terminating one is ever run).
    for (const ShardPlan::Task& task : plan.tasks) {
      DbRunResult r = RunTask(factory_, 0, options_, task);
      if (!MergeDbResult(std::move(r), options_.stop_on_first_finding,
                         &report)) {
        break;
      }
    }
    return report;
  }

  // Sharded path: workers claim database indexes in plan order. Claiming is
  // dynamic (timing-dependent) but each database's work depends only on its
  // plan seed, so who ran it cannot change what it produced. `stop_before`
  // is the lowest index known to terminate the run; databases after it are
  // skipped as wasted work, and any that already ran are discarded by the
  // in-order merge below, which keeps the merged report byte-identical to
  // the 1-worker run.
  std::vector<DbRunResult> results(task_count);
  std::atomic<size_t> next_task{0};
  std::atomic<size_t> stop_before{task_count};
  bool stop_on_first = options_.stop_on_first_finding;

  auto worker_main = [&](int worker_index) {
    for (;;) {
      size_t i = next_task.fetch_add(1, std::memory_order_relaxed);
      if (i >= task_count) break;
      if (i > stop_before.load(std::memory_order_acquire)) break;
      results[i] = RunTask(factory_, worker_index, options_, plan.tasks[i]);
      if (TerminatesRun(results[i], stop_on_first)) {
        size_t current = stop_before.load(std::memory_order_relaxed);
        while (i < current && !stop_before.compare_exchange_weak(
                                  current, i, std::memory_order_release)) {
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) threads.emplace_back(worker_main, w);
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < task_count; ++i) {
    if (!MergeDbResult(std::move(results[i]),
                       options_.stop_on_first_finding, &report)) {
      break;
    }
  }
  return report;
}

}  // namespace pqs
