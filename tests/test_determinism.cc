// Same-seed determinism: two runs with identical options must produce
// identical reports, down to the rendered SQL of every finding — and a
// sharded N-worker run must merge to exactly the 1-worker report.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/interp/bytecode.h"
#include "src/minidb/bug_registry.h"
#include "src/minidb/database.h"
#include "src/obs/flight_recorder.h"
#include "src/pqs/campaign.h"
#include "src/pqs/runner.h"
#include "src/sqlparser/render.h"
#include "tests/test_util.h"

#ifndef PQS_SOURCE_DIR
#define PQS_SOURCE_DIR "."
#endif

namespace pqs {
namespace {

RunReport BuggyRun(uint64_t seed, int workers = 1,
                   bool stop_on_first_finding = false,
                   BugId bug = BugId::kPartialIndexIsNotInference) {
  RunnerOptions options;
  options.seed = seed;
  options.databases = 30;
  options.queries_per_database = 15;
  options.workers = workers;
  options.stop_on_first_finding = stop_on_first_finding;
  // Crank the widened query-space features so the byte-identity guarantee
  // demonstrably covers joins, DISTINCT, ORDER BY, LIMIT — and the typed
  // expression subsystem (functions, CAST, CASE, COLLATE, LIKE ESCAPE).
  options.gen.explicit_join_probability = 0.8;
  options.gen.third_table_probability = 0.6;
  options.gen.distinct_probability = 0.5;
  options.gen.order_by_probability = 0.6;
  options.gen.limit_probability = 0.6;
  options.gen.function_probability = 0.5;
  options.gen.cast_probability = 0.3;
  options.gen.case_probability = 0.25;
  options.gen.collate_probability = 0.5;
  options.gen.like_escape_probability = 0.5;
  EngineFactory factory = [bug]() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(Dialect::kSqliteFlex,
                                              BugConfig::Single(bug));
  };
  PqsRunner runner(factory, options);
  return runner.Run();
}

void TestSameSeedSameReport() {
  RunReport a = BuggyRun(123);
  RunReport b = BuggyRun(123);
  CHECK_EQ(a.stats.statements_executed, b.stats.statements_executed);
  CHECK_EQ(a.stats.queries_checked, b.stats.queries_checked);
  CHECK_EQ(a.stats.rectified_true, b.stats.rectified_true);
  CHECK_EQ(a.stats.rectified_false, b.stats.rectified_false);
  CHECK_EQ(a.stats.rectified_null, b.stats.rectified_null);
  CHECK_EQ(a.stats.constraint_violations, b.stats.constraint_violations);
  for (int i = 0; i < RunStats::kDepthBuckets; ++i) {
    CHECK_EQ(a.stats.predicate_depth_buckets[i],
             b.stats.predicate_depth_buckets[i]);
  }
  CHECK_EQ(a.stats.predicates_with_function,
           b.stats.predicates_with_function);
  CHECK_EQ(a.stats.function_calls_generated,
           b.stats.function_calls_generated);
  CHECK_EQ(a.stats.actions_insert, b.stats.actions_insert);
  CHECK_EQ(a.stats.actions_update, b.stats.actions_update);
  CHECK_EQ(a.stats.actions_delete, b.stats.actions_delete);
  CHECK_EQ(a.stats.actions_create_index, b.stats.actions_create_index);
  CHECK_EQ(a.stats.actions_drop_index, b.stats.actions_drop_index);
  CHECK_EQ(a.stats.actions_maintenance, b.stats.actions_maintenance);
  CHECK_EQ(a.stats.state_compares, b.stats.state_compares);
  CHECK_EQ(a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size() && i < b.findings.size(); ++i) {
    CHECK_EQ(RenderScript(a.findings[i].statements, Dialect::kSqliteFlex),
             RenderScript(b.findings[i].statements, Dialect::kSqliteFlex));
    CHECK(a.findings[i].oracle == b.findings[i].oracle);
  }
}

// Sharded execution is invisible in the merged report: stats, finding
// order, and rendered SQL all match the sequential run exactly, with and
// without stop_on_first_finding (where the merge truncates at the first
// finding-bearing database, just as the sequential loop returns there).
void TestShardedRunnerMatchesSequential() {
  // A scan-path bug, a join-path bug, an expression-subsystem bug, and an
  // index-maintenance bug: the sharding guarantee must hold for campaigns
  // exercising the widened query space, the typed expression grammar, and
  // the mutating statement stream alike.
  for (BugId bug : {BugId::kPartialIndexIsNotInference,
                    BugId::kJoinDupRightMatch, BugId::kLikeEscapeMiss,
                    BugId::kUpdateIndexStale}) {
    for (bool stop_on_first : {false, true}) {
      RunReport sequential = BuggyRun(123, /*workers=*/1, stop_on_first, bug);
      for (int workers : {2, 4}) {
        RunReport sharded = BuggyRun(123, workers, stop_on_first, bug);
        CHECK_EQ(sharded.stats.statements_executed,
                 sequential.stats.statements_executed);
        CHECK_EQ(sharded.stats.queries_checked,
                 sequential.stats.queries_checked);
        CHECK_EQ(sharded.stats.queries_skipped,
                 sequential.stats.queries_skipped);
        CHECK_EQ(sharded.stats.databases_created,
                 sequential.stats.databases_created);
        CHECK_EQ(sharded.stats.rectified_true,
                 sequential.stats.rectified_true);
        CHECK_EQ(sharded.stats.rectified_false,
                 sequential.stats.rectified_false);
        CHECK_EQ(sharded.stats.rectified_null,
                 sequential.stats.rectified_null);
        CHECK_EQ(sharded.stats.constraint_violations,
                 sequential.stats.constraint_violations);
        CHECK_EQ(sharded.stats.join_conditions_rectified,
                 sequential.stats.join_conditions_rectified);
        CHECK_EQ(sharded.stats.limited_queries,
                 sequential.stats.limited_queries);
        for (int i = 0; i < RunStats::kDepthBuckets; ++i) {
          CHECK_EQ(sharded.stats.predicate_depth_buckets[i],
                   sequential.stats.predicate_depth_buckets[i]);
        }
        CHECK_EQ(sharded.stats.predicates_with_function,
                 sequential.stats.predicates_with_function);
        CHECK_EQ(sharded.stats.function_calls_generated,
                 sequential.stats.function_calls_generated);
        CHECK_EQ(sharded.stats.actions_insert,
                 sequential.stats.actions_insert);
        CHECK_EQ(sharded.stats.actions_update,
                 sequential.stats.actions_update);
        CHECK_EQ(sharded.stats.actions_delete,
                 sequential.stats.actions_delete);
        CHECK_EQ(sharded.stats.actions_create_index,
                 sequential.stats.actions_create_index);
        CHECK_EQ(sharded.stats.actions_drop_index,
                 sequential.stats.actions_drop_index);
        CHECK_EQ(sharded.stats.actions_maintenance,
                 sequential.stats.actions_maintenance);
        CHECK_EQ(sharded.stats.state_compares,
                 sequential.stats.state_compares);
        CHECK_EQ(sharded.findings.size(), sequential.findings.size());
        for (size_t i = 0;
             i < sharded.findings.size() && i < sequential.findings.size();
             ++i) {
          CHECK(sharded.findings[i].oracle == sequential.findings[i].oracle);
          CHECK_EQ(RenderScript(sharded.findings[i].statements,
                                Dialect::kSqliteFlex),
                   RenderScript(sequential.findings[i].statements,
                                Dialect::kSqliteFlex));
        }
      }
    }
  }
}

// The acceptance invariant of the sharded campaign engine: a 4-worker
// RunCampaign merges to the same finding set and the same per-bug
// statement / oracle tallies as the 1-worker campaign (order-insensitive:
// finding scripts are compared as sorted multisets).
void TestShardedCampaignMatchesSequential() {
  CampaignOptions options;
  options.seed = 20200604;
  options.databases_per_bug = 120;
  options.queries_per_database = 20;
  options.reduce = true;  // reduction must be deterministic too
  // The sqlite-dialect registry now carries join/DISTINCT-path bugs, so
  // this campaign covers the widened query space; crank the feature
  // probabilities to make that coverage dense.
  options.gen.explicit_join_probability = 0.7;
  options.gen.distinct_probability = 0.4;
  options.gen.order_by_probability = 0.5;

  auto run = [&](int workers) {
    CampaignOptions o = options;
    o.workers = workers;
    return RunCampaign(Dialect::kSqliteFlex, o);
  };
  CampaignReport sequential = run(1);
  CampaignReport sharded = run(4);

  CHECK_EQ(sharded.results.size(), sequential.results.size());
  for (size_t i = 0;
       i < sharded.results.size() && i < sequential.results.size(); ++i) {
    const BugHuntResult& a = sharded.results[i];
    const BugHuntResult& b = sequential.results[i];
    CHECK_EQ(a.detected, b.detected);
    CHECK(a.oracle == b.oracle);
    CHECK_EQ(a.statements_used, b.statements_used);
    CHECK_EQ(a.databases_used, b.databases_used);
  }
  for (OracleKind kind : {OracleKind::kContainment, OracleKind::kError,
                          OracleKind::kCrash}) {
    CHECK_EQ(sharded.CountByOracle(kind), sequential.CountByOracle(kind));
  }

  auto finding_set = [](const CampaignReport& report) {
    std::vector<std::string> scripts;
    for (const BugHuntResult& r : report.results) {
      if (!r.detected) continue;
      scripts.push_back(RenderScript(r.reduced.statements, report.dialect));
    }
    std::sort(scripts.begin(), scripts.end());
    return scripts;
  };
  CHECK(finding_set(sharded) == finding_set(sequential));
}

// Serializes everything a report asserts on — the oracle-visible stats and
// every finding's rendered script — so two reports can be compared as one
// byte string.
std::string Fingerprint(const RunReport& r) {
  std::string out;
  auto num = [&out](uint64_t v) {
    out += std::to_string(v);
    out += '|';
  };
  num(r.stats.statements_executed);
  num(r.stats.queries_checked);
  num(r.stats.queries_skipped);
  num(r.stats.databases_created);
  num(r.stats.rectified_true);
  num(r.stats.rectified_false);
  num(r.stats.rectified_null);
  num(r.stats.constraint_violations);
  num(r.stats.join_conditions_rectified);
  num(r.stats.limited_queries);
  for (int i = 0; i < RunStats::kDepthBuckets; ++i) {
    num(r.stats.predicate_depth_buckets[i]);
  }
  num(r.stats.predicates_with_function);
  num(r.stats.function_calls_generated);
  num(r.stats.norec_checks);
  num(r.stats.tlp_checks);
  num(r.stats.tlp_partition_queries);
  num(r.stats.aggregate_queries);
  num(r.stats.group_by_queries);
  num(r.stats.having_queries);
  num(r.stats.actions_insert);
  num(r.stats.actions_update);
  num(r.stats.actions_delete);
  num(r.stats.actions_create_index);
  num(r.stats.actions_drop_index);
  num(r.stats.actions_maintenance);
  num(r.stats.state_compares);
  num(r.stats.txn_begins);
  num(r.stats.txn_commits);
  num(r.stats.txn_rollbacks);
  num(r.stats.txn_conflicts);
  num(r.stats.txn_snapshot_checks);
  num(r.stats.txn_serial_replays);
  num(r.findings.size());
  for (const Finding& f : r.findings) {
    num(static_cast<uint64_t>(f.oracle));
    out += RenderScript(f.statements, Dialect::kSqliteFlex);
    out += '|';
  }
  return out;
}

// The bytecode evaluator is a pure hot-path substitution: flipping the
// process-wide kill switch (tree evaluator everywhere) must leave every
// report byte-identical, for the containment family and the metamorphic
// families alike (DESIGN §11 differential safety).
void TestBytecodeOnOffSameReport() {
  for (OracleFamily family :
       {OracleFamily::kContainment, OracleFamily::kNorec, OracleFamily::kTlp}) {
    auto run = [family]() {
      RunnerOptions options;
      options.seed = 77;
      options.databases = 20;
      options.queries_per_database = 15;
      options.family = family;
      options.gen.explicit_join_probability = 0.6;
      options.gen.distinct_probability = 0.4;
      options.gen.order_by_probability = 0.5;
      options.gen.function_probability = 0.5;
      options.gen.cast_probability = 0.3;
      options.gen.case_probability = 0.25;
      EngineFactory factory = []() -> ConnectionPtr {
        return std::make_unique<minidb::Database>(
            Dialect::kSqliteFlex,
            BugConfig::Single(BugId::kPartialIndexIsNotInference));
      };
      PqsRunner runner(factory, options);
      return runner.Run();
    };
    CHECK(BytecodeEnabled());
    RunReport with_bytecode = run();
    SetBytecodeEnabled(false);
    RunReport tree_only = run();
    SetBytecodeEnabled(true);
    CHECK_EQ(Fingerprint(with_bytecode), Fingerprint(tree_only));
  }
}

// Transaction workloads (gen.txn_sessions > 1 runs the interleaved
// K-session stream and the transaction checks, DESIGN §14) obey the same
// sharding contract: an N-worker run merges byte-identically to the
// sequential one, the transaction counters included, and every finding's
// flight ring carries the transaction lifecycle events of the session
// that found it.
void TestShardedTxnWorkloadMatchesSequential() {
  auto run = [](int workers, bool stop_on_first) {
    RunnerOptions options;
    options.seed = 777;
    options.databases = 40;
    options.queries_per_database = 5;
    options.workers = workers;
    options.stop_on_first_finding = stop_on_first;
    options.gen.txn_sessions = 3;
    EngineFactory factory = []() -> ConnectionPtr {
      return std::make_unique<minidb::Database>(
          Dialect::kSqliteFlex, BugConfig::Single(BugId::kTxnLostUpdate));
    };
    PqsRunner runner(factory, options);
    return runner.Run();
  };
  for (bool stop_on_first : {false, true}) {
    RunReport sequential = run(1, stop_on_first);
    CHECK(!sequential.findings.empty());
    CHECK(sequential.stats.txn_commits > 0);
    for (const Finding& f : sequential.findings) {
      bool saw_txn_event = false;
      for (const obs::FlightEvent& e : f.flight) {
        saw_txn_event |= e.kind == obs::EventKind::kTxnBegin ||
                         e.kind == obs::EventKind::kTxnCommit ||
                         e.kind == obs::EventKind::kTxnAbort;
      }
      CHECK(saw_txn_event);
    }
    for (int workers : {2, 4}) {
      CHECK_EQ(Fingerprint(run(workers, stop_on_first)),
               Fingerprint(sequential));
    }
  }
}

// One golden line: `name <fingerprint>`, with the rendered scripts'
// newlines escaped so every entry stays on its own line.
void AddGoldenEntry(const std::string& name, const std::string& fingerprint,
                    std::string* out) {
  *out += name;
  *out += ' ';
  for (char c : fingerprint) {
    if (c == '\n') {
      *out += "\\n";
    } else {
      *out += c;
    }
  }
  *out += '\n';
}

// MiniDB behind a connection that answers kUnsupported from its k-th
// Execute onwards (counted per connection, so every database of a run
// starts afresh). `calls`, when set, receives the number of Execute calls
// made so far.
class UnsupportedFromConnection : public Connection {
 public:
  UnsupportedFromConnection(Dialect dialect, uint64_t k, uint64_t* calls)
      : inner_(dialect), k_(k), calls_(calls) {}

  StatementResult Execute(const Stmt& stmt) override {
    ++executed_;
    if (calls_ != nullptr) *calls_ = executed_;
    if (executed_ >= k_) {
      return StatementResult::Failure(StatementStatus::kUnsupported,
                                      "unsupported from call " +
                                          std::to_string(k_));
    }
    return inner_.Execute(stmt);
  }
  Dialect dialect() const override { return inner_.dialect(); }
  std::string EngineName() const override { return inner_.EngineName(); }
  bool alive() const override { return inner_.alive(); }

 private:
  minidb::Database inner_;
  uint64_t k_;
  uint64_t* calls_;
  uint64_t executed_ = 0;
};

RunnerOptions EarlyExitOptions(OracleFamily family, int txn_sessions,
                               int databases, int workers) {
  RunnerOptions options;
  options.seed = 31337;
  options.databases = databases;
  options.queries_per_database = 4;
  options.workers = workers;
  options.family = family;
  options.gen.txn_sessions = txn_sessions;
  return options;
}

// Locks every early exit of the session loop: for each oracle family and
// the K-session transaction mix, the engine turns unsupported at every
// statement of the first database in turn. The run must end there with
// `unsupported_engine` set, and the 4-worker report must equal the
// 1-worker one. A factory that fails on its third call ends the run with
// exactly the first two databases. Appends the compact per-k tallies
// (`statements_executed|queries_checked|findings;` per k) and the
// null-factory fingerprint to the golden text.
void AddEarlyExitEntries(std::string* out) {
  struct Family {
    const char* name;
    OracleFamily family;
    int txn_sessions;
  };
  const Family families[] = {
      {"containment", OracleFamily::kContainment, 1},
      {"norec", OracleFamily::kNorec, 1},
      {"tlp", OracleFamily::kTlp, 1},
      {"txn3", OracleFamily::kContainment, 3},
  };
  for (const Family& f : families) {
    uint64_t first_db_calls = 0;
    PqsRunner uninterrupted(
        [&first_db_calls]() -> ConnectionPtr {
          return std::make_unique<UnsupportedFromConnection>(
              Dialect::kSqliteFlex, UINT64_MAX, &first_db_calls);
        },
        EarlyExitOptions(f.family, f.txn_sessions, 1, 1));
    RunReport baseline = uninterrupted.Run();
    CHECK(!baseline.unsupported_engine);
    CHECK_EQ(first_db_calls, baseline.stats.statements_executed);
    CHECK(first_db_calls > 0);

    std::string line;
    for (uint64_t k = 1; k <= first_db_calls; ++k) {
      auto run = [&](int workers) {
        PqsRunner runner(
            [k]() -> ConnectionPtr {
              return std::make_unique<UnsupportedFromConnection>(
                  Dialect::kSqliteFlex, k, nullptr);
            },
            EarlyExitOptions(f.family, f.txn_sessions, 3, workers));
        return runner.Run();
      };
      RunReport sequential = run(1);
      RunReport sharded = run(4);
      CHECK_MSG(sequential.unsupported_engine, "%s k=%llu", f.name,
                static_cast<unsigned long long>(k));
      CHECK_EQ(sequential.stats.databases_created, uint64_t{1});
      CHECK_EQ(Fingerprint(sharded), Fingerprint(sequential));
      CHECK(sharded.unsupported_engine);
      line += std::to_string(sequential.stats.statements_executed) + "|" +
              std::to_string(sequential.stats.queries_checked) + "|" +
              std::to_string(sequential.findings.size()) + ";";
    }
    AddGoldenEntry(std::string("unsupported/") + f.name, line, out);
  }

  int factory_calls = 0;
  PqsRunner null_third(
      [&factory_calls]() -> ConnectionPtr {
        if (++factory_calls == 3) return nullptr;
        return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
      },
      EarlyExitOptions(OracleFamily::kContainment, 1, 5, 1));
  RunReport truncated = null_third.Run();
  CHECK_EQ(factory_calls, 3);
  CHECK_EQ(truncated.stats.databases_created, uint64_t{2});
  CHECK(!truncated.unsupported_engine);
  // The two databases it holds equal a run planned with two databases.
  PqsRunner two_databases(
      []() -> ConnectionPtr {
        return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
      },
      EarlyExitOptions(OracleFamily::kContainment, 1, 2, 1));
  CHECK_EQ(Fingerprint(truncated), Fingerprint(two_databases.Run()));
  AddGoldenEntry("nullfactory", Fingerprint(truncated), out);
}

RunReport GoldenRun(Dialect dialect, OracleFamily family, BugConfig bugs,
                    minidb::StorageOptions storage, int txn_sessions,
                    int databases = 24) {
  RunnerOptions options;
  options.seed = 4242;
  options.databases = databases;
  options.queries_per_database = 10;
  options.family = family;
  options.gen.txn_sessions = txn_sessions;
  EngineFactory factory = [dialect, bugs, storage]() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(dialect, bugs, storage);
  };
  PqsRunner runner(factory, options);
  return runner.Run();
}

// Fixed-seed reports locked in tests/golden/report_fingerprints.golden:
// clean runs per dialect and oracle family, K-session transaction runs, a
// stress-storage run, a run with each DML bug hook armed, a per-dialect
// campaign summary, and the early-exit sweep (AddEarlyExitEntries). A
// change that is meant to keep reports byte-identical must leave the file
// untouched (regenerate with PQS_UPDATE_GOLDEN=1 only for an intended
// semantic change, and explain each changed entry).
void TestReportFingerprintsGolden() {
  const Dialect dialects[] = {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                              Dialect::kPostgresStrict};
  std::string out;
  for (Dialect dialect : dialects) {
    for (OracleFamily family : {OracleFamily::kContainment,
                                OracleFamily::kNorec, OracleFamily::kTlp}) {
      AddGoldenEntry(std::string("clean/") + DialectName(dialect) + "/" +
                         OracleFamilyName(family),
                     Fingerprint(GoldenRun(dialect, family, BugConfig(),
                                           minidb::StorageOptions(), 1)),
                     &out);
    }
  }
  for (Dialect dialect : dialects) {
    AddGoldenEntry(std::string("txn3/") + DialectName(dialect),
                   Fingerprint(GoldenRun(dialect, OracleFamily::kContainment,
                                         BugConfig(), minidb::StorageOptions(),
                                         3)),
                   &out);
  }
  AddGoldenEntry("stress/sqlite",
                 Fingerprint(GoldenRun(Dialect::kSqliteFlex,
                                       OracleFamily::kContainment, BugConfig(),
                                       minidb::StorageOptions::Stress(), 1)),
                 &out);
  for (BugId bug : {BugId::kUpdateSetOrCrash, BugId::kUpdateIndexStale,
                    BugId::kPartialIndexUpdateMiss, BugId::kDeleteOverrun,
                    BugId::kIndexHeapDesync}) {
    const minidb::BugInfo& info = minidb::LookupBug(bug);
    // Containment for every hook, independent of the registry's intended
    // finder, so that a change of a bug's hunt family moves only its
    // campaign entry.
    AddGoldenEntry(std::string("bug/") + info.name,
                   Fingerprint(GoldenRun(info.dialect,
                                         OracleFamily::kContainment,
                                         BugConfig::Single(bug),
                                         minidb::StorageOptions(), 1, 160)),
                   &out);
  }
  for (Dialect dialect : dialects) {
    CampaignOptions options;
    options.seed = 20200604;
    CampaignReport report = RunCampaign(dialect, options);
    for (const BugHuntResult& r : report.results) {
      std::string summary = std::to_string(r.detected) + "|" +
                            OracleName(r.oracle) + "|" +
                            std::to_string(r.databases_used) + "|" +
                            std::to_string(r.statements_used) + "|" +
                            std::to_string(r.reduced.statements.size());
      AddGoldenEntry(std::string("campaign/") + DialectName(dialect) + "/" +
                         r.name,
                     summary, &out);
    }
  }
  AddEarlyExitEntries(&out);
  test::CheckGolden(std::string(PQS_SOURCE_DIR) +
                        "/tests/golden/report_fingerprints.golden",
                    out);
}

void TestDifferentSeedsDiffer() {
  // Not a strict requirement of the API, but a sanity check that the seed
  // actually feeds the generator.
  RunReport a = BuggyRun(1);
  RunReport b = BuggyRun(2);
  CHECK(a.stats.statements_executed != b.stats.statements_executed ||
        a.stats.rectified_true != b.stats.rectified_true);
}

}  // namespace
}  // namespace pqs

int main() {
  pqs::TestSameSeedSameReport();
  pqs::TestShardedRunnerMatchesSequential();
  pqs::TestShardedCampaignMatchesSequential();
  pqs::TestBytecodeOnOffSameReport();
  pqs::TestShardedTxnWorkloadMatchesSequential();
  pqs::TestReportFingerprintsGolden();
  pqs::TestDifferentSeedsDiffer();
  return pqs::test::Summary("test_determinism");
}
