// pqsbench: the PQS benchmark of record.
//
// One process, one thread, closed loop: every workload runs the PQS loop on
// the calling thread (RunnerOptions::workers = 1), and each statement is
// issued only after the previous one returned. A run repeats one fixed,
// seed-determined round of work for --seconds and reports medians over the
// rounds. Layers are measured from outside, through public
// surfaces only: a Connection decorator around every connection an
// EngineFactory returns (reducer replays included), the runner's
// session_latency_hook, RunReport.stats/metrics, the wall-clock phase spans
// (obs::SetPhaseWallClock, traced rounds only) and campaign results.
//
//   pqsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--commit <id>]
//
// --trace 0 reports the end-to-end metrics from untraced rounds; --trace 1
// interleaves untraced and traced rounds and reports the per-layer table.
// The last stdout line is the JSON result; the exit code is non-zero when
// a correctness check failed. See README.md for the workloads and metrics.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/bugs.h"
#include "src/engine/connection.h"
#include "src/minidb/bug_registry.h"
#include "src/minidb/database.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/pqs/campaign.h"
#include "src/pqs/oracles.h"
#include "src/pqs/reducer.h"
#include "src/pqs/runner.h"
#include "src/sqlite3db/sqlite_connection.h"

namespace pqs {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Engine probe: a Connection decorator timing the engine under test.
// ---------------------------------------------------------------------------

enum EngineKind { kSelect, kInsert, kUpdate, kDelete, kDdl, kTxn, kKinds };
constexpr const char* kKindNames[kKinds] = {"select", "insert", "update",
                                            "delete", "ddl",    "txn"};

EngineKind KindOf(StmtKind kind) {
  switch (kind) {
    case StmtKind::kSelect:
      return kSelect;
    case StmtKind::kInsert:
      return kInsert;
    case StmtKind::kUpdate:
      return kUpdate;
    case StmtKind::kDelete:
      return kDelete;
    case StmtKind::kCreateTable:
    case StmtKind::kCreateIndex:
    case StmtKind::kDropIndex:
    case StmtKind::kMaintenance:
      return kDdl;
    case StmtKind::kBegin:
    case StmtKind::kCommit:
    case StmtKind::kRollback:
    case StmtKind::kSetSession:
      return kTxn;
  }
  return kDdl;
}

struct EngineTally {
  uint64_t calls[kKinds] = {};
  double seconds[kKinds] = {};
  uint64_t rejected = 0;     // any status other than kOk
  uint64_t select_rows = 0;  // rows returned by successful SELECTs
  uint64_t opened = 0;       // connections the factory produced
  uint64_t resets = 0;       // Connection::Reset() calls
  // Engine time spent inside another phase span (span depth >= 2 at the
  // call): the metamorphic oracles issue their queries from within the
  // oracle-check span, so this is subtracted from its self time.
  double nested_seconds = 0;

  uint64_t TotalCalls() const {
    uint64_t n = 0;
    for (uint64_t c : calls) n += c;
    return n;
  }
  double TotalSeconds() const {
    double s = 0;
    for (double x : seconds) s += x;
    return s;
  }
};

class ProbedConnection : public Connection {
 public:
  ProbedConnection(ConnectionPtr inner, EngineTally* tally, bool timed)
      : inner_(std::move(inner)), tally_(tally), timed_(timed) {}

  StatementResult Execute(const Stmt& stmt) override {
    EngineKind kind = KindOf(stmt.kind());
    StatementResult r;
    if (timed_) {
      Clock::time_point start = Clock::now();
      r = inner_->Execute(stmt);
      double s = SecondsSince(start);
      tally_->seconds[kind] += s;
      obs::SessionTelemetry* t = obs::CurrentTelemetry();
      if (t != nullptr && t->span_depth >= 2) tally_->nested_seconds += s;
    } else {
      r = inner_->Execute(stmt);
    }
    ++tally_->calls[kind];
    if (!r.ok()) ++tally_->rejected;
    if (kind == kSelect && r.ok()) tally_->select_rows += r.rows.size();
    return r;
  }
  Dialect dialect() const override { return inner_->dialect(); }
  std::string EngineName() const override { return inner_->EngineName(); }
  bool alive() const override { return inner_->alive(); }
  bool Reset() override {
    ++tally_->resets;
    return inner_->Reset();
  }

 private:
  ConnectionPtr inner_;
  EngineTally* tally_;
  bool timed_;
};

// How a round is run. kPlain is the measured configuration: no decorator,
// no wall-clock spans. kCount wraps every connection with a counting-only
// decorator (the untimed warm-up round that yields the work fingerprint);
// kTraced adds decorator timing and wall-clock phase spans.
enum class Mode { kPlain, kCount, kTraced };

EngineFactory Probe(EngineFactory factory, Mode mode, EngineTally* tally) {
  if (mode == Mode::kPlain) return factory;
  bool timed = mode == Mode::kTraced;
  return [factory = std::move(factory), tally, timed]() -> ConnectionPtr {
    ConnectionPtr inner = factory();
    if (inner == nullptr) return nullptr;
    ++tally->opened;
    return std::make_unique<ProbedConnection>(std::move(inner), tally, timed);
  };
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name = "";
  bool hunt = false;    // RunCampaign-style bug hunt instead of clean fuzzing
  bool sqlite = false;  // engine under test is libsqlite3, not MiniDB
  std::vector<OracleFamily> families;  // one runner run per family per round
  int databases = 0;                   // per family per round
  int queries = 0;
  GeneratorOptions gen;
  int campaign_seeds = 0;  // hunt: campaigns (all three dialects) per round
};

// Each round holds at least 1,000 sessions so that session_p99_ms has ten
// or more sessions beyond it; hunt-minidb runs eight campaigns per round so
// that the seed's detection depths average out. bigtable-minidb skips
// setup indexes: with them, index maintenance over the 32-frame pool
// thrashes in a few sessions per hundred, and the seed alone moves a
// round's cost by up to 40%. README.md gives the reasons behind every
// workload.
std::vector<Workload> AllWorkloads() {
  const std::vector<OracleFamily> all_families = {
      OracleFamily::kContainment, OracleFamily::kNorec, OracleFamily::kTlp};
  std::vector<Workload> w(5);
  w[0].name = "fuzz-minidb";
  w[0].families = all_families;
  w[0].databases = 400;
  w[0].queries = 25;

  w[1].name = "fuzz-sqlite3";
  w[1].sqlite = true;
  w[1].families = all_families;
  w[1].databases = 340;
  w[1].queries = 25;

  w[2].name = "txn-minidb";
  w[2].families = {OracleFamily::kContainment};
  w[2].databases = 3000;
  w[2].queries = 10;
  w[2].gen.txn_sessions = 3;

  w[3].name = "bigtable-minidb";
  w[3].families = {OracleFamily::kContainment};
  w[3].databases = 1000;
  w[3].queries = 1;
  w[3].gen.max_tables = 1;
  w[3].gen.index_probability = 0;
  w[3].gen.min_rows = 2000;
  w[3].gen.max_rows = 4000;

  w[4].name = "hunt-minidb";
  w[4].hunt = true;
  w[4].campaign_seeds = 8;
  return w;
}

const Dialect kDialects[] = {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                             Dialect::kPostgresStrict};

EngineFactory CleanFactory(const Workload& w) {
  if (w.sqlite) {
    return []() -> ConnectionPtr {
      return std::make_unique<SqliteConnection>();
    };
  }
  return []() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
  };
}

// Campaign seed `j` of a hunt round; the round's seeds are a pure function
// of the workload seed.
uint64_t CampaignSeed(uint64_t seed, int j) {
  return Rng::StreamSeed(seed, static_cast<uint64_t>(j));
}

struct HuntOutcome {
  BugId bug = BugId::kPartialIndexIsNotInference;
  bool detected = false;
  OracleKind oracle = OracleKind::kContainment;
  uint64_t databases = 0;
  uint64_t statements = 0;
  uint64_t reduced_statements = 0;
  double detect_s = 0;
  double reduce_s = 0;
};

// Everything one round produced.
struct Round {
  Mode mode = Mode::kPlain;
  Clock::time_point start;
  double wall_s = 0;
  // Set-up: from the round's start to the start of its first session. Every
  // round builds its engine factory and runners afresh, so this is the
  // program's own path from nothing to the first session.
  double setup_s = -1;
  uint64_t attempted = 0;  // sessions (fuzz) or bug hunts (hunt)
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<double> session_s;  // session_latency_hook samples
  RunStats stats;
  obs::MetricsRegistry metrics;
  EngineTally engine;   // connections of runner sessions
  EngineTally reducer;  // connections opened by ReduceFinding
  std::vector<HuntOutcome> hunts;

  uint64_t Tests() const {
    return stats.queries_checked + stats.txn_snapshot_checks +
           stats.txn_serial_replays;
  }
  // The session hook: a session of `s` seconds has just ended.
  void RecordSession(double s) {
    if (setup_s < 0) {
      setup_s = std::chrono::duration<double>(Clock::now() - start).count() - s;
    }
    session_s.push_back(s);
  }
  double SessionSeconds() const {
    double s = 0;
    for (double x : session_s) s += x;
    return s;
  }
};

// Records a failed check once; repeated rounds report the same problems.
void AddProblem(std::vector<std::string>* problems, std::string message) {
  if (std::find(problems->begin(), problems->end(), message) ==
      problems->end()) {
    problems->push_back(std::move(message));
  }
}

void RunFuzzRound(const Workload& w, uint64_t seed, Round* out) {
  out->session_s.reserve(w.families.size() * static_cast<size_t>(w.databases));
  out->start = Clock::now();
  EngineFactory factory = Probe(CleanFactory(w), out->mode, &out->engine);
  for (size_t i = 0; i < w.families.size(); ++i) {
    RunnerOptions ro;
    ro.seed = Rng::StreamSeed(seed, i);
    ro.databases = w.databases;
    ro.queries_per_database = w.queries;
    ro.family = w.families[i];
    ro.workers = 1;
    ro.gen = w.gen;
    ro.session_latency_hook = [out](int, double s) { out->RecordSession(s); };
    RunReport report = PqsRunner(factory, ro).Run();
    uint64_t planned = static_cast<uint64_t>(w.databases);
    out->attempted += planned;
    const char* family = OracleFamilyName(w.families[i]);
    if (report.unsupported_engine || !report.invalid_options.empty()) {
      out->failed += planned;
      AddProblem(&out->problems,
                 std::string(family) + ": " +
                     (report.unsupported_engine
                          ? "engine unsupported (stub sqlite3 build?)"
                          : "invalid options: " + report.invalid_options));
    } else if (!report.findings.empty()) {
      out->failed += std::min<uint64_t>(report.findings.size(), planned);
      AddProblem(&out->problems, std::string(family) +
                                     ": finding on a clean engine: " +
                                     report.findings.front().message);
    }
    out->stats.Merge(report.stats);
    out->metrics.Merge(report.metrics);
  }
  out->wall_s = SecondsSince(out->start);
}

// Mirror of HuntBug (src/pqs/campaign.cc) with its engine factories
// exposed, so the decorator sees the hunt's and the reducer's connections,
// the session hook times every database, and detection and reduction are
// timed apart. VerifyHuntMirror() holds it to RunCampaign's results.
void HuntOne(const minidb::BugInfo& info, const CampaignOptions& co,
             Round* out) {
  Dialect dialect = info.dialect;
  BugId bug = info.id;
  EngineFactory make_buggy = [dialect, bug]() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(dialect, BugConfig::Single(bug));
  };
  EngineFactory make_reference = [dialect]() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(dialect);
  };

  RunnerOptions ro;
  ro.seed = Rng::StreamSeed(co.seed, static_cast<uint64_t>(bug));
  ro.databases = co.databases_per_bug;
  ro.queries_per_database = co.queries_per_database;
  ro.stop_on_first_finding = true;
  ro.workers = 1;
  ro.family = FamilyForOracle(info.oracle);
  ro.gen = co.gen;
  if (IsTxnBug(bug) && ro.gen.txn_sessions <= 1) ro.gen.txn_sessions = 3;
  ro.session_latency_hook = [out](int, double s) { out->RecordSession(s); };

  HuntOutcome h;
  h.bug = bug;
  Clock::time_point start = Clock::now();
  RunReport report =
      PqsRunner(Probe(make_buggy, out->mode, &out->engine), ro).Run();
  h.detect_s = SecondsSince(start);
  h.databases = report.stats.databases_created;
  h.statements = report.stats.statements_executed;
  out->stats.Merge(report.stats);
  out->metrics.Merge(report.metrics);
  if (!report.findings.empty()) {
    h.detected = true;
    h.oracle = report.findings.front().oracle;
    EngineFactory buggy = Probe(make_buggy, out->mode, &out->reducer);
    EngineFactory reference =
        Probe(make_reference, out->mode, &out->reducer);
    start = Clock::now();
    Finding reduced =
        ReduceFinding(buggy, report.findings.front(), &reference);
    h.reduce_s = SecondsSince(start);
    h.reduced_statements = reduced.statements.size();
  }
  ++out->attempted;
  if (!h.detected) {
    ++out->failed;
    AddProblem(&out->problems,
               std::string("bug not detected within budget: ") + info.name);
  }
  out->hunts.push_back(h);
}

void RunHuntRound(const Workload& w, uint64_t seed, Round* out) {
  out->session_s.reserve(8192);
  out->start = Clock::now();
  for (int j = 0; j < w.campaign_seeds; ++j) {
    CampaignOptions co;
    co.seed = CampaignSeed(seed, j);
    for (Dialect d : kDialects) {
      for (const minidb::BugInfo& info : minidb::BugsForDialect(d)) {
        HuntOne(info, co, out);
      }
    }
  }
  out->wall_s = SecondsSince(out->start);
}

Round RunRound(const Workload& w, uint64_t seed, Mode mode) {
  obs::SetPhaseWallClock(mode == Mode::kTraced);
  Round round;
  round.mode = mode;
  if (w.hunt) {
    RunHuntRound(w, seed, &round);
  } else {
    RunFuzzRound(w, seed, &round);
  }
  obs::SetPhaseWallClock(false);
  return round;
}

// The hunt mirror must reproduce RunCampaign bug for bug: same detection,
// firing oracle, budget used and reduced test case.
void VerifyHuntMirror(const Workload& w, uint64_t seed, const Round& mirror,
                      std::vector<std::string>* problems) {
  size_t k = 0;
  for (int j = 0; j < w.campaign_seeds; ++j) {
    CampaignOptions co;
    co.seed = CampaignSeed(seed, j);
    for (Dialect d : kDialects) {
      for (const BugHuntResult& r : RunCampaign(d, co).results) {
        if (k >= mirror.hunts.size()) {
          AddProblem(problems, "hunt mirror ran fewer hunts than RunCampaign");
          return;
        }
        const HuntOutcome& h = mirror.hunts[k++];
        bool same = h.bug == r.bug && h.detected == r.detected &&
                    h.databases == r.databases_used &&
                    h.statements == r.statements_used &&
                    (!r.detected ||
                     (h.oracle == r.oracle &&
                      h.reduced_statements == r.reduced.statements.size()));
        if (!same) {
          AddProblem(problems, std::string("hunt mirror diverged from ") +
                                   "RunCampaign on bug " + r.name);
          return;
        }
      }
    }
  }
  if (k != mirror.hunts.size()) {
    AddProblem(problems, "hunt mirror ran more hunts than RunCampaign");
  }
}

// ---------------------------------------------------------------------------
// Work fingerprint: exact counts that a pure performance change must not
// move. The program-reported part is compared across every round of a run;
// the decorator part across every decorated round.
// ---------------------------------------------------------------------------

using Fields = std::vector<std::pair<std::string, uint64_t>>;

Fields ProgramFingerprint(const Round& r) {
  uint64_t detected = 0, reduced = 0;
  for (const HuntOutcome& h : r.hunts) {
    detected += h.detected ? 1 : 0;
    reduced += h.reduced_statements;
  }
  using obs::Counter;
  return {
      {"attempted", r.attempted},
      {"databases", r.stats.databases_created},
      {"statements", r.stats.statements_executed},
      {"tests", r.Tests()},
      {"rejections", r.metrics.counter(Counter::kStatementErrors)},
      {"pool_misses", r.metrics.counter(Counter::kPoolMisses)},
      {"cache_hits", r.metrics.counter(Counter::kStmtCacheHits)},
      {"rectified_true", r.stats.rectified_true},
      {"rectified_false", r.stats.rectified_false},
      {"rectified_null", r.stats.rectified_null},
      {"bugs_detected", detected},
      {"reduced_statements", reduced},
  };
}

Fields EngineFingerprint(const Round& r) {
  Fields f;
  for (int k = 0; k < kKinds; ++k) {
    f.emplace_back(std::string("engine.") + kKindNames[k],
                   r.engine.calls[k] + r.reducer.calls[k]);
  }
  f.emplace_back("engine.rejected", r.engine.rejected + r.reducer.rejected);
  f.emplace_back("reducer.replays", r.reducer.opened + r.reducer.resets);
  return f;
}

std::string FieldsJson(const Fields& fields) {
  obs::JsonBuilder b;
  b.BeginObject();
  for (const auto& [key, value] : fields) b.Field(key, value);
  b.EndObject();
  return b.TakeString();
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sorted sample: element ceil(p/100 * n),
// computed in integers.
double Percentile(const std::vector<double>& sorted, size_t percent) {
  if (sorted.empty()) return 0;
  size_t rank = (percent * sorted.size() + 99) / 100;
  return sorted[std::max<size_t>(rank, 1) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  // Listed in BENCHMARK.json and so part of the JSON result. The others
  // measure layers that only txn-minidb and hunt-minidb reach; those
  // workloads are not listed there while they fail their correctness
  // gate (README.md, "Known failures"), and the table still prints them.
  bool listed = true;
};

// Listed metrics are kept in the order and with the units of BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"stmts_per_s", "1/s"},     {"tests_per_s", "1/s"},
    {"session_p50_ms", "ms"},   {"session_p99_ms", "ms"},
    {"peak_rss_mb", "MB"},      {"setup_s", "s"},
};

const MetricDef kPerLayer[] = {
    {"engine.select.calls", "count"},
    {"engine.select.us_per_call", "us"},
    {"engine.insert.calls", "count"},
    {"engine.insert.us_per_call", "us"},
    {"engine.update.calls", "count"},
    {"engine.update.us_per_call", "us"},
    {"engine.delete.calls", "count"},
    {"engine.delete.us_per_call", "us"},
    {"engine.ddl.calls", "count"},
    {"engine.ddl.us_per_call", "us"},
    {"engine.txn.calls", "count", false},
    {"engine.txn.us_per_call", "us", false},
    {"engine.rows_per_select", "rows"},
    {"engine.rejected_share", "ratio"},
    {"minidb.pool.hit_rate", "ratio"},
    {"minidb.pool.evictions", "count"},
    {"minidb.pool.evictions_per_stmt", "1/stmt"},
    {"minidb.pool.writebacks_per_stmt", "1/stmt"},
    {"minidb.cache_invalidations_per_stmt", "1/stmt"},
    {"minidb.txn.commits", "count", false},
    {"minidb.txn.commit_share", "ratio", false},
    {"minidb.txn.conflict_share", "ratio", false},
    {"sqlite3db.stmt_cache.lookups", "count"},
    {"sqlite3db.stmt_cache.hit_rate", "ratio"},
    {"sqlparser.render.us_per_stmt", "us"},
    {"pqs.generate.self_us_per_test", "us"},
    {"sqlexpr.rectify.self_us_per_test", "us"},
    {"pqs.ground_truth.self_us_per_stmt", "us"},
    {"sqlmeta.oracle_check.self_us_per_test", "us"},
    {"pqs.stmts_per_test", "stmts"},
    {"pqs.unattributed_share", "ratio"},
    {"pqs.reduce.replays", "count", false},
    {"pqs.reduce.ms_per_finding", "ms", false},
    {"pqs.reduce.replays_per_finding", "count", false},
    {"campaign.detect_dbs_mean", "dbs", false},
    {"campaign.hunt_s", "s", false},
    {"campaign.detect_ms_p50", "ms", false},
    {"campaign.reduced_stmts_mean", "stmts", false},
    {"obs.trace_overhead", "ratio"},
};

using Values = std::map<std::string, double>;

double PhaseUs(const Round& r, obs::Phase p) {
  return static_cast<double>(r.metrics.phase_wall_micros(p).sum());
}

// Per-layer values of one traced round.
Values LayerValues(const Round& r) {
  using obs::Counter;
  Values v;
  double stmts = static_cast<double>(r.stats.statements_executed);
  double tests = static_cast<double>(r.Tests());
  uint64_t total_calls = r.engine.TotalCalls() + r.reducer.TotalCalls();
  for (int k = 0; k < kKinds; ++k) {
    uint64_t calls = r.engine.calls[k] + r.reducer.calls[k];
    double secs = r.engine.seconds[k] + r.reducer.seconds[k];
    std::string prefix = std::string("engine.") + kKindNames[k];
    v[prefix + ".calls"] = static_cast<double>(calls);
    v[prefix + ".us_per_call"] = Ratio(secs * 1e6, static_cast<double>(calls));
  }
  v["engine.rows_per_select"] =
      Ratio(static_cast<double>(r.engine.select_rows + r.reducer.select_rows),
            static_cast<double>(r.engine.calls[kSelect] +
                                r.reducer.calls[kSelect]));
  v["engine.rejected_share"] =
      Ratio(static_cast<double>(r.engine.rejected + r.reducer.rejected),
            static_cast<double>(total_calls));

  auto counter = [&](Counter c) {
    return static_cast<double>(r.metrics.counter(c));
  };
  v["minidb.pool.hit_rate"] =
      Ratio(counter(Counter::kPoolHits),
            counter(Counter::kPoolHits) + counter(Counter::kPoolMisses));
  v["minidb.pool.evictions"] = counter(Counter::kPoolEvictions);
  v["minidb.pool.evictions_per_stmt"] =
      Ratio(counter(Counter::kPoolEvictions), stmts);
  v["minidb.pool.writebacks_per_stmt"] =
      Ratio(counter(Counter::kPoolWritebacks), stmts);
  v["minidb.cache_invalidations_per_stmt"] =
      Ratio(counter(Counter::kCacheInvalidations), stmts);
  double begins = static_cast<double>(r.stats.txn_begins);
  v["minidb.txn.commits"] = static_cast<double>(r.stats.txn_commits);
  v["minidb.txn.commit_share"] =
      Ratio(static_cast<double>(r.stats.txn_commits), begins);
  v["minidb.txn.conflict_share"] =
      Ratio(static_cast<double>(r.stats.txn_conflicts), begins);
  double lookups =
      counter(Counter::kStmtCacheHits) + counter(Counter::kStmtCacheMisses);
  v["sqlite3db.stmt_cache.lookups"] = lookups;
  v["sqlite3db.stmt_cache.hit_rate"] =
      Ratio(counter(Counter::kStmtCacheHits), lookups);
  const obs::Histogram& render =
      r.metrics.phase_wall_micros(obs::Phase::kRender);
  v["sqlparser.render.us_per_stmt"] =
      Ratio(static_cast<double>(render.sum()),
            static_cast<double>(render.count()));

  // Self times: the runner's phase spans do not nest except engine
  // statements issued from inside the oracle-check span (NoREC/TLP) and
  // the render span inside the sqlite3 adapter's Execute, which the
  // decorator's engine time already covers.
  double engine_us = r.engine.TotalSeconds() * 1e6;
  double generate_us = PhaseUs(r, obs::Phase::kGenerate);
  double rectify_us = PhaseUs(r, obs::Phase::kRectify);
  double truth_us = PhaseUs(r, obs::Phase::kGroundTruthReplay);
  double oracle_us = PhaseUs(r, obs::Phase::kOracleCheck) -
                     r.engine.nested_seconds * 1e6;
  v["pqs.generate.self_us_per_test"] = Ratio(generate_us, tests);
  v["sqlexpr.rectify.self_us_per_test"] = Ratio(rectify_us, tests);
  v["pqs.ground_truth.self_us_per_stmt"] = Ratio(truth_us, stmts);
  v["sqlmeta.oracle_check.self_us_per_test"] = Ratio(oracle_us, tests);
  v["pqs.stmts_per_test"] = Ratio(stmts, tests);
  double session_us = r.SessionSeconds() * 1e6;
  v["pqs.unattributed_share"] =
      Ratio(session_us - engine_us - generate_us - rectify_us - truth_us -
                oracle_us,
            session_us);

  double findings = 0, reduce_s = 0;
  for (const HuntOutcome& h : r.hunts) {
    findings += h.detected ? 1 : 0;
    reduce_s += h.reduce_s;
  }
  double replays = static_cast<double>(r.reducer.opened + r.reducer.resets);
  v["pqs.reduce.replays"] = replays;
  v["pqs.reduce.ms_per_finding"] = Ratio(reduce_s * 1e3, findings);
  v["pqs.reduce.replays_per_finding"] = Ratio(replays, findings);
  return v;
}

// Campaign metrics over untraced hunt rounds (all zero for fuzz workloads).
Values CampaignValues(const Workload& w, const std::vector<Round>& plain) {
  Values v;
  if (!w.hunt || plain.empty()) return v;
  const Round& first = plain.front();
  double hunts = static_cast<double>(first.hunts.size());
  double dbs = 0, detected = 0, reduced = 0;
  for (const HuntOutcome& h : first.hunts) {
    dbs += static_cast<double>(h.databases);
    detected += h.detected ? 1 : 0;
    reduced += static_cast<double>(h.reduced_statements);
  }
  std::vector<double> walls, detect_ms;
  for (const Round& r : plain) walls.push_back(r.wall_s);
  // Per (bug, seed) pair: median over rounds, then median over pairs.
  for (size_t i = 0; i < first.hunts.size(); ++i) {
    if (!first.hunts[i].detected) continue;
    std::vector<double> per_round;
    for (const Round& r : plain) per_round.push_back(r.hunts[i].detect_s);
    detect_ms.push_back(Median(per_round) * 1e3);
  }
  v["campaign.detect_dbs_mean"] = Ratio(dbs, hunts);
  v["campaign.hunt_s"] = Median(walls) / w.campaign_seeds;
  v["campaign.detect_ms_p50"] = Median(detect_ms);
  v["campaign.reduced_stmts_mean"] = Ratio(reduced, detected);
  return v;
}

// ---------------------------------------------------------------------------
// Environment stamp.
// ---------------------------------------------------------------------------

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  if (!(in >> a >> b >> c)) return "unknown";
  return Number(a) + " " + Number(b) + " " + Number(c);
}

// Peak resident set of this process image (VmHWM). Unlike ru_maxrss it
// does not carry over the high-water mark of the image that exec'd us.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      args->workload = value;
    } else if (a == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (a == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (a == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (a == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

constexpr int kMinRounds = 3;

void PrintMetric(const char* name, double value, const char* unit,
                 const std::string& note) {
  std::printf("  %-40s %16s %-6s %s\n", name, Number(value).c_str(), unit,
              note.c_str());
}

int Main(int argc, char** argv) {
  Clock::time_point main_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pqsbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>]\n");
    return 2;
  }
  const Workload* found = nullptr;
  std::vector<Workload> workloads = AllWorkloads();
  for (const Workload& w : workloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "pqsbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;

  std::string load_before = LoadAverage();
  std::vector<std::string> problems;

  // Warm-up round: fills caches and lazy set-up, and fixes the fingerprint.
  // The peak resident set is read after it, before the measured rounds
  // pile up the benchmark's own samples.
  Round warm = RunRound(w, args.seed, Mode::kCount);
  double first_setup_s =
      std::chrono::duration<double>(warm.start - main_start).count() +
      warm.setup_s;
  double peak_rss_mb = PeakRssMb();
  Fields program_fp = ProgramFingerprint(warm);
  Fields engine_fp = EngineFingerprint(warm);

  // Rounds run while the next one, taking as long as the last, still ends
  // within --seconds, and at least kMinRounds times.
  std::vector<Round> plain, traced;
  Clock::time_point start = Clock::now();
  double last_wall_s = warm.wall_s;
  for (int i = 0;; ++i) {
    bool enough = SecondsSince(start) + last_wall_s > args.seconds &&
                  static_cast<int>(plain.size()) >= kMinRounds &&
                  (args.trace == 0 ||
                   static_cast<int>(traced.size()) >= kMinRounds);
    if (enough) break;
    Mode mode = args.trace == 1 && i % 2 == 1 ? Mode::kTraced : Mode::kPlain;
    Round r = RunRound(w, args.seed, mode);
    last_wall_s = r.wall_s;
    if (ProgramFingerprint(r) != program_fp) {
      AddProblem(&problems, "work fingerprint differs between rounds");
    }
    if (mode == Mode::kTraced && EngineFingerprint(r) != engine_fp) {
      AddProblem(&problems, "engine fingerprint differs between rounds");
    }
    (mode == Mode::kTraced ? traced : plain).push_back(std::move(r));
  }
  if (w.hunt) VerifyHuntMirror(w, args.seed, warm, &problems);

  // The decorator must see exactly the statements the runner reports.
  if (warm.engine.TotalCalls() != warm.stats.statements_executed) {
    AddProblem(&problems, "decorator calls " +
                              std::to_string(warm.engine.TotalCalls()) +
                              " != runner statements " +
                              std::to_string(warm.stats.statements_executed));
  }

  uint64_t attempted = 0, failed = 0;
  for (const std::vector<Round>* set : {&plain, &traced}) {
    for (const Round& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      for (const std::string& p : r.problems) AddProblem(&problems, p);
    }
  }
  bool correct = problems.empty() && failed == 0;

  // End-to-end values, from untraced rounds only. Session percentiles are
  // taken per round and then medianed, like round times, so one round hit
  // by a burst of host noise cannot move the tail.
  Values e2e;
  std::vector<double> walls, setups, p50, p99;
  for (const Round& r : plain) {
    walls.push_back(r.wall_s);
    setups.push_back(r.setup_s);
    std::vector<double> sorted = r.session_s;
    std::sort(sorted.begin(), sorted.end());
    p50.push_back(Percentile(sorted, 50));
    p99.push_back(Percentile(sorted, 99));
  }
  double wall = Median(walls);
  e2e["stmts_per_s"] =
      Ratio(static_cast<double>(warm.stats.statements_executed), wall);
  e2e["tests_per_s"] = Ratio(static_cast<double>(warm.Tests()), wall);
  e2e["session_p50_ms"] = Median(p50) * 1e3;
  e2e["session_p99_ms"] = Median(p99) * 1e3;
  e2e["peak_rss_mb"] = peak_rss_mb;
  e2e["setup_s"] = Median(setups);

  Values layer;
  if (!traced.empty()) {
    std::map<std::string, std::vector<double>> samples;
    for (const Round& r : traced) {
      for (const auto& [k, x] : LayerValues(r)) samples[k].push_back(x);
    }
    for (auto& [k, xs] : samples) layer[k] = Median(xs);
    std::vector<double> traced_walls;
    for (const Round& r : traced) traced_walls.push_back(r.wall_s);
    layer["obs.trace_overhead"] = Ratio(Median(traced_walls), wall);
  }
  Values campaign = CampaignValues(w, plain);
  for (const auto& [k, x] : campaign) layer[k] = x;

  // ---- Report. ----------------------------------------------------------
  {
    obs::JsonBuilder env;
    env.BeginObject();
    env.Field("workload", std::string(w.name));
    env.Field("seed", args.seed);
    env.Field("seconds", Number(args.seconds));
    env.Field("trace", args.trace);
    env.Field("commit", args.commit);
    env.Field("nproc",
              static_cast<uint64_t>(std::thread::hardware_concurrency()));
    env.Field("compiler", std::string(PQSBENCH_COMPILER));
    env.Field("build_type", std::string(PQSBENCH_BUILD_TYPE));
    env.Field("lto", std::string(PQSBENCH_LTO));
    env.Field("sqlite3", SqliteConnection::LibraryVersion());
    env.Field("loadavg_before", load_before);
    env.Field("loadavg_after", LoadAverage());
    env.EndObject();
    std::printf("env %s\n", env.str().c_str());
  }
  std::printf("fingerprint %s engine %s\n", FieldsJson(program_fp).c_str(),
              FieldsJson(engine_fp).c_str());

  std::printf("%s seed=%llu rounds: %zu untraced (median %s s), %zu traced\n",
              w.name, static_cast<unsigned long long>(args.seed),
              plain.size(), Number(wall).c_str(), traced.size());
  std::printf(" end-to-end (untraced)\n");
  std::string sessions = "n=" + std::to_string(warm.session_s.size()) +
                         " sessions per round, median of " +
                         std::to_string(plain.size()) + " rounds";
  for (const MetricDef& m : kEndToEnd) {
    std::string note;
    if (std::strncmp(m.name, "session_", 8) == 0) note = sessions;
    if (std::strcmp(m.name, "setup_s") == 0) {
      note = "median of " + std::to_string(setups.size()) +
             " rounds; first, from main(): " + Number(first_setup_s) + " s";
    }
    PrintMetric(m.name, e2e[m.name], m.unit, note);
  }
  PrintMetric("failed_share", Ratio(static_cast<double>(failed),
                                    static_cast<double>(attempted)),
              "ratio",
              std::to_string(failed) + "/" + std::to_string(attempted));
  for (const MetricDef& m : kPerLayer) {
    if (campaign.count(m.name) != 0) {
      PrintMetric(m.name, campaign[m.name], m.unit, "untraced");
    }
  }
  if (args.trace == 1) {
    std::printf(" per-layer (traced)\n");
    for (const MetricDef& m : kPerLayer) {
      PrintMetric(m.name, layer[m.name], m.unit, "");
    }
  }
  for (const std::string& p : problems) {
    std::printf("PROBLEM: %s\n", p.c_str());
  }

  obs::JsonBuilder result;
  result.BeginObject();
  result.Field("correct", correct);
  result.Field("attempted", attempted);
  result.Field("failed", failed);
  result.BeginObject("metrics");
  auto emit = [&](const MetricDef& m, double value) {
    result.BeginObject(m.name);
    result.RawField("value", Number(value));
    result.Field("unit", std::string(m.unit));
    result.EndObject();
  };
  if (args.trace == 0) {
    for (const MetricDef& m : kEndToEnd) emit(m, e2e[m.name]);
  } else {
    for (const MetricDef& m : kPerLayer) {
      if (m.listed) emit(m, layer[m.name]);
    }
  }
  result.EndObject();
  result.EndObject();
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) { return pqs::Main(argc, argv); }
