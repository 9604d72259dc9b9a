// Telemetry subsystem: JSON serializer units, exact-bucket histogram merge
// identity (the property that makes N-worker metric output byte-identical
// to 1-worker), flight-recorder ring wraparound, phase-span nesting under
// the logical clock, the runner's statement count against the engine calls
// a decorator sees, and end-to-end checks that runner/campaign findings
// carry a non-empty flight-recorder dump whose merged metrics are
// worker-count-invariant.
//
// Accepts `--workers N` (the CI ThreadSanitizer job passes 4); every
// property is worker-count-invariant.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/minidb/database.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/pqs/campaign.h"
#include "src/pqs/runner.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

int property_workers = 4;

// ---------------------------------------------------------------------------
// JSON serializer
// ---------------------------------------------------------------------------

void TestJsonBuilder() {
  CHECK_EQ(obs::JsonEscape("plain"), std::string("plain"));
  CHECK_EQ(obs::JsonEscape("a\"b\\c\nd"), std::string("a\\\"b\\\\c\\nd"));
  CHECK_EQ(obs::JsonEscape(std::string(1, '\x01')), std::string("\\u0001"));
  CHECK_EQ(obs::JsonNumber(1.25, 2), std::string("1.25"));
  CHECK_EQ(obs::JsonNumber(0.0 / 0.0, 2), std::string("0.00"));

  obs::JsonBuilder jb;
  jb.BeginObject();
  jb.Field("n", static_cast<uint64_t>(7));
  jb.Field("s", std::string("a\"b"));
  jb.Field("f", 2.5, 1);
  jb.Field("b", true);
  jb.BeginArray("arr");
  jb.Element(static_cast<uint64_t>(1));
  jb.Element(static_cast<uint64_t>(2));
  jb.EndArray();
  jb.BeginObject("o");
  jb.EndObject();
  jb.EndObject();
  CHECK_EQ(jb.str(),
           std::string("{\"n\": 7, \"s\": \"a\\\"b\", \"f\": 2.5, "
                       "\"b\": true, \"arr\": [1, 2], \"o\": {}}"));
}

// ---------------------------------------------------------------------------
// Histogram / registry merge identity
// ---------------------------------------------------------------------------

void TestHistogramExactBucketMerge() {
  // Exact buckets: splitting a value stream across N histograms and
  // merging equals recording it all into one — byte-level, via ToJson.
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 500; ++i) values.push_back((i * 37) % 4096);
  values.push_back(0);
  values.push_back(1u << 20);  // clamps to the open-ended last bucket

  obs::MetricsRegistry single;
  for (uint64_t v : values) single.RecordPhaseTicks(obs::Phase::kGenerate, v);

  constexpr int kShards = 4;
  obs::MetricsRegistry shards[kShards];
  for (size_t i = 0; i < values.size(); ++i) {
    shards[i % kShards].RecordPhaseTicks(obs::Phase::kGenerate, values[i]);
  }
  obs::MetricsRegistry merged;
  for (int s = 0; s < kShards; ++s) merged.Merge(shards[s]);

  CHECK_EQ(merged.ToJson(false), single.ToJson(false));
  const obs::Histogram& h = merged.phase_ticks(obs::Phase::kGenerate);
  CHECK_EQ(h.count(), static_cast<uint64_t>(values.size()));
  CHECK_EQ(h.max(), static_cast<uint64_t>(1u << 20));
  CHECK(h.bucket(0) > 0);  // the explicit zero landed in bucket 0

  // Counters add, gauges take the max.
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.Count(obs::Counter::kPoolHits, 3);
  b.Count(obs::Counter::kPoolHits, 4);
  a.GaugeMax(obs::Gauge::kMaxSpanDepth, 2);
  b.GaugeMax(obs::Gauge::kMaxSpanDepth, 5);
  a.Merge(b);
  CHECK_EQ(a.counter(obs::Counter::kPoolHits), static_cast<uint64_t>(7));
  CHECK_EQ(a.gauge(obs::Gauge::kMaxSpanDepth), static_cast<uint64_t>(5));

  // Wall-clock histograms appear only under include_wall.
  CHECK(single.ToJson(false).find("phase_wall_micros") == std::string::npos);
  CHECK(single.ToJson(true).find("phase_wall_micros") != std::string::npos);
  CHECK(single.ToJson(false).find("phase_profile") != std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder ring
// ---------------------------------------------------------------------------

void TestRingWraparound() {
  obs::FlightRecorder ring(8);
  CHECK_EQ(ring.capacity(), static_cast<size_t>(8));
  for (uint32_t i = 1; i <= 20; ++i) {
    ring.Emit(i, obs::EventKind::kStatement, i, 0);
  }
  CHECK_EQ(ring.total_emitted(), static_cast<uint64_t>(20));
  std::vector<obs::FlightEvent> dump = ring.Dump();
  CHECK_EQ(dump.size(), static_cast<size_t>(8));
  // Oldest-first: events 13..20 survive, in emission order.
  for (size_t i = 0; i < dump.size(); ++i) {
    CHECK_EQ(dump[i].tick, static_cast<uint64_t>(13 + i));
    CHECK_EQ(dump[i].a, static_cast<uint32_t>(13 + i));
  }
  // A short ring dumps exactly what was emitted.
  obs::FlightRecorder small(8);
  small.Emit(1, obs::EventKind::kEviction, 2, 3);
  std::vector<obs::FlightEvent> one = small.Dump();
  CHECK_EQ(one.size(), static_cast<size_t>(1));
  CHECK(one[0].kind == obs::EventKind::kEviction);
  CHECK_EQ(obs::FormatFlightEvent(one[0]), std::string("t=1 evict a=2 b=3"));
}

// ---------------------------------------------------------------------------
// Span nesting under the logical clock
// ---------------------------------------------------------------------------

void TestSpanNestingLogicalClock() {
  obs::SessionTelemetry session;
  {
    obs::ScopedSessionTelemetry install(&session);
    obs::ScopedPhase outer(obs::Phase::kOracleCheck);
    {
      obs::ScopedPhase inner(obs::Phase::kEngineExecute);
      obs::CountStatement(0, false);
      obs::CountStatement(0, true);
    }
    obs::CountStatement(0, false);
  }
  // Logical clock advanced once per statement; spans recorded tick deltas.
  CHECK_EQ(session.clock, static_cast<uint64_t>(3));
  CHECK_EQ(session.metrics.counter(obs::Counter::kStatementErrors),
           static_cast<uint64_t>(1));
  CHECK_EQ(session.metrics.gauge(obs::Gauge::kMaxSpanDepth),
           static_cast<uint64_t>(2));
  const obs::Histogram& inner_h =
      session.metrics.phase_ticks(obs::Phase::kEngineExecute);
  CHECK_EQ(inner_h.count(), static_cast<uint64_t>(1));
  CHECK_EQ(inner_h.sum(), static_cast<uint64_t>(2));  // two stmts inside
  const obs::Histogram& outer_h =
      session.metrics.phase_ticks(obs::Phase::kOracleCheck);
  CHECK_EQ(outer_h.count(), static_cast<uint64_t>(1));
  CHECK_EQ(outer_h.sum(), static_cast<uint64_t>(3));  // all three stmts

  // Ring order: begin(outer), begin(inner), stmt, stmt, end(inner), stmt,
  // end(outer) — phase begin/end events bracket correctly.
  std::vector<obs::FlightEvent> dump = session.recorder.Dump();
  CHECK_EQ(dump.size(), static_cast<size_t>(7));
  CHECK(dump[0].kind == obs::EventKind::kPhaseBegin);
  CHECK_EQ(dump[0].a, static_cast<uint32_t>(obs::Phase::kOracleCheck));
  CHECK_EQ(dump[0].b, static_cast<uint32_t>(1));  // depth 1
  CHECK(dump[1].kind == obs::EventKind::kPhaseBegin);
  CHECK_EQ(dump[1].b, static_cast<uint32_t>(2));  // depth 2
  CHECK(dump[2].kind == obs::EventKind::kStatement);
  CHECK(dump[4].kind == obs::EventKind::kPhaseEnd);
  CHECK_EQ(dump[4].a, static_cast<uint32_t>(obs::Phase::kEngineExecute));
  CHECK_EQ(dump[4].b, static_cast<uint32_t>(2));  // tick delta
  CHECK(dump[6].kind == obs::EventKind::kPhaseEnd);
  CHECK_EQ(dump[6].a, static_cast<uint32_t>(obs::Phase::kOracleCheck));
  // Spans closed cleanly.
  CHECK_EQ(session.span_depth, static_cast<uint32_t>(0));
}

// ---------------------------------------------------------------------------
// Statement count: RunStats::statements_executed vs the engine's calls
// ---------------------------------------------------------------------------

// MiniDB behind a decorator that counts every Execute the engine receives,
// summed over all connections of a run (workers share the counter).
class CountingConnection : public Connection {
 public:
  CountingConnection(BugConfig bugs, std::atomic<uint64_t>* calls)
      : inner_(Dialect::kSqliteFlex, bugs), calls_(calls) {}

  StatementResult Execute(const Stmt& stmt) override {
    calls_->fetch_add(1, std::memory_order_relaxed);
    return inner_.Execute(stmt);
  }
  Dialect dialect() const override { return inner_.dialect(); }
  std::string EngineName() const override { return inner_.EngineName(); }
  bool alive() const override { return inner_.alive(); }

 private:
  minidb::Database inner_;
  std::atomic<uint64_t>* calls_;
};

// The runner reports exactly the statements the engine received, for every
// check unit (containment, NoREC, TLP, the K-session transaction checks),
// on clean engines and on sessions that end early in a finding.
void TestStatementCountMatchesEngineCalls() {
  struct Config {
    OracleFamily family;
    int txn_sessions;
    BugId bug;
  };
  const Config configs[] = {
      {OracleFamily::kContainment, 1, BugId::kPartialIndexIsNotInference},
      {OracleFamily::kNorec, 1, BugId::kPartialIndexIsNotInference},
      {OracleFamily::kTlp, 1, BugId::kPartialIndexIsNotInference},
      {OracleFamily::kContainment, 3, BugId::kTxnDirtyRead},
  };
  for (const Config& config : configs) {
    for (bool buggy : {false, true}) {
      BugConfig bugs = buggy ? BugConfig::Single(config.bug) : BugConfig();
      std::atomic<uint64_t> calls{0};
      RunnerOptions options;
      options.seed = 4242;
      options.databases = 16;
      options.queries_per_database = 10;
      options.workers = property_workers;
      options.family = config.family;
      options.gen.txn_sessions = config.txn_sessions;
      EngineFactory factory = [bugs, &calls]() -> ConnectionPtr {
        return std::make_unique<CountingConnection>(bugs, &calls);
      };
      RunReport report = PqsRunner(factory, options).Run();
      CHECK(report.stats.statements_executed > 0);
      CHECK(report.findings.empty() != buggy);
      CHECK_MSG(report.stats.statements_executed == calls.load(),
                "family %d, %d session(s), bug %d: runner %llu, engine %llu",
                static_cast<int>(config.family), config.txn_sessions,
                buggy ? 1 : 0,
                static_cast<unsigned long long>(
                    report.stats.statements_executed),
                static_cast<unsigned long long>(calls.load()));
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: runner metrics worker identity + finding provenance
// ---------------------------------------------------------------------------

RunReport BuggyRun(OracleFamily family, int workers) {
  RunnerOptions options;
  options.seed = 2020;
  options.databases = 24;
  options.queries_per_database = 12;
  options.workers = workers;
  options.family = family;
  options.gen.explicit_join_probability = 0.5;
  options.gen.order_by_probability = 0.4;
  EngineFactory factory = []() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(
        Dialect::kSqliteFlex,
        BugConfig::Single(BugId::kPartialIndexIsNotInference));
  };
  PqsRunner runner(factory, options);
  return runner.Run();
}

void TestWorkerMetricIdentity() {
  for (OracleFamily family : {OracleFamily::kContainment,
                              OracleFamily::kNorec, OracleFamily::kTlp}) {
    RunReport sequential = BuggyRun(family, 1);
    RunReport sharded = BuggyRun(family, property_workers);
    // The merged registry is byte-identical across worker counts — the
    // same guarantee RunStats::Merge gives the classic counters.
    CHECK_EQ(sharded.metrics.ToJson(false), sequential.metrics.ToJson(false));
    // The registry actually carried the engine-side counters.
    CHECK(sequential.metrics.counter(obs::Counter::kPoolHits) > 0);
    CHECK(sequential.metrics.counter(obs::Counter::kPivotSelections) > 0 ||
          family != OracleFamily::kContainment);
    // Phase spans fired for the pipeline stages every family exercises.
    for (obs::Phase p : {obs::Phase::kGenerate, obs::Phase::kEngineExecute,
                         obs::Phase::kGroundTruthReplay}) {
      CHECK(sequential.metrics.phase_ticks(p).count() > 0);
    }
    // Finding provenance: every finding ships a non-empty flight dump
    // whose final event is its own kFindingRecorded marker, identically
    // across worker counts (the ring is per-session, not per-worker).
    CHECK(!sequential.findings.empty());
    CHECK_EQ(sharded.findings.size(), sequential.findings.size());
    for (size_t i = 0; i < sequential.findings.size(); ++i) {
      const Finding& f = sequential.findings[i];
      CHECK(!f.flight.empty());
      CHECK(f.flight.back().kind == obs::EventKind::kFindingRecorded);
      CHECK_EQ(f.flight.back().a, static_cast<uint32_t>(f.oracle));
      if (i < sharded.findings.size()) {
        const Finding& g = sharded.findings[i];
        CHECK_EQ(g.flight.size(), f.flight.size());
        for (size_t e = 0; e < f.flight.size() && e < g.flight.size(); ++e) {
          CHECK(f.flight[e].kind == g.flight[e].kind);
          CHECK_EQ(f.flight[e].tick, g.flight[e].tick);
          CHECK_EQ(f.flight[e].a, g.flight[e].a);
          CHECK_EQ(f.flight[e].b, g.flight[e].b);
        }
      }
    }
  }
}

// Campaign sweep over the whole bug registry: every detected finding —
// whatever oracle fired (containment, error, crash, NoREC, TLP) — still
// carries its flight dump after reduction.
void TestCampaignFindingsCarryFlight() {
  CampaignOptions options;
  options.seed = 20200604;
  options.databases_per_bug = 120;
  options.queries_per_database = 20;
  options.reduce = true;
  options.workers = property_workers;
  CampaignReport report = RunCampaign(Dialect::kSqliteFlex, options);
  size_t detected = 0;
  for (const BugHuntResult& r : report.results) {
    if (!r.detected) continue;
    ++detected;
    CHECK_MSG(!r.reduced.flight.empty(),
              "bug %s: reduced finding lost its flight dump", r.name);
  }
  CHECK(detected > 0);
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      pqs::property_workers = std::atoi(argv[i + 1]);
      if (pqs::property_workers < 1) pqs::property_workers = 1;
      ++i;
    }
  }
  pqs::TestJsonBuilder();
  pqs::TestHistogramExactBucketMerge();
  pqs::TestRingWraparound();
  pqs::TestSpanNestingLogicalClock();
  pqs::TestStatementCountMatchesEngineCalls();
  pqs::TestWorkerMetricIdentity();
  pqs::TestCampaignFindingsCarryFlight();
  return pqs::test::Summary("test_obs");
}
