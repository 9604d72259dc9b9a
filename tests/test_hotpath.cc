// Hot-path substrate tests (DESIGN §11): the bytecode evaluator must be
// value-identical to the tree evaluator over a generated expression corpus
// in every dialect, the arena and node pool must actually recycle memory
// across reset/churn cycles, and the interner must round-trip symbols.
//
// The differential corpus is the safety argument for compiling WHERE /
// ORDER BY / aggregate expressions in the scan hot path: CompiledExpr::Run
// shares the tree evaluator's semantic kernels, so any drift here is a
// compiler bug, never a semantics fork. Run with `--workers N` (the TSan CI
// job uses 4) to drive the thread-local NodePool caches and the interner's
// global table from concurrent compile/eval threads.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/arena.h"
#include "src/common/interner.h"
#include "src/common/rng.h"
#include "src/interp/bytecode.h"
#include "src/interp/eval.h"
#include "src/pqs/generator.h"
#include "src/sqlast/ast.h"
#include "src/sqlparser/render.h"
#include "src/sqlvalue/value.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

struct DtorLogger {
  std::vector<int>* log;
  int id;
  DtorLogger(std::vector<int>* l, int i) : log(l), id(i) {}
  ~DtorLogger() { log->push_back(id); }
};

void TestArenaAlignmentAndNew() {
  Arena arena(1024);
  void* p = arena.Alloc(1, 64);
  CHECK_EQ(reinterpret_cast<uintptr_t>(p) % 64, uintptr_t{0});
  int* n = arena.New<int>(41);
  *n += 1;
  CHECK_EQ(*n, 42);
  // Small arena, large request: the arena must still serve it (oversized
  // dedicated block) without corrupting later small allocations.
  void* big = arena.Alloc(4096);
  std::memset(big, 0xab, 4096);
  int* after = arena.New<int>(7);
  CHECK_EQ(*after, 7);
}

void TestArenaResetReuse() {
  Arena arena(1024);
  auto fill = [&arena]() {
    for (int i = 0; i < 100; ++i) {
      int* p = static_cast<int*>(arena.Alloc(64));
      *p = i;
    }
  };
  fill();
  size_t blocks = arena.block_count();
  size_t reserved = arena.bytes_reserved();
  CHECK(blocks > 1);  // 100 * 64 bytes cannot fit one 1 KiB block
  // Reset + identical refill must be served entirely from recycled blocks:
  // no growth in block count or reserved bytes, ever.
  for (int cycle = 0; cycle < 5; ++cycle) {
    arena.Reset();
    CHECK_EQ(arena.bytes_used(), size_t{0});
    fill();
    CHECK_EQ(arena.block_count(), blocks);
    CHECK_EQ(arena.bytes_reserved(), reserved);
  }
}

void TestArenaOwnedDestructors() {
  std::vector<int> log;
  {
    Arena arena(1024);
    for (int i = 0; i < 4; ++i) arena.NewOwned<DtorLogger>(&log, i);
    CHECK_EQ(log.size(), size_t{0});  // nothing destroyed while live
    arena.Reset();
    // Destroyed exactly once each, in reverse construction (LIFO) order.
    CHECK_EQ(log.size(), size_t{4});
    std::vector<int> expect = {3, 2, 1, 0};
    CHECK(log == expect);
    log.clear();
    arena.NewOwned<DtorLogger>(&log, 9);
  }  // arena destruction also runs owned destructors
  CHECK_EQ(log.size(), size_t{1});
  CHECK_EQ(log[0], 9);
}

// ---------------------------------------------------------------------------
// NodePool (via Expr::operator new/delete)
// ---------------------------------------------------------------------------

void TestNodePoolRecycles() {
  // Warm up: push the pool past one slab's worth of live Expr nodes, then
  // free them all back to the thread cache.
  std::vector<Expr*> live;
  live.reserve(300);
  for (int i = 0; i < 300; ++i) {
    Expr* e = new Expr();
    e->kind = ExprKind::kLiteral;
    e->literal = SqlValue::Int(i);
    live.push_back(e);
  }
  for (Expr* e : live) delete e;
  live.clear();
  CHECK(NodePool::SlabsAllocated() > 0);
  CHECK(NodePool::ThreadCacheSize() > 0);

  // Steady-state churn at the warmed-up live count must be served entirely
  // from recycled slots: the slab count may never grow again.
  size_t slabs = NodePool::SlabsAllocated();
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int i = 0; i < 300; ++i) live.push_back(new Expr());
    for (Expr* e : live) delete e;
    live.clear();
  }
  CHECK_EQ(NodePool::SlabsAllocated(), slabs);
}

// ---------------------------------------------------------------------------
// Interner
// ---------------------------------------------------------------------------

void TestInternerRoundTrip() {
  size_t size_before = Interner::Size();
  int32_t a = Interner::Intern("hotpath_tbl");
  int32_t b = Interner::Intern("hotpath_col");
  CHECK(a != b);
  CHECK(a != Interner::kInvalidSymbol);
  CHECK_EQ(Interner::Intern("hotpath_tbl"), a);  // stable across calls
  CHECK_EQ(Interner::Name(a), std::string("hotpath_tbl"));
  CHECK_EQ(Interner::Name(b), std::string("hotpath_col"));
  CHECK_EQ(Interner::Name(Interner::kInvalidSymbol), std::string());
  CHECK_EQ(Interner::Name(1 << 30), std::string());
  CHECK(Interner::Size() >= size_before + 2);
}

// ---------------------------------------------------------------------------
// Bytecode-vs-tree differential
// ---------------------------------------------------------------------------

// Strict result identity: same error/value outcome, same storage class,
// exact payload (NaN == NaN so a shared-NaN pair is not a mismatch).
bool SameResult(const EvalResult& a, const EvalResult& b) {
  if (a.error != b.error) return false;
  if (a.error) return a.message == b.message;
  if (a.value.cls() != b.value.cls()) return false;
  switch (a.value.cls()) {
    case StorageClass::kNull:
      return true;
    case StorageClass::kInteger:
      return a.value.i() == b.value.i();
    case StorageClass::kReal:
      return a.value.r() == b.value.r() ||
             (a.value.r() != a.value.r() && b.value.r() != b.value.r());
    case StorageClass::kText:
      return a.value.text() == b.value.text();
  }
  return false;
}

// Random cell for `affinity`: mostly affinity-correct (plus NULLs), with a
// small cross-class minority so the comparison kernels' coercion paths run
// under the differential too. Text draws from a tiny alphabet that includes
// LIKE wildcards and the generator's escape character.
SqlValue RandomCell(Affinity affinity, Rng* rng) {
  if (rng->Chance(0.22)) return SqlValue::Null();
  if (rng->Chance(0.1)) affinity = rng->Pick({Affinity::kInteger,
                                              Affinity::kReal,
                                              Affinity::kText});
  switch (affinity) {
    case Affinity::kInteger:
      return SqlValue::Int(rng->IntIn(-6, 18));
    case Affinity::kReal:
      return SqlValue::Real(static_cast<double>(rng->IntIn(-40, 40)) / 4.0);
    case Affinity::kText: {
      static const char kAlphabet[] = "abAB%_!3";
      std::string s;
      for (int64_t n = rng->IntIn(0, 4); n > 0; --n) {
        s.push_back(kAlphabet[rng->Below(sizeof kAlphabet - 1)]);
      }
      return SqlValue::Text(s);
    }
  }
  return SqlValue::Null();
}

struct DiffTally {
  uint64_t exprs = 0;
  uint64_t evals = 0;
  uint64_t compiled_valid = 0;
  uint64_t mismatches = 0;
};

// One worker's slice of the corpus for one dialect: `seeds` generated
// schemas, `preds_per_seed` predicates each, every predicate evaluated on
// several rows (including an all-NULL row) by both evaluators.
DiffTally RunDifferentialSlice(Dialect dialect, uint64_t seed_lo,
                               uint64_t seed_hi, int preds_per_seed) {
  GeneratorOptions gopts;
  // Crank the typed-expression features so the corpus is dense in the
  // constructs the compiler special-cases: functions (kFunc), CAST, CASE /
  // IN / LIKE ESCAPE (kTreeEval fallbacks), and collations.
  gopts.max_predicate_depth = 4;
  gopts.function_probability = 0.5;
  gopts.cast_probability = 0.35;
  gopts.case_probability = 0.25;
  gopts.collate_probability = 0.5;
  gopts.like_escape_probability = 0.5;
  gopts.in_list_null_probability = 0.4;
  Generator gen(gopts, dialect);
  EvalContext ctx;
  ctx.dialect = dialect;

  DiffTally tally;
  for (uint64_t seed = seed_lo; seed < seed_hi; ++seed) {
    Rng rng(Rng::StreamSeed(0x407b47c5ull,
                            seed * 3 + static_cast<uint64_t>(dialect)));
    DatabasePlan plan = gen.GenerateDatabase(&rng);
    std::vector<const TableSchema*> tables;
    RowSchema schema;
    for (const TableSchema& t : plan.tables) {
      tables.push_back(&t);
      for (const ColumnDef& c : t.columns) schema.Add(t.name, c.name);
    }

    // A handful of rows per schema: random cells plus one all-NULL row.
    std::vector<std::vector<SqlValue>> rows;
    for (int r = 0; r < 3; ++r) {
      std::vector<SqlValue> row;
      for (const TableSchema* t : tables) {
        for (const ColumnDef& c : t->columns) {
          row.push_back(RandomCell(c.affinity, &rng));
        }
      }
      rows.push_back(std::move(row));
    }
    rows.emplace_back(schema.cols.size());  // all-NULL row

    for (int p = 0; p < preds_per_seed; ++p) {
      ExprPtr expr = gen.GeneratePredicate(tables, &rng);
      CompiledExpr code = CompileExpr(*expr, schema, dialect);
      ++tally.exprs;
      if (code.valid()) ++tally.compiled_valid;
      for (const std::vector<SqlValue>& row : rows) {
        RowView view{&schema, &row};
        EvalResult tree = Evaluate(*expr, view, ctx);
        EvalResult compiled = code.Run(view, ctx);
        ++tally.evals;
        if (!SameResult(tree, compiled)) {
          ++tally.mismatches;
          if (tally.mismatches <= 5) {
            std::printf("  mismatch [%s] %s\n    tree: %s%s  bytecode: %s%s\n",
                        DialectName(dialect),
                        RenderExpr(*expr, dialect).c_str(),
                        tree.error ? tree.message.c_str()
                                   : tree.value.ToSqlLiteral().c_str(),
                        tree.error ? " (error)" : "",
                        compiled.error ? compiled.message.c_str()
                                       : compiled.value.ToSqlLiteral().c_str(),
                        compiled.error ? " (error)" : "");
          }
        }
      }
    }
  }
  return tally;
}

void TestBytecodeTreeDifferential(int workers) {
  constexpr uint64_t kSeeds = 250;  // per dialect
  constexpr int kPredsPerSeed = 20;  // 250 * 20 = 5000 exprs per dialect
  const Dialect dialects[] = {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                              Dialect::kPostgresStrict};
  for (Dialect dialect : dialects) {
    std::vector<DiffTally> tallies(static_cast<size_t>(workers));
    std::vector<std::thread> threads;
    uint64_t per = (kSeeds + workers - 1) / workers;
    for (int w = 0; w < workers; ++w) {
      uint64_t lo = static_cast<uint64_t>(w) * per;
      uint64_t hi = lo + per < kSeeds ? lo + per : kSeeds;
      if (lo >= hi) break;
      threads.emplace_back([&tallies, w, dialect, lo, hi]() {
        tallies[static_cast<size_t>(w)] =
            RunDifferentialSlice(dialect, lo, hi, kPredsPerSeed);
      });
    }
    for (std::thread& t : threads) t.join();
    DiffTally total;
    for (const DiffTally& t : tallies) {
      total.exprs += t.exprs;
      total.evals += t.evals;
      total.compiled_valid += t.compiled_valid;
      total.mismatches += t.mismatches;
    }
    std::printf(
        "  differential [%s]: %llu exprs, %llu evals, %llu compiled "
        "(%.1f%%), %llu mismatches\n",
        DialectName(dialect), (unsigned long long)total.exprs,
        (unsigned long long)total.evals,
        (unsigned long long)total.compiled_valid,
        100.0 * static_cast<double>(total.compiled_valid) /
            static_cast<double>(total.exprs),
        (unsigned long long)total.mismatches);
    CHECK_EQ(total.exprs, kSeeds * kPredsPerSeed);
    CHECK_EQ(total.mismatches, uint64_t{0});
    // The compiler must actually engage on generated predicates — if the
    // valid fraction collapses, the "bytecode hot path" is silently the
    // tree path and the perf substrate is fiction.
    CHECK(total.compiled_valid * 10 >= total.exprs * 9);
  }
}

// The kill switch must actually force the tree path so the determinism
// test's bytecode-off campaign exercises what it claims to.
void TestBytecodeKillSwitch() {
  CHECK(BytecodeEnabled());
  SetBytecodeEnabled(false);
  CHECK(!BytecodeEnabled());
  SetBytecodeEnabled(true);
  CHECK(BytecodeEnabled());
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) {
  int workers = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[i + 1]);
      if (workers < 1) workers = 1;
    }
  }
  pqs::TestArenaAlignmentAndNew();
  pqs::TestArenaResetReuse();
  pqs::TestArenaOwnedDestructors();
  pqs::TestNodePoolRecycles();
  pqs::TestInternerRoundTrip();
  pqs::TestBytecodeKillSwitch();
  pqs::TestBytecodeTreeDifferential(workers);
  return pqs::test::Summary("test_hotpath");
}
