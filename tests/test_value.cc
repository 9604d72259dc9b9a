// SqlValue layout tests: the 16-byte cell with inline text up to
// SqlValue::kInlineText bytes and owned heap text beyond it. Generated data
// never exceeds 4 bytes of text, so this is the test that runs the heap
// path: copy, move, self-assignment and reuse of moved-from values at the
// 0/13/14/200-byte boundaries; ValueEquals, ValueCompare, ToDisplay,
// ToSqlLiteral and the numeric parsers against std::string reference
// implementations (embedded quote and NUL included); a MiniDB session per
// dialect over texts longer than the inline bound; a bind-and-read
// roundtrip through real sqlite3 when it is linked; and cross-thread
// copies of shared heap-text values.
//
// Usage: test_value [--workers N]   (N threads copy shared values)
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/minidb/database.h"
#include "src/sqlite3db/sqlite_connection.h"
#include "src/sqlstmt/stmt.h"
#include "src/sqlvalue/value.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

int g_workers = 4;  // overridden by --workers

// Deterministic printable text of exactly n bytes.
std::string TextOfSize(size_t n) {
  std::string s;
  for (size_t k = 0; k < n; ++k) s += static_cast<char>('a' + k % 26);
  return s;
}

bool HoldsText(const SqlValue& v, const std::string& expected) {
  return v.cls() == StorageClass::kText && v.text() == expected &&
         std::strlen(v.text_cstr()) == expected.size() &&
         v.text_cstr()[expected.size()] == '\0';
}

// --- Reference implementations over std::string (the pre-16-byte code).

std::string RefLiteral(const std::string& t) {
  std::string out = "'";
  for (char c : t) {
    out += c;
    if (c == '\'') out += '\'';
  }
  out += '\'';
  return out;
}

bool RefParseFullNumeric(const std::string& s, SqlValue* out) {
  if (s.empty()) return false;
  const char* begin = s.c_str();
  char* end = nullptr;
  long long as_int = strtoll(begin, &end, 10);
  if (end != begin && *end == '\0') {
    *out = SqlValue::Int(as_int);
    return true;
  }
  end = nullptr;
  double as_real = strtod(begin, &end);
  if (end != begin && *end == '\0') {
    *out = SqlValue::Real(as_real);
    return true;
  }
  return false;
}

double RefParseNumericPrefix(const std::string& s) {
  const char* begin = s.c_str();
  char* end = nullptr;
  double v = strtod(begin, &end);
  if (end == begin) return 0.0;
  return v;
}

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

bool SameDouble(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

// --- Layout and lifecycle. ---------------------------------------------

void TestLayout() {
  CHECK_EQ(sizeof(SqlValue), static_cast<size_t>(16));
  CHECK_EQ(SqlValue::kInlineText, static_cast<size_t>(13));
  // The payload is read only under its own class: NULL and TEXT (inline
  // or heap) are 0.0 through AsReal, never their text bytes.
  CHECK_EQ(SqlValue::Null().AsReal(), 0.0);
  CHECK_EQ(SqlValue::Text("abcdefgh").AsReal(), 0.0);
  CHECK_EQ(SqlValue::Text(TextOfSize(200)).AsReal(), 0.0);
  CHECK_EQ(SqlValue::Int(-7).AsReal(), -7.0);
  CHECK_EQ(SqlValue::Real(2.5).AsReal(), 2.5);
  CHECK(SqlValue::Null().text().empty());
}

void TestLifecycleAtSize(size_t n) {
  const std::string s = TextOfSize(n);
  SqlValue v = SqlValue::Text(s);
  CHECK_MSG(HoldsText(v, s), "size %zu", n);

  // Copy construction deep-copies; a heap buffer is never shared.
  SqlValue copy(v);
  CHECK_MSG(HoldsText(copy, s) && HoldsText(v, s), "copy size %zu", n);
  CHECK_MSG(copy.text().data() != v.text().data(), "shared size %zu", n);

  // Copy assignment onto every kind of target.
  std::vector<SqlValue> targets = {SqlValue::Null(), SqlValue::Int(3),
                                   SqlValue::Real(-0.5), SqlValue::Text("x"),
                                   SqlValue::Text(TextOfSize(40))};
  for (SqlValue& target : targets) {
    target = v;
    CHECK_MSG(HoldsText(target, s), "copy-assign size %zu", n);
  }
  // And the other way: a text target takes every other kind.
  SqlValue into_int = v;
  into_int = SqlValue::Int(42);
  CHECK(into_int.cls() == StorageClass::kInteger && into_int.i() == 42);
  SqlValue into_real = v;
  into_real = SqlValue::Real(1.25);
  CHECK(into_real.cls() == StorageClass::kReal && into_real.r() == 1.25);

  // Self-assignment, copy and move, leaves the value intact.
  SqlValue& alias = v;
  v = alias;
  CHECK_MSG(HoldsText(v, s), "self-copy size %zu", n);
  v = std::move(alias);
  CHECK_MSG(HoldsText(v, s), "self-move size %zu", n);

  // Move construction steals; the moved-from value is NULL and reusable.
  SqlValue moved(std::move(copy));
  CHECK_MSG(HoldsText(moved, s), "move size %zu", n);
  CHECK(copy.is_null());  // NOLINT(bugprone-use-after-move)
  copy = SqlValue::Text(s + "-reused");
  CHECK_MSG(HoldsText(copy, s + "-reused"), "reuse size %zu", n);
  copy = SqlValue::Int(9);
  CHECK(copy.cls() == StorageClass::kInteger && copy.i() == 9);

  // Move assignment over a heap-text target frees the old buffer.
  SqlValue target = SqlValue::Text(TextOfSize(100));
  target = std::move(moved);
  CHECK_MSG(HoldsText(target, s), "move-assign size %zu", n);
  CHECK(moved.is_null());  // NOLINT(bugprone-use-after-move)

  // Vector growth relocates values through the move constructor.
  std::vector<SqlValue> grown;
  for (int k = 0; k < 100; ++k) grown.push_back(v);
  bool all = true;
  for (const SqlValue& g : grown) all = all && HoldsText(g, s);
  CHECK_MSG(all, "vector growth size %zu", n);
}

void TestLifecycle() {
  for (size_t n : {0, 1, 12, 13, 14, 15, 200}) TestLifecycleAtSize(n);
}

// --- Semantics against the std::string reference. ----------------------

std::vector<std::string> ReferenceTexts() {
  return {"",
          "a",
          "A",
          "ab",
          "aB",
          "it's",
          "'",
          "''quoted''",
          std::string("a\0b", 3),
          std::string("\0", 1),
          std::string("abc\0", 4),
          std::string("12\0" "34", 5),
          "12",
          "12ab",
          "-3.5e2",
          " 7",
          "0x10",
          "1e400",
          "123456789012345678",
          "12345678901234.5",
          "-9223372036854775808",
          TextOfSize(13),
          TextOfSize(14),
          TextOfSize(200),
          TextOfSize(13) + "'" + TextOfSize(13),
          std::string(20, '\0') + "tail"};
}

void TestSemanticsMatchStringReference() {
  const std::vector<std::string> texts = ReferenceTexts();
  for (const std::string& a : texts) {
    SqlValue text_a = SqlValue::Text(a);
    CHECK_MSG(text_a.text() == a, "size %zu", a.size());
    CHECK_EQ(text_a.ToDisplay(), a);
    CHECK_EQ(text_a.ToSqlLiteral(), RefLiteral(a));

    SqlValue got;
    SqlValue want;
    bool got_ok = ParseFullNumeric(text_a.text_cstr(), &got);
    bool want_ok = RefParseFullNumeric(a, &want);
    CHECK_EQ(got_ok, want_ok);
    if (got_ok && want_ok) {
      CHECK(got.cls() == want.cls());
      CHECK(ValueEquals(got, want));
    }
    CHECK(SameDouble(ParseNumericPrefix(text_a.text_cstr()),
                     RefParseNumericPrefix(a)));

    for (const std::string& b : texts) {
      SqlValue text_b = SqlValue::Text(b);
      CHECK_EQ(ValueEquals(text_a, text_b), a == b);
      CHECK_EQ(Sign(ValueCompare(text_a, text_b)), Sign(a.compare(b)));
    }
  }
  // Cross-class rules are unchanged: numerics compare by value, NULL
  // sorts first, TEXT last.
  SqlValue long_text = SqlValue::Text(TextOfSize(30));
  CHECK(ValueEquals(SqlValue::Int(1), SqlValue::Real(1.0)));
  CHECK(!ValueEquals(SqlValue::Int(0), SqlValue::Text("")));
  CHECK(!ValueEquals(SqlValue::Null(), long_text));
  CHECK(ValueEquals(SqlValue::Null(), SqlValue::Null()));
  CHECK(ValueCompare(SqlValue::Null(), SqlValue::Int(-5)) < 0);
  CHECK(ValueCompare(SqlValue::Real(1e300), long_text) < 0);
  CHECK(ValueCompare(long_text, SqlValue::Int(5)) > 0);
  CHECK_EQ(SqlValue::Int(-12).ToDisplay(), std::string("-12"));
  CHECK_EQ(SqlValue::Real(2.0).ToDisplay(), std::string("2.0"));
  CHECK_EQ(SqlValue::Real(-3.25).ToSqlLiteral(), std::string("-3.25"));
  CHECK_EQ(SqlValue::Null().ToSqlLiteral(), std::string("NULL"));
}

// --- A MiniDB session per dialect over long texts. ----------------------

const char* const kLongQuote = "it's a long value with a quote";  // 30 bytes
const char* const kLongWild = "100% of a_b, long";                 // 17 bytes

StmtPtr CreateT0() {
  auto create = std::make_unique<CreateTableStmt>();
  create->table_name = "t0";
  ColumnDef a;
  a.name = "a";
  a.declared_type = "INT";
  a.affinity = Affinity::kInteger;
  ColumnDef b;
  b.name = "b";
  b.declared_type = "TEXT";
  b.affinity = Affinity::kText;
  create->columns = {a, b};
  return create;
}

StmtPtr InsertT0(const std::vector<std::pair<int64_t, std::string>>& rows) {
  auto insert = std::make_unique<InsertStmt>();
  insert->table_name = "t0";
  for (const auto& [a, b] : rows) {
    insert->rows.emplace_back();
    insert->rows.back().push_back(MakeIntLiteral(a));
    insert->rows.back().push_back(MakeTextLiteral(b));
  }
  return insert;
}

ExprPtr AEq(int64_t a) {
  return MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "a"),
                    MakeIntLiteral(a));
}

// SELECT <item> FROM t0 WHERE a = <a>; the single cell, or NULL with
// *ok = false when the statement fails or returns other than one row.
SqlValue SelectOne(Connection* db, ExprPtr item, int64_t a, bool* ok) {
  SelectStmt select;
  select.select_list.push_back(std::move(item));
  select.from_tables = {"t0"};
  select.where = AEq(a);
  StatementResult r = db->Execute(select);
  *ok = r.ok() && r.rows.size() == 1 && r.rows[0].size() == 1;
  return *ok ? r.rows[0][0] : SqlValue::Null();
}

// The `a` values of the rows matching `where`, in table order.
std::vector<int64_t> MatchingA(Connection* db, ExprPtr where) {
  SelectStmt select;
  select.select_list.push_back(MakeColumnRef("t0", "a"));
  select.from_tables = {"t0"};
  select.where = std::move(where);
  StatementResult r = db->Execute(select);
  std::vector<int64_t> out;
  if (!r.ok()) return {-1};
  for (const auto& row : r.rows) out.push_back(row[0].i());
  return out;
}

void TestMiniDbLongTextSession(Dialect dialect) {
  const int d = static_cast<int>(dialect);
  const bool strict = dialect == Dialect::kPostgresStrict;
  minidb::Database db(dialect);
  CHECK_MSG(db.Execute(*CreateT0()).ok(), "dialect %d", d);
  const std::vector<std::pair<int64_t, std::string>> rows = {
      {1, "short"},
      {2, TextOfSize(13)},
      {3, TextOfSize(14)},
      {4, kLongQuote},
      {5, kLongWild},
      {6, TextOfSize(200)}};
  CHECK_MSG(db.Execute(*InsertT0(rows)).ok(), "dialect %d", d);

  // SELECT * returns every text byte-for-byte.
  SelectStmt all;
  all.from_tables = {"t0"};
  StatementResult r = db.Execute(all);
  CHECK_MSG(r.ok() && r.rows.size() == rows.size(), "dialect %d", d);
  for (size_t k = 0; r.ok() && k < r.rows.size() && k < rows.size(); ++k) {
    CHECK_MSG(HoldsText(r.rows[k][1], rows[k].second), "dialect %d row %zu",
              d, k);
  }

  // Equality on long texts, through a bound-style literal filter.
  CHECK(MatchingA(&db, MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "b"),
                                  MakeTextLiteral(TextOfSize(14)))) ==
        std::vector<int64_t>({3}));
  CHECK(MatchingA(&db, MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "b"),
                                  MakeTextLiteral(kLongQuote))) ==
        std::vector<int64_t>({4}));

  // UPDATE grows an inline text past the bound and shrinks a heap one.
  const std::string grown = std::string("short") + "-suffix-beyond-13";
  auto update = std::make_unique<UpdateStmt>();
  update->table_name = "t0";
  update->assignments.push_back(
      {"b", MakeBinary(BinaryOp::kConcat, MakeColumnRef("t0", "b"),
                       MakeTextLiteral("-suffix-beyond-13"))});
  update->where = AEq(1);
  CHECK_MSG(db.Execute(*update).ok(), "dialect %d", d);
  auto shrink = std::make_unique<UpdateStmt>();
  shrink->table_name = "t0";
  shrink->assignments.push_back({"b", MakeTextLiteral("tiny")});
  shrink->where = AEq(6);
  CHECK_MSG(db.Execute(*shrink).ok(), "dialect %d", d);
  bool ok = false;
  CHECK(HoldsText(SelectOne(&db, MakeColumnRef("t0", "b"), 1, &ok), grown) &&
        ok);
  CHECK(HoldsText(SelectOne(&db, MakeColumnRef("t0", "b"), 6, &ok), "tiny") &&
        ok);

  // A || chain whose parts are inline and whose result is not.
  ExprPtr chain = MakeBinary(
      BinaryOp::kConcat,
      MakeBinary(BinaryOp::kConcat, MakeTextLiteral("abcde"),
                 MakeTextLiteral("fghij")),
      MakeTextLiteral("klmno"));
  CHECK(HoldsText(SelectOne(&db, std::move(chain), 2, &ok),
                  "abcdefghijklmno") &&
        ok);
  ExprPtr column_chain =
      MakeBinary(BinaryOp::kConcat, MakeColumnRef("t0", "b"),
                 MakeColumnRef("t0", "b"));
  CHECK(HoldsText(SelectOne(&db, std::move(column_chain), 2, &ok),
                  TextOfSize(13) + TextOfSize(13)) &&
        ok);

  // UPPER and LENGTH over heap text.
  std::vector<ExprPtr> upper_args;
  upper_args.push_back(MakeColumnRef("t0", "b"));
  CHECK(HoldsText(SelectOne(&db,
                            MakeFunctionCall(FuncId::kUpper,
                                             std::move(upper_args)),
                            4, &ok),
                  "IT'S A LONG VALUE WITH A QUOTE") &&
        ok);
  std::vector<ExprPtr> length_args;
  length_args.push_back(MakeColumnRef("t0", "b"));
  SqlValue length = SelectOne(
      &db, MakeFunctionCall(FuncId::kLength, std::move(length_args)), 3, &ok);
  CHECK(ok && length.cls() == StorageClass::kInteger && length.i() == 14);

  // LIKE ... ESCAPE: only the long text carrying a literal '%' matches.
  CHECK(MatchingA(&db, MakeLikeEscape(MakeColumnRef("t0", "b"),
                                      MakeTextLiteral("%0!% of%"),
                                      MakeTextLiteral("!"), false)) ==
        std::vector<int64_t>({5}));
  CHECK(MatchingA(&db, MakeLike(MakeColumnRef("t0", "b"),
                                MakeTextLiteral("%long value%"), false)) ==
        std::vector<int64_t>({4}));

  // CAST into and out of heap text.
  CHECK(HoldsText(SelectOne(&db,
                            MakeCast(MakeIntLiteral(1234567890123456),
                                     Affinity::kText),
                            2, &ok),
                  "1234567890123456") &&
        ok);
  CHECK(HoldsText(SelectOne(&db,
                            MakeCast(MakeColumnRef("t0", "b"),
                                     Affinity::kText),
                            4, &ok),
                  kLongQuote) &&
        ok);
  SqlValue as_int = SelectOne(
      &db, MakeCast(MakeTextLiteral("123456789012345xyz"), Affinity::kInteger),
      2, &ok);
  if (strict) {
    CHECK(!ok);  // PostgreSQL rejects non-numeric text as an integer
  } else {
    CHECK(ok && as_int.cls() == StorageClass::kInteger &&
          as_int.i() == 123456789012345);
  }
}

void TestMiniDbLongText() {
  for (Dialect dialect : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                          Dialect::kPostgresStrict}) {
    TestMiniDbLongTextSession(dialect);
  }
}

// --- Bind-and-read roundtrip through real sqlite3. ---------------------

void TestSqliteRoundtrip() {
  if (!SqliteConnection::Available()) {
    std::printf("  (sqlite3 not linked: roundtrip skipped)\n");
    return;
  }
  SqliteConnection conn;
  CHECK(conn.Execute(*CreateT0()).ok());
  const std::vector<std::pair<int64_t, std::string>> rows = {
      {1, TextOfSize(13)}, {2, TextOfSize(14)}, {3, kLongQuote},
      {4, TextOfSize(200)}};
  CHECK(conn.Execute(*InsertT0(rows)).ok());
  // WHERE literals are bound as parameters; the result is read back.
  for (const auto& [a, b] : rows) {
    SelectStmt select;
    select.from_tables = {"t0"};
    select.where = MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "b"),
                              MakeTextLiteral(b));
    StatementResult r = conn.Execute(select);
    CHECK_MSG(r.ok() && r.rows.size() == 1, "row %lld",
              static_cast<long long>(a));
    if (r.ok() && r.rows.size() == 1) {
      CHECK(r.rows[0][0].cls() == StorageClass::kInteger &&
            r.rows[0][0].i() == a);
      CHECK(HoldsText(r.rows[0][1], b));
    }
  }
}

// --- Values shared across threads. -------------------------------------

// Findings carry values from worker threads to the merging thread. Each
// worker copies the shared heap-text values (concurrent const reads) and
// moves its copies back; every copy must own its own buffer.
void TestCrossThreadCopies() {
  std::vector<SqlValue> shared;
  for (size_t n : {0, 13, 14, 200}) {
    shared.push_back(SqlValue::Text(TextOfSize(n)));
  }
  std::vector<std::vector<SqlValue>> results(static_cast<size_t>(g_workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < g_workers; ++w) {
    threads.emplace_back([&shared, &results, w]() {
      std::vector<SqlValue> local;
      for (int round = 0; round < 50; ++round) {
        for (const SqlValue& v : shared) local.push_back(v);
      }
      results[static_cast<size_t>(w)] = std::move(local);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<SqlValue>& local : results) {
    CHECK_EQ(local.size(), shared.size() * 50);
    for (size_t k = 0; k < local.size(); ++k) {
      const SqlValue& original = shared[k % shared.size()];
      CHECK(local[k].text() == original.text());
      if (original.text().size() > SqlValue::kInlineText) {
        CHECK(local[k].text().data() != original.text().data());
      }
    }
  }
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      pqs::g_workers = std::atoi(argv[i + 1]);
      ++i;
    }
  }
  if (pqs::g_workers < 1) pqs::g_workers = 1;
  pqs::TestLayout();
  pqs::TestLifecycle();
  pqs::TestSemanticsMatchStringReference();
  pqs::TestMiniDbLongText();
  pqs::TestSqliteRoundtrip();
  pqs::TestCrossThreadCopies();
  return pqs::test::Summary("test_value");
}
