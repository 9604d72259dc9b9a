// Each Dialect's documented quirk (DESIGN.md §3):
//  - kSqliteFlex: flexible typing — numeric text coerces on insert into a
//    numeric-affinity column; unparseable text is stored as-is.
//  - kMysqlLike: numeric prefix coercion in comparisons ('12ab' = 12) and
//    case-insensitive text comparison; division by zero yields NULL.
//  - kPostgresStrict: type mismatches are statement errors, both at INSERT
//    and in comparisons.
#include <memory>

#include "src/minidb/database.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

std::unique_ptr<CreateTableStmt> IntTextTable() {
  auto ct = std::make_unique<CreateTableStmt>();
  ct->table_name = "t0";
  ColumnDef i;
  i.name = "c0";
  i.affinity = Affinity::kInteger;
  i.declared_type = "INT";
  ct->columns.push_back(i);
  ColumnDef t;
  t.name = "c1";
  t.affinity = Affinity::kText;
  t.declared_type = "TEXT";
  ct->columns.push_back(t);
  return ct;
}

StatementResult InsertRow(minidb::Database* db, ExprPtr a, ExprPtr b) {
  InsertStmt ins;
  ins.table_name = "t0";
  ins.rows.emplace_back();
  ins.rows.back().push_back(std::move(a));
  ins.rows.back().push_back(std::move(b));
  return db->Execute(ins);
}

StatementResult Select(minidb::Database* db, ExprPtr where) {
  SelectStmt select;
  select.from_tables = {"t0"};
  select.where = std::move(where);
  return db->Execute(select);
}

void TestSqliteFlexAffinity() {
  minidb::Database db(Dialect::kSqliteFlex);
  CHECK(db.Execute(*IntTextTable()).ok());
  // Text '42' into the INT column coerces to INTEGER 42.
  CHECK(InsertRow(&db, MakeTextLiteral("42"), MakeTextLiteral("x")).ok());
  StatementResult r = Select(
      &db, MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "c0"),
                      MakeIntLiteral(42)));
  CHECK(r.ok());
  CHECK_EQ(r.rows.size(), static_cast<size_t>(1));
  CHECK(r.rows[0][0].cls() == StorageClass::kInteger);
  // Unparseable text keeps its TEXT storage class (flexible typing).
  CHECK(InsertRow(&db, MakeTextLiteral("abc"), MakeTextLiteral("y")).ok());
  r = Select(&db, MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "c1"),
                             MakeTextLiteral("y")));
  CHECK(r.ok());
  CHECK_EQ(r.rows.size(), static_cast<size_t>(1));
  CHECK(r.rows[0][0].cls() == StorageClass::kText);
}

void TestMysqlLikeCoercion() {
  minidb::Database db(Dialect::kMysqlLike);
  CHECK(db.Execute(*IntTextTable()).ok());
  CHECK(InsertRow(&db, MakeIntLiteral(12), MakeTextLiteral("Ab")).ok());
  // '12ab' compares equal to 12 via numeric prefix coercion.
  StatementResult r = Select(
      &db, MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "c0"),
                      MakeTextLiteral("12ab")));
  CHECK(r.ok());
  CHECK_EQ(r.rows.size(), static_cast<size_t>(1));
  // Case-insensitive default collation: 'AB' = 'ab'.
  r = Select(&db, MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "c1"),
                             MakeTextLiteral("aB")));
  CHECK(r.ok());
  CHECK_EQ(r.rows.size(), static_cast<size_t>(1));
  // Division by zero yields NULL, not an error: WHERE (c0/0) IS NULL.
  r = Select(&db, MakeIsNull(MakeBinary(BinaryOp::kDiv,
                                        MakeColumnRef("t0", "c0"),
                                        MakeIntLiteral(0)),
                             /*negated=*/false));
  CHECK(r.ok());
  CHECK_EQ(r.rows.size(), static_cast<size_t>(1));
}

void TestPostgresStrictTyping() {
  minidb::Database db(Dialect::kPostgresStrict);
  CHECK(db.Execute(*IntTextTable()).ok());
  // Text into an INT column is a statement error, not a coercion.
  StatementResult r =
      InsertRow(&db, MakeTextLiteral("42"), MakeTextLiteral("x"));
  CHECK(r.status == StatementStatus::kError);
  CHECK(InsertRow(&db, MakeIntLiteral(1), MakeTextLiteral("x")).ok());
  // Comparing an INT column to a text literal is a statement error.
  r = Select(&db, MakeBinary(BinaryOp::kEq, MakeColumnRef("t0", "c0"),
                             MakeTextLiteral("abc")));
  CHECK(r.status == StatementStatus::kError);
  // Division by zero is an error in the strict dialect.
  r = Select(&db, MakeIsNull(MakeBinary(BinaryOp::kDiv,
                                        MakeColumnRef("t0", "c0"),
                                        MakeIntLiteral(0)),
                             /*negated=*/false));
  CHECK(r.status == StatementStatus::kError);
}

}  // namespace
}  // namespace pqs

int main() {
  pqs::TestSqliteFlexAffinity();
  pqs::TestMysqlLikeCoercion();
  pqs::TestPostgresStrictTyping();
  return pqs::test::Summary("test_dialect_quirks");
}
