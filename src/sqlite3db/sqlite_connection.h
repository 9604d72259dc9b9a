// Real-SQLite adapter: pqs::Connection over an in-memory libsqlite3
// database.
//
// Statements are rendered to SQL text (src/sqlparser), literals inline,
// and executed one at a time through the prepared-statement API: prepare,
// step, finalize. Result values come back as typed SqlValues. When the
// build has no libsqlite3 (PQS_HAVE_SQLITE3 == 0) the class still exists
// so the benches compile unchanged, but every Execute reports
// kUnsupported and the runner skips out gracefully.
#ifndef PQS_SRC_SQLITE3DB_SQLITE_CONNECTION_H_
#define PQS_SRC_SQLITE3DB_SQLITE_CONNECTION_H_

#include <string>

#include "src/engine/connection.h"
#include "src/sqlast/ast.h"

struct sqlite3;  // avoid leaking sqlite3.h into every bench TU

namespace pqs {

class SqliteConnection : public Connection {
 public:
  SqliteConnection();
  ~SqliteConnection() override;

  SqliteConnection(const SqliteConnection&) = delete;
  SqliteConnection& operator=(const SqliteConnection&) = delete;

  StatementResult Execute(const Stmt& stmt) override;
  Dialect dialect() const override { return Dialect::kSqliteFlex; }
  std::string EngineName() const override;
  bool alive() const override { return alive_; }
  // In-place reset: rolls back any transaction an aborted session left
  // open and drops every user object.
  bool Reset() override;

  // libsqlite3 version string, or "unavailable" in a sqlite3-less build.
  static std::string LibraryVersion();
  static bool Available();

 private:
  sqlite3* db_ = nullptr;
  bool alive_ = true;
  // Reused render buffer, recycled across calls so rendering stops
  // allocating per statement.
  std::string sql_buf_;
};

}  // namespace pqs

#endif  // PQS_SRC_SQLITE3DB_SQLITE_CONNECTION_H_
