#include "src/sqlite3db/sqlite_connection.h"

#include <utility>

#include "src/obs/telemetry.h"
#include "src/sqlparser/render.h"

#ifndef PQS_HAVE_SQLITE3
#define PQS_HAVE_SQLITE3 0
#endif

#if PQS_HAVE_SQLITE3
#include <sqlite3.h>
#endif

namespace pqs {

#if PQS_HAVE_SQLITE3

SqliteConnection::SqliteConnection() {
  if (sqlite3_open(":memory:", &db_) != SQLITE_OK) {
    alive_ = false;
    if (db_ != nullptr) {
      sqlite3_close(db_);
      db_ = nullptr;
    }
  }
}

SqliteConnection::~SqliteConnection() {
  if (db_ != nullptr) sqlite3_close(db_);
}

bool SqliteConnection::Reset() {
  if (db_ == nullptr) return false;
  // An aborted session may have left a transaction open. DDL inside a
  // transaction would be rolled back with it, so resolve the transaction
  // before dropping objects.
  if (sqlite3_get_autocommit(db_) == 0 &&
      sqlite3_exec(db_, "ROLLBACK", nullptr, nullptr, nullptr) != SQLITE_OK) {
    return false;
  }
  // Drop every user table (their indexes and triggers go with them).
  sqlite3_stmt* list = nullptr;
  if (sqlite3_prepare_v2(db_,
                         "SELECT name FROM sqlite_master WHERE type = "
                         "'table' AND name NOT LIKE 'sqlite_%'",
                         -1, &list, nullptr) != SQLITE_OK) {
    return false;
  }
  std::vector<std::string> tables;
  while (sqlite3_step(list) == SQLITE_ROW) {
    const unsigned char* name = sqlite3_column_text(list, 0);
    if (name != nullptr) {
      tables.push_back(reinterpret_cast<const char*>(name));
    }
  }
  sqlite3_finalize(list);
  for (const std::string& table : tables) {
    std::string drop = "DROP TABLE IF EXISTS \"" + table + "\"";
    if (sqlite3_exec(db_, drop.c_str(), nullptr, nullptr, nullptr) !=
        SQLITE_OK) {
      return false;
    }
  }
  alive_ = true;
  return true;
}

std::string SqliteConnection::EngineName() const {
  return std::string("sqlite-") + sqlite3_libversion();
}

std::string SqliteConnection::LibraryVersion() {
  return sqlite3_libversion();
}

bool SqliteConnection::Available() { return true; }

StatementResult SqliteConnection::Execute(const Stmt& stmt) {
  if (!alive_ || db_ == nullptr) {
    return StatementResult::Failure(StatementStatus::kCrash,
                                    "sqlite connection unavailable");
  }
  // Session switches are a scheduling construct of the interleaved
  // transaction stream; they render as a bare comment, which prepares to a
  // null statement. One real connection is one session, so succeed without
  // touching the engine.
  if (stmt.kind() == StmtKind::kSetSession) return StatementResult::Ok();
  sql_buf_.clear();
  {
    // Rendering AST → SQL text happens only on this adapter (MiniDB
    // executes the AST directly), so the kRender phase profiles it here.
    obs::ScopedPhase span(obs::Phase::kRender);
    RenderStmtTo(stmt, Dialect::kSqliteFlex, &sql_buf_);
  }
  sqlite3_stmt* prepared = nullptr;
  int prc = sqlite3_prepare_v2(db_, sql_buf_.c_str(), -1, &prepared, nullptr);
  if (prc != SQLITE_OK) {
    StatementStatus status = prc == SQLITE_CONSTRAINT
                                 ? StatementStatus::kConstraintViolation
                                 : StatementStatus::kError;
    return StatementResult::Failure(status, sqlite3_errmsg(db_));
  }
  StatementResult result;
  int rc;
  int columns = sqlite3_column_count(prepared);
  for (int c = 0; c < columns; ++c) {
    const char* name = sqlite3_column_name(prepared, c);
    result.column_names.push_back(name != nullptr ? name : "");
  }
  while ((rc = sqlite3_step(prepared)) == SQLITE_ROW) {
    std::vector<SqlValue> row;
    row.reserve(static_cast<size_t>(columns));
    for (int c = 0; c < columns; ++c) {
      switch (sqlite3_column_type(prepared, c)) {
        case SQLITE_NULL:
          row.push_back(SqlValue::Null());
          break;
        case SQLITE_INTEGER:
          row.push_back(SqlValue::Int(sqlite3_column_int64(prepared, c)));
          break;
        case SQLITE_FLOAT:
          row.push_back(SqlValue::Real(sqlite3_column_double(prepared, c)));
          break;
        default: {
          const unsigned char* text = sqlite3_column_text(prepared, c);
          row.push_back(SqlValue::Text(
              text != nullptr ? reinterpret_cast<const char*>(text) : ""));
          break;
        }
      }
    }
    result.rows.push_back(std::move(row));
  }
  if (rc != SQLITE_DONE) {
    int base = rc & 0xff;
    std::string message = sqlite3_errmsg(db_);
    sqlite3_finalize(prepared);
    StatementStatus status = base == SQLITE_CONSTRAINT
                                 ? StatementStatus::kConstraintViolation
                                 : StatementStatus::kError;
    return StatementResult::Failure(status, message);
  }
  sqlite3_finalize(prepared);
  return result;
}

#else  // !PQS_HAVE_SQLITE3

SqliteConnection::SqliteConnection() { alive_ = true; }
SqliteConnection::~SqliteConnection() = default;

bool SqliteConnection::Reset() { return false; }

std::string SqliteConnection::EngineName() const { return "sqlite-stub"; }

std::string SqliteConnection::LibraryVersion() { return "unavailable"; }

bool SqliteConnection::Available() { return false; }

StatementResult SqliteConnection::Execute(const Stmt& stmt) {
  (void)stmt;
  return StatementResult::Failure(
      StatementStatus::kUnsupported,
      "built without libsqlite3; SqliteConnection is a stub");
}

#endif  // PQS_HAVE_SQLITE3

}  // namespace pqs
