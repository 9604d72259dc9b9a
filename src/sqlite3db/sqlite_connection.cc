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
  ClearStatementCache();
  if (db_ != nullptr) sqlite3_close(db_);
}

void SqliteConnection::ClearStatementCache() {
  if (!cache_.empty()) {
    obs::Count(obs::Counter::kCacheInvalidations);
    obs::Emit(obs::EventKind::kCacheInvalidation,
              static_cast<uint32_t>(cache_.size()));
  }
  for (CachedStmt& entry : cache_) {
    if (entry.stmt != nullptr) sqlite3_finalize(entry.stmt);
  }
  cache_.clear();
}

void SqliteConnection::set_statement_cache(bool enabled) {
  cache_enabled_ = enabled;
  if (!enabled) ClearStatementCache();
}

bool SqliteConnection::Reset() {
  if (db_ == nullptr) return false;
  // Cached prepared statements hold the old schema; drop them first so no
  // statement can observe the teardown below.
  ClearStatementCache();
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
  // No cache invalidation on DDL/DML: sqlite3_prepare_v2 statements
  // transparently re-prepare themselves when the schema changes
  // (SQLITE_SCHEMA handling is internal to the v2 interface), and data
  // changes are always visible to a reset statement. Dropping the cache on
  // every UPDATE/DELETE/DDL — as an earlier revision did — made the
  // mutation-heavy workload churn prepares and erased the cache's win.
  //
  // SELECTs are cached by *parameterized template*: literals in the filter
  // positions render as `?` and are bound per execution, so the NoREC/TLP
  // rewrite families (same shape, fresh literals every check) and the
  // pivot probes all collapse onto a handful of prepared statements.
  bool cacheable = cache_enabled_ && stmt.kind() == StmtKind::kSelect;
  sql_buf_.clear();
  param_buf_.clear();
  {
    // Rendering AST → SQL text happens only on this adapter (MiniDB
    // executes the AST directly), so the kRender phase profiles it here.
    obs::ScopedPhase span(obs::Phase::kRender);
    if (cacheable) {
      RenderSelectTemplate(static_cast<const SelectStmt&>(stmt),
                           Dialect::kSqliteFlex, &sql_buf_, &param_buf_);
    } else {
      RenderStmtTo(stmt, Dialect::kSqliteFlex, &sql_buf_);
    }
  }

  // Prepare-once / reset-and-rerun (MRU-ordered; hits move to the front).
  sqlite3_stmt* prepared = nullptr;
  bool in_cache = false;
  if (cacheable) {
    for (size_t i = 0; i < cache_.size(); ++i) {
      if (cache_[i].sql != sql_buf_) continue;
      prepared = cache_[i].stmt;
      sqlite3_reset(prepared);
      if (i != 0) {
        CachedStmt hit = std::move(cache_[i]);
        cache_.erase(cache_.begin() + static_cast<long>(i));
        cache_.insert(cache_.begin(), std::move(hit));
      }
      in_cache = true;
      ++cache_hits_;
      obs::Count(obs::Counter::kStmtCacheHits);
      break;
    }
  }
  if (prepared == nullptr) {
    int prc =
        sqlite3_prepare_v2(db_, sql_buf_.c_str(), -1, &prepared, nullptr);
    if (prc != SQLITE_OK) {
      StatementStatus status = prc == SQLITE_CONSTRAINT
                                   ? StatementStatus::kConstraintViolation
                                   : StatementStatus::kError;
      return StatementResult::Failure(status, sqlite3_errmsg(db_));
    }
    if (cacheable) {
      ++cache_misses_;
      obs::Count(obs::Counter::kStmtCacheMisses);
      cache_.insert(cache_.begin(), CachedStmt{sql_buf_, prepared});
      // 32 slots: the pivot-probe SELECTs plus the NoREC/TLP rewrite
      // working set (up to four templates per TLP check) fit without
      // eviction churn; linear MRU scan is still cheap at this size.
      constexpr size_t kMaxCachedStatements = 32;
      while (cache_.size() > kMaxCachedStatements) {
        sqlite3_finalize(cache_.back().stmt);
        cache_.pop_back();
      }
      in_cache = true;
    }
  }
  // Bind the filter literals (placeholder i ← param_buf_[i-1]). TRANSIENT
  // text: the AST the pointers borrow can die before the cached statement.
  for (size_t i = 0; i < param_buf_.size(); ++i) {
    const SqlValue& v = *param_buf_[i];
    int slot = static_cast<int>(i) + 1;
    switch (v.cls()) {
      case StorageClass::kNull:
        sqlite3_bind_null(prepared, slot);
        break;
      case StorageClass::kInteger:
        sqlite3_bind_int64(prepared, slot, v.i());
        break;
      case StorageClass::kReal:
        sqlite3_bind_double(prepared, slot, v.r());
        break;
      case StorageClass::kText: {
        std::string_view text = v.text();
        sqlite3_bind_text(prepared, slot, text.data(),
                          static_cast<int>(text.size()), SQLITE_TRANSIENT);
        break;
      }
    }
  }
  // A cached statement is reset (kept prepared) instead of finalized;
  // bindings are cleared so no stale literal outlives this execution.
  auto release = [&]() {
    if (in_cache) {
      sqlite3_reset(prepared);
      sqlite3_clear_bindings(prepared);
    } else {
      sqlite3_finalize(prepared);
    }
  };
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
    release();
    StatementStatus status = base == SQLITE_CONSTRAINT
                                 ? StatementStatus::kConstraintViolation
                                 : StatementStatus::kError;
    return StatementResult::Failure(status, message);
  }
  release();
  return result;
}

#else  // !PQS_HAVE_SQLITE3

SqliteConnection::SqliteConnection() { alive_ = true; }
SqliteConnection::~SqliteConnection() = default;

void SqliteConnection::ClearStatementCache() {}
void SqliteConnection::set_statement_cache(bool enabled) {
  cache_enabled_ = enabled;
}

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
