#include "src/engine/connection.h"

#include "src/obs/telemetry.h"

namespace pqs {

StatementResult ExecuteCounted(Connection& conn, const Stmt& stmt) {
  obs::ScopedPhase span(obs::Phase::kEngineExecute);
  StatementResult result = conn.Execute(stmt);
  obs::CountStatement(static_cast<uint32_t>(stmt.kind()), !result.ok());
  return result;
}

const char* DialectName(Dialect d) {
  switch (d) {
    case Dialect::kSqliteFlex:
      return "sqlite";
    case Dialect::kMysqlLike:
      return "mysql";
    case Dialect::kPostgresStrict:
      return "postgres";
  }
  return "?";
}

}  // namespace pqs
