#include "src/interp/eval.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <utility>

#include "src/common/interner.h"
#include "src/interp/bytecode.h"
#include "src/interp/eval_internal.h"
#include "src/sqlexpr/registry.h"

namespace pqs {

void RowSchema::Add(const std::string& table, const std::string& column) {
  cols.emplace_back(table, column);
  ids.emplace_back(table.empty() ? Interner::kInvalidSymbol
                                 : Interner::Intern(table),
                   Interner::Intern(column));
}

int RowSchema::Resolve(const Expr& column_ref) const {
  if (!has_ids()) return IndexOf(column_ref.table, column_ref.column);
  if (column_ref.column_sym == Expr::kSymUnresolved) {
    column_ref.table_sym = column_ref.table.empty()
                               ? Interner::kInvalidSymbol
                               : Interner::Intern(column_ref.table);
    column_ref.column_sym = Interner::Intern(column_ref.column);
  }
  return IndexOfSyms(column_ref.table_sym, column_ref.column_sym);
}

namespace {

int TextCompareFold(std::string_view a, std::string_view b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    int ca = std::tolower(static_cast<unsigned char>(a[i]));
    int cb = std::tolower(static_cast<unsigned char>(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

}  // namespace

// The semantic kernels below live in evalin (declared in eval_internal.h)
// so the bytecode evaluator shares them verbatim; see that header.
namespace evalin {

// Numeric coercion in arithmetic position: SQLite and MySQL both take the
// numeric prefix of text ('12ab' → 12, 'x' → 0). An integer-looking prefix
// yields an INTEGER — that keeps '12'/5 doing integer division exactly
// like real SQLite.
SqlValue ArithValue(const SqlValue& v) {
  if (v.is_numeric()) return v;
  const char* begin = v.text_cstr();
  char* int_end = nullptr;
  long long as_int = strtoll(begin, &int_end, 10);
  char* real_end = nullptr;
  double as_real = strtod(begin, &real_end);
  if (real_end == begin) return SqlValue::Int(0);
  if (int_end == real_end) return SqlValue::Int(as_int);
  return SqlValue::Real(as_real);
}

std::string ConcatOperand(const SqlValue& v) { return v.ToDisplay(); }

}  // namespace evalin

namespace {

bool IsNegativeIntLiteral(const Expr& e) {
  return e.kind == ExprKind::kLiteral &&
         e.literal.cls() == StorageClass::kInteger && e.literal.i() < 0;
}

// Explicit collation of a comparison, SQLite's determination rule reduced
// to this grammar: the leftmost operand carrying a COLLATE operator wins;
// without one the dialect default applies (kMysqlLike folds case, the
// others compare bytes). Columns have no declared collations here, so only
// the explicit operator can override the default.
bool ExplicitCollation(const Expr* lhs, const Expr* rhs, Collation* out) {
  if (lhs != nullptr && lhs->kind == ExprKind::kCollate) {
    *out = lhs->collation;
    return true;
  }
  if (rhs != nullptr && rhs->kind == ExprKind::kCollate) {
    *out = rhs->collation;
    return true;
  }
  return false;
}

}  // namespace

namespace evalin {

// Three-valued comparison honoring dialect coercion rules. The raw Expr
// operands (nullable for synthetic comparisons inside IN/BETWEEN) are
// passed alongside the values because several injected bug classes trigger
// on the *shape* of the comparison, not just the values.
EvalResult Compare(BinaryOp op, const Expr* lhs, const Expr* rhs,
                   const SqlValue& a, const SqlValue& b,
                   const EvalContext& ctx) {
  if (ctx.BugEnabled(BugId::kNegIntCompare) &&
      ((lhs != nullptr && IsNegativeIntLiteral(*lhs)) ||
       (rhs != nullptr && IsNegativeIntLiteral(*rhs)))) {
    return EvalResult::Of(SqlValue::Bool(false));
  }
  if (ctx.BugEnabled(BugId::kCollationMismatchError) && lhs != nullptr &&
      rhs != nullptr && lhs->kind == ExprKind::kColumnRef &&
      rhs->kind == ExprKind::kColumnRef &&
      a.cls() == StorageClass::kText && b.cls() == StorageClass::kText) {
    return EvalResult::Error("could not determine collation for comparison");
  }
  if (a.is_null() || b.is_null()) return EvalResult::Of(SqlValue::Null());

  int cmp = 0;
  if (a.is_numeric() && b.is_numeric()) {
    double da = a.AsReal();
    double db = b.AsReal();
    if (ctx.BugEnabled(BugId::kRealTruncCompare) &&
        (a.cls() == StorageClass::kReal) != (b.cls() == StorageClass::kReal)) {
      da = std::trunc(da);
      db = std::trunc(db);
    }
    cmp = da < db ? -1 : (da > db ? 1 : 0);
  } else if (a.cls() == StorageClass::kText && b.cls() == StorageClass::kText) {
    Collation explicit_coll = Collation::kBinary;
    bool has_explicit = ExplicitCollation(lhs, rhs, &explicit_coll);
    bool fold = has_explicit ? explicit_coll == Collation::kNocase
                             : ctx.dialect == Dialect::kMysqlLike;
    // Injected: the NOCASE collation is applied by the equality paths but
    // the range-scan comparator falls back to binary ordering.
    if (has_explicit && explicit_coll == Collation::kNocase &&
        op != BinaryOp::kEq && op != BinaryOp::kNe &&
        ctx.BugEnabled(BugId::kCollateNocaseRange)) {
      fold = false;
    }
    if (fold) {
      // Case-insensitive: MySQL's default collation, or an explicit
      // COLLATE NOCASE in any dialect.
      cmp = TextCompareFold(a.text(), b.text());
    } else {
      cmp = a.text().compare(b.text());
      cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    if (op == BinaryOp::kEq && cmp == 0 && a.text().size() > 1 &&
        ctx.BugEnabled(BugId::kTextEqInterning)) {
      return EvalResult::Of(SqlValue::Bool(false));
    }
  } else {
    // Mixed numeric/text.
    switch (ctx.dialect) {
      case Dialect::kSqliteFlex:
        // Storage-class ordering: numerics sort before text.
        cmp = ValueCompare(a, b);
        break;
      case Dialect::kMysqlLike: {
        double da;
        double db;
        if (a.is_numeric()) {
          da = a.AsReal();
          db = ctx.BugEnabled(BugId::kStrNumCoercionPrefix)
                   ? 0.0
                   : ParseNumericPrefix(b.text_cstr());
        } else {
          da = ctx.BugEnabled(BugId::kStrNumCoercionPrefix)
                   ? 0.0
                   : ParseNumericPrefix(a.text_cstr());
          db = b.AsReal();
        }
        cmp = da < db ? -1 : (da > db ? 1 : 0);
        break;
      }
      case Dialect::kPostgresStrict:
        return EvalResult::Error("operator does not exist: mixed-type "
                                 "comparison");
    }
  }

  bool truth = false;
  switch (op) {
    case BinaryOp::kEq:
      truth = cmp == 0;
      break;
    case BinaryOp::kNe:
      truth = cmp != 0;
      break;
    case BinaryOp::kLt:
      truth = cmp < 0;
      break;
    case BinaryOp::kLe:
      truth = cmp <= 0;
      break;
    case BinaryOp::kGt:
      truth = cmp > 0;
      break;
    case BinaryOp::kGe:
      truth = cmp >= 0;
      break;
    default:
      return EvalResult::Error("not a comparison");
  }
  return EvalResult::Of(SqlValue::Bool(truth));
}

EvalResult Arithmetic(const Expr& node, const SqlValue& a, const SqlValue& b,
                      const EvalContext& ctx) {
  if (ctx.dialect == Dialect::kPostgresStrict &&
      (a.cls() == StorageClass::kText || b.cls() == StorageClass::kText)) {
    return EvalResult::Error("operator does not exist: arithmetic on text");
  }
  if (a.is_null() || b.is_null()) return EvalResult::Of(SqlValue::Null());

  BinaryOp op = node.bop;
  SqlValue ca = ArithValue(a);
  SqlValue cb = ArithValue(b);
  bool int_math = ca.cls() == StorageClass::kInteger &&
                  cb.cls() == StorageClass::kInteger;
  if (op == BinaryOp::kDiv) {
    double divisor = cb.AsReal();
    if (divisor == 0.0) {
      if (ctx.BugEnabled(BugId::kDivZeroError)) {
        return EvalResult::Error("division by zero (spurious)");
      }
      if (ctx.dialect == Dialect::kPostgresStrict) {
        return EvalResult::Error("division by zero");
      }
      return EvalResult::Of(SqlValue::Null());
    }
    if (int_math) {
      // Integer division truncates toward zero in all three dialects.
      return EvalResult::Of(SqlValue::Int(ca.i() / cb.i()));
    }
    return EvalResult::Of(SqlValue::Real(ca.AsReal() / divisor));
  }

  SqlValue result;
  if (int_math) {
    uint64_t ua = static_cast<uint64_t>(ca.i());
    uint64_t ub = static_cast<uint64_t>(cb.i());
    uint64_t ur = 0;
    switch (op) {
      case BinaryOp::kAdd:
        ur = ua + ub;
        break;
      case BinaryOp::kSub:
        ur = ua - ub;
        break;
      case BinaryOp::kMul:
        ur = ua * ub;
        break;
      default:
        return EvalResult::Error("not arithmetic");
    }
    int64_t sr = static_cast<int64_t>(ur);
    if (op == BinaryOp::kSub && sr < 0 &&
        ctx.BugEnabled(BugId::kUnsignedSubWrap)) {
      // Models an unsigned-subtraction wraparound: the negative result comes
      // back as a huge positive value.
      result = SqlValue::Real(18446744073709551616.0 +
                              static_cast<double>(sr));
    } else {
      result = SqlValue::Int(sr);
    }
  } else {
    double da = ca.AsReal();
    double db = cb.AsReal();
    double dr = 0;
    switch (op) {
      case BinaryOp::kAdd:
        dr = da + db;
        break;
      case BinaryOp::kSub:
        dr = da - db;
        break;
      case BinaryOp::kMul:
        dr = da * db;
        break;
      default:
        return EvalResult::Error("not arithmetic");
    }
    result = SqlValue::Real(dr);
  }

  if (ctx.BugEnabled(BugId::kNumericOverflowError) &&
      std::fabs(result.AsReal()) > 50.0) {
    return EvalResult::Error("numeric value out of range (spurious)");
  }
  return EvalResult::Of(std::move(result));
}

std::string AsciiFold(std::string s, bool to_upper) {
  for (char& c : s) {
    c = to_upper
            ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
            : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

// Scalar comparator for LEAST/GREATEST: explicit NOCASE-style folding only
// under the MySQL dialect's default collation, byte-wise elsewhere, with
// the cross-storage-class ordering of ValueCompare.
int ScalarMinMaxCompare(const SqlValue& a, const SqlValue& b,
                        const EvalContext& ctx) {
  if (ctx.dialect == Dialect::kMysqlLike &&
      a.cls() == StorageClass::kText && b.cls() == StorageClass::kText) {
    return TextCompareFold(a.text(), b.text());
  }
  return ValueCompare(a, b);
}

// Registry-driven function evaluation: arity and the NULL-propagation rule
// come from the FunctionSig, so the evaluator cannot drift from what the
// generator was promised when it consulted the same registry.
EvalResult EvaluateFunction(const Expr& expr, const RowView& row,
                            const EvalContext& ctx) {
  const FunctionSig& sig = LookupFunction(expr.func);
  if (!sig.available(ctx.dialect)) {
    return EvalResult::Error(std::string("no such function: ") +
                             sig.names[0]);
  }
  int argc = static_cast<int>(expr.args.size());
  if (argc < sig.min_args || argc > sig.max_args) {
    return EvalResult::Error(std::string("wrong number of arguments to ") +
                             sig.NameFor(ctx.dialect));
  }

  // COALESCE evaluates lazily (a later argument must not be able to fail
  // the call once an earlier one is non-NULL); everything else evaluates
  // all arguments up front and applies the registry's NULL rule.
  if (expr.func == FuncId::kCoalesce) {
    bool first = true;
    for (const ExprPtr& arg : expr.args) {
      EvalResult v = Evaluate(*arg, row, ctx);
      if (v.error) return v;
      // Injected: the first-argument NULL check short-circuits the whole
      // call to NULL instead of falling through to the next argument.
      if (first && v.value.is_null() &&
          ctx.BugEnabled(BugId::kCoalesceFirstNull)) {
        return EvalResult::Of(SqlValue::Null());
      }
      first = false;
      if (!v.value.is_null()) return v;
    }
    return EvalResult::Of(SqlValue::Null());
  }

  std::vector<SqlValue> args;
  args.reserve(expr.args.size());
  for (const ExprPtr& arg : expr.args) {
    EvalResult v = Evaluate(*arg, row, ctx);
    if (v.error) return v;
    args.push_back(std::move(v.value));
  }
  return ApplyFunction(expr, std::move(args), ctx);
}

EvalResult ApplyFunction(const Expr& expr, std::vector<SqlValue> args,
                         const EvalContext& ctx) {
  const FunctionSig& sig = LookupFunction(expr.func);
  bool strict = ctx.dialect == Dialect::kPostgresStrict;
  if (sig.null_rule == NullRule::kPropagate) {
    for (const SqlValue& v : args) {
      if (v.is_null()) return EvalResult::Of(SqlValue::Null());
    }
  }

  switch (expr.func) {
    case FuncId::kAbs: {
      const SqlValue& v = args[0];
      if (v.cls() == StorageClass::kText) {
        if (strict) {
          return EvalResult::Error("function abs(text) does not exist");
        }
        SqlValue n = ArithValue(v);
        return EvalResult::Of(n.cls() == StorageClass::kInteger
                                  ? SqlValue::Int(n.i() < 0 ? -n.i() : n.i())
                                  : SqlValue::Real(std::fabs(n.r())));
      }
      if (v.cls() == StorageClass::kInteger) {
        return EvalResult::Of(SqlValue::Int(v.i() < 0 ? -v.i() : v.i()));
      }
      return EvalResult::Of(SqlValue::Real(std::fabs(v.r())));
    }

    case FuncId::kLength: {
      const SqlValue& v = args[0];
      if (v.cls() != StorageClass::kText && strict) {
        return EvalResult::Error("function length(non-text) does not exist");
      }
      size_t length = v.cls() == StorageClass::kText ? v.text().size()
                                                     : v.ToDisplay().size();
      return EvalResult::Of(SqlValue::Int(static_cast<int64_t>(length)));
    }

    case FuncId::kUpper:
    case FuncId::kLower: {
      const SqlValue& v = args[0];
      if (v.cls() != StorageClass::kText && strict) {
        return EvalResult::Error("function upper/lower(non-text) does not "
                                 "exist");
      }
      std::string s = v.cls() == StorageClass::kText ? std::string(v.text())
                                                     : v.ToDisplay();
      return EvalResult::Of(SqlValue::Text(
          AsciiFold(std::move(s), expr.func == FuncId::kUpper)));
    }

    case FuncId::kNullif: {
      EvalResult eq = Compare(BinaryOp::kEq, expr.args[0].get(),
                              expr.args[1].get(), args[0], args[1], ctx);
      if (eq.error) return eq;
      if (Truthiness(eq.value, ctx.dialect) == Bool3::kTrue) {
        return EvalResult::Of(SqlValue::Null());
      }
      return EvalResult::Of(args[0]);
    }

    case FuncId::kLeast:
    case FuncId::kGreatest: {
      bool want_greatest = expr.func == FuncId::kGreatest;
      size_t best = 0;
      for (size_t i = 1; i < args.size(); ++i) {
        int cmp = ScalarMinMaxCompare(args[i], args[best], ctx);
        if (want_greatest ? cmp > 0 : cmp < 0) best = i;
      }
      return EvalResult::Of(args[best]);
    }

    case FuncId::kIfnull:
      return EvalResult::Of(args[0].is_null() ? args[1] : args[0]);

    case FuncId::kCoalesce:  // handled above
    case FuncId::kNumFuncs:
      break;
  }
  return EvalResult::Error("unknown function");
}

// CAST per the SQLite affinity-conversion rules the three dialects share
// in this model: text→INTEGER takes the integer prefix, text→REAL the
// numeric prefix, REAL→INTEGER truncates toward zero, and anything→TEXT
// uses the engine's value rendering. kPostgresStrict rejects text sources
// for numeric targets (invalid input syntax) instead of prefix-parsing.
EvalResult EvaluateCast(const Expr& expr, const SqlValue& v,
                        const EvalContext& ctx) {
  if (v.is_null()) return EvalResult::Of(SqlValue::Null());
  bool strict = ctx.dialect == Dialect::kPostgresStrict;
  switch (expr.cast_to) {
    case Affinity::kInteger: {
      if (v.cls() == StorageClass::kInteger) return EvalResult::Of(v);
      if (v.cls() == StorageClass::kReal) {
        // Injected: "truncation" implemented as rounding away from zero —
        // off by one for every fractional value.
        if (ctx.BugEnabled(BugId::kCastTruncAffinity)) {
          double away = v.r() < 0 ? std::floor(v.r()) : std::ceil(v.r());
          return EvalResult::Of(SqlValue::Int(static_cast<int64_t>(away)));
        }
        return EvalResult::Of(
            SqlValue::Int(static_cast<int64_t>(std::trunc(v.r()))));
      }
      if (strict) {
        return EvalResult::Error("invalid input syntax for type integer");
      }
      const char* begin = v.text_cstr();
      char* end = nullptr;
      long long prefix = strtoll(begin, &end, 10);
      return EvalResult::Of(SqlValue::Int(end == begin ? 0 : prefix));
    }
    case Affinity::kReal: {
      if (v.cls() == StorageClass::kReal) return EvalResult::Of(v);
      if (v.cls() == StorageClass::kInteger) {
        return EvalResult::Of(SqlValue::Real(static_cast<double>(v.i())));
      }
      if (strict) {
        return EvalResult::Error("invalid input syntax for type double "
                                 "precision");
      }
      return EvalResult::Of(SqlValue::Real(ParseNumericPrefix(v.text_cstr())));
    }
    case Affinity::kText:
      return EvalResult::Of(SqlValue::Text(v.ToDisplay()));
  }
  return EvalResult::Of(v);
}

}  // namespace evalin

// Unqualified names below keep reading as before the evalin split.
using evalin::Compare;
using evalin::Arithmetic;
using evalin::EvaluateFunction;
using evalin::EvaluateCast;
using evalin::ConcatOperand;

bool LikeMatch(const std::string& text, const std::string& pattern,
               bool case_insensitive, int escape) {
  // Tokenize the pattern first so an escaped wildcard becomes an ordinary
  // literal token; a trailing escape character matches itself literally.
  enum class Tok : char { kAnyOne, kAnySeq, kLiteral };
  std::vector<std::pair<Tok, char>> tokens;
  tokens.reserve(pattern.size());
  for (size_t i = 0; i < pattern.size(); ++i) {
    char c = pattern[i];
    if (escape >= 0 && c == static_cast<char>(escape)) {
      // A pattern ending in a bare escape character matches nothing in
      // real SQLite; anything else escaped is an ordinary literal.
      if (i + 1 >= pattern.size()) return false;
      tokens.emplace_back(Tok::kLiteral, pattern[++i]);
    } else if (c == '_') {
      tokens.emplace_back(Tok::kAnyOne, c);
    } else if (c == '%') {
      tokens.emplace_back(Tok::kAnySeq, c);
    } else {
      tokens.emplace_back(Tok::kLiteral, c);
    }
  }

  // Iterative glob matcher with backtracking over the last kAnySeq.
  size_t ti = 0;
  size_t pi = 0;
  size_t star_pi = std::string::npos;
  size_t star_ti = 0;
  auto norm = [&](char c) {
    return case_insensitive
               ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
               : c;
  };
  while (ti < text.size()) {
    if (pi < tokens.size() &&
        (tokens[pi].first == Tok::kAnyOne ||
         (tokens[pi].first == Tok::kLiteral &&
          norm(tokens[pi].second) == norm(text[ti])))) {
      ++ti;
      ++pi;
    } else if (pi < tokens.size() && tokens[pi].first == Tok::kAnySeq) {
      star_pi = pi++;
      star_ti = ti;
    } else if (star_pi != std::string::npos) {
      pi = star_pi + 1;
      ti = ++star_ti;
    } else {
      return false;
    }
  }
  while (pi < tokens.size() && tokens[pi].first == Tok::kAnySeq) ++pi;
  return pi == tokens.size();
}

Bool3 Truthiness(const SqlValue& v, Dialect dialect) {
  (void)dialect;  // all three dialects agree on WHERE truthiness here
  switch (v.cls()) {
    case StorageClass::kNull:
      return Bool3::kNull;
    case StorageClass::kInteger:
      return v.i() != 0 ? Bool3::kTrue : Bool3::kFalse;
    case StorageClass::kReal:
      return v.r() != 0.0 ? Bool3::kTrue : Bool3::kFalse;
    case StorageClass::kText:
      return ParseNumericPrefix(v.text_cstr()) != 0.0 ? Bool3::kTrue
                                                      : Bool3::kFalse;
  }
  return Bool3::kNull;
}

EvalResult Evaluate(const Expr& expr, const RowView& row,
                    const EvalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return EvalResult::Of(expr.literal);

    case ExprKind::kColumnRef: {
      if (row.schema == nullptr || row.values == nullptr) {
        return EvalResult::Error("column reference outside a row context");
      }
      int idx = row.schema->Resolve(expr);
      if (idx < 0) {
        return EvalResult::Error("no such column: " + expr.column);
      }
      return EvalResult::Of((*row.values)[static_cast<size_t>(idx)]);
    }

    case ExprKind::kUnary: {
      EvalResult operand = Evaluate(*expr.args[0], row, ctx);
      if (operand.error) return operand;
      if (expr.uop == UnaryOp::kNot) {
        Bool3 b = Truthiness(operand.value, ctx.dialect);
        if (b == Bool3::kNull && ctx.BugEnabled(BugId::kNotNullNot)) {
          return EvalResult::Of(SqlValue::Bool(false));
        }
        return EvalResult::Of(SqlValue::FromBool3(Not3(b)));
      }
      // Unary minus.
      const SqlValue& v = operand.value;
      if (v.is_null()) return EvalResult::Of(SqlValue::Null());
      if (v.cls() == StorageClass::kInteger) {
        return EvalResult::Of(SqlValue::Int(-v.i()));
      }
      if (v.cls() == StorageClass::kReal) {
        return EvalResult::Of(SqlValue::Real(-v.r()));
      }
      if (ctx.dialect == Dialect::kPostgresStrict) {
        return EvalResult::Error("operator does not exist: -text");
      }
      return EvalResult::Of(SqlValue::Real(-ParseNumericPrefix(v.text_cstr())));
    }

    case ExprKind::kBinary: {
      if (expr.bop == BinaryOp::kAnd || expr.bop == BinaryOp::kOr) {
        EvalResult lhs = Evaluate(*expr.args[0], row, ctx);
        if (lhs.error) return lhs;
        EvalResult rhs = Evaluate(*expr.args[1], row, ctx);
        if (rhs.error) return rhs;
        Bool3 a = Truthiness(lhs.value, ctx.dialect);
        Bool3 b = Truthiness(rhs.value, ctx.dialect);
        Bool3 r = expr.bop == BinaryOp::kAnd ? And3(a, b) : Or3(a, b);
        return EvalResult::Of(SqlValue::FromBool3(r));
      }
      EvalResult lhs = Evaluate(*expr.args[0], row, ctx);
      if (lhs.error) return lhs;
      EvalResult rhs = Evaluate(*expr.args[1], row, ctx);
      if (rhs.error) return rhs;
      if (IsComparisonOp(expr.bop)) {
        return Compare(expr.bop, expr.args[0].get(), expr.args[1].get(),
                       lhs.value, rhs.value, ctx);
      }
      if (IsArithmeticOp(expr.bop)) {
        return Arithmetic(expr, lhs.value, rhs.value, ctx);
      }
      // Concat.
      if (ctx.BugEnabled(BugId::kConcatNumericError) &&
          (lhs.value.is_numeric() || rhs.value.is_numeric())) {
        return EvalResult::Error("cannot concatenate non-text operand "
                                 "(spurious)");
      }
      if (ctx.dialect == Dialect::kPostgresStrict &&
          ((lhs.value.is_numeric()) || (rhs.value.is_numeric()))) {
        return EvalResult::Error("operator does not exist: || with non-text");
      }
      if (lhs.value.is_null() || rhs.value.is_null()) {
        return EvalResult::Of(SqlValue::Null());
      }
      return EvalResult::Of(SqlValue::Text(ConcatOperand(lhs.value) +
                                           ConcatOperand(rhs.value)));
    }

    case ExprKind::kIsNull: {
      if (ctx.BugEnabled(BugId::kIsNullArithLost) &&
          expr.args[0]->kind == ExprKind::kBinary &&
          IsArithmeticOp(expr.args[0]->bop)) {
        // NULL propagation through arithmetic is lost: IS NULL → FALSE,
        // IS NOT NULL → TRUE, regardless of the operand.
        return EvalResult::Of(SqlValue::Bool(expr.negated));
      }
      EvalResult operand = Evaluate(*expr.args[0], row, ctx);
      if (operand.error) return operand;
      bool is_null = operand.value.is_null();
      return EvalResult::Of(SqlValue::Bool(is_null != expr.negated));
    }

    case ExprKind::kInList: {
      if (ctx.BugEnabled(BugId::kDupInListError)) {
        for (size_t i = 1; i < expr.args.size(); ++i) {
          for (size_t j = i + 1; j < expr.args.size(); ++j) {
            if (expr.args[i]->kind == ExprKind::kLiteral &&
                expr.args[j]->kind == ExprKind::kLiteral &&
                ValueEquals(expr.args[i]->literal, expr.args[j]->literal)) {
              return EvalResult::Error("duplicate value in IN list "
                                       "(spurious)");
            }
          }
        }
      }
      EvalResult probe = Evaluate(*expr.args[0], row, ctx);
      if (probe.error) return probe;
      if (probe.value.is_null()) return EvalResult::Of(SqlValue::Null());
      size_t limit = expr.args.size();
      if (ctx.BugEnabled(BugId::kInListFirstOnly) && limit > 2) limit = 2;
      bool saw_null = false;
      for (size_t i = 1; i < limit; ++i) {
        EvalResult item = Evaluate(*expr.args[i], row, ctx);
        if (item.error) return item;
        EvalResult eq = Compare(BinaryOp::kEq, expr.args[0].get(),
                                expr.args[i].get(), probe.value, item.value,
                                ctx);
        if (eq.error) return eq;
        Bool3 b = Truthiness(eq.value, ctx.dialect);
        if (b == Bool3::kTrue) {
          return EvalResult::Of(SqlValue::Bool(!expr.negated));
        }
        if (b == Bool3::kNull) saw_null = true;
      }
      // Injected: the UNKNOWN contributed by a NULL list element is
      // dropped, collapsing x IN (..., NULL) to FALSE (NOT IN to TRUE).
      if (saw_null && !ctx.BugEnabled(BugId::kInListNullSemantics)) {
        return EvalResult::Of(SqlValue::Null());
      }
      return EvalResult::Of(SqlValue::Bool(expr.negated));
    }

    case ExprKind::kBetween: {
      if (ctx.BugEnabled(BugId::kBetweenSwapError) &&
          expr.args[1]->kind == ExprKind::kLiteral &&
          expr.args[2]->kind == ExprKind::kLiteral &&
          !expr.args[1]->literal.is_null() &&
          !expr.args[2]->literal.is_null() &&
          ValueCompare(expr.args[1]->literal, expr.args[2]->literal) > 0) {
        return EvalResult::Error("BETWEEN range bounds inverted (spurious)");
      }
      EvalResult v = Evaluate(*expr.args[0], row, ctx);
      if (v.error) return v;
      EvalResult lo = Evaluate(*expr.args[1], row, ctx);
      if (lo.error) return lo;
      EvalResult hi = Evaluate(*expr.args[2], row, ctx);
      if (hi.error) return hi;
      EvalResult above = Compare(BinaryOp::kGe, expr.args[0].get(),
                                 expr.args[1].get(), v.value, lo.value, ctx);
      if (above.error) return above;
      EvalResult below = Compare(BinaryOp::kLe, expr.args[0].get(),
                                 expr.args[2].get(), v.value, hi.value, ctx);
      if (below.error) return below;
      Bool3 r = And3(Truthiness(above.value, ctx.dialect),
                     Truthiness(below.value, ctx.dialect));
      if (expr.negated) r = Not3(r);
      return EvalResult::Of(SqlValue::FromBool3(r));
    }

    case ExprKind::kLike: {
      EvalResult v = Evaluate(*expr.args[0], row, ctx);
      if (v.error) return v;
      EvalResult p = Evaluate(*expr.args[1], row, ctx);
      if (p.error) return p;
      if (v.value.is_null() || p.value.is_null()) {
        return EvalResult::Of(SqlValue::Null());
      }
      if (ctx.dialect == Dialect::kPostgresStrict &&
          (v.value.cls() != StorageClass::kText ||
           p.value.cls() != StorageClass::kText)) {
        return EvalResult::Error("operator does not exist: LIKE on non-text");
      }
      std::string text = ConcatOperand(v.value);
      std::string pattern = ConcatOperand(p.value);
      if (ctx.BugEnabled(BugId::kLikeAnchored) && !pattern.empty() &&
          pattern.front() == '%') {
        pattern.erase(pattern.begin());
      }
      int escape = -1;
      if (expr.args.size() > 2 && expr.args[2] != nullptr) {
        EvalResult esc = Evaluate(*expr.args[2], row, ctx);
        if (esc.error) return esc;
        if (esc.value.cls() != StorageClass::kText ||
            esc.value.text().size() != 1) {
          return EvalResult::Error("ESCAPE expression must be a single "
                                   "character");
        }
        // Injected: the ESCAPE clause parses but the matcher never learns
        // about it — escaped wildcards stay wildcards.
        if (!ctx.BugEnabled(BugId::kLikeEscapeMiss)) {
          escape = static_cast<unsigned char>(esc.value.text()[0]);
        }
      }
      bool fold = ctx.dialect != Dialect::kPostgresStrict;
      bool match = LikeMatch(text, pattern, fold, escape);
      return EvalResult::Of(SqlValue::Bool(match != expr.negated));
    }

    case ExprKind::kFunctionCall:
      return EvaluateFunction(expr, row, ctx);

    case ExprKind::kCast: {
      EvalResult operand = Evaluate(*expr.args[0], row, ctx);
      if (operand.error) return operand;
      return EvaluateCast(expr, operand.value, ctx);
    }

    case ExprKind::kCase: {
      size_t arms = expr.CaseArmCount();
      for (size_t i = 0; i < arms; ++i) {
        EvalResult when = Evaluate(*expr.args[2 * i], row, ctx);
        if (when.error) return when;
        if (Truthiness(when.value, ctx.dialect) == Bool3::kTrue) {
          return Evaluate(*expr.args[2 * i + 1], row, ctx);
        }
      }
      // Injected: the fall-through path forgets the ELSE arm exists.
      if (expr.case_has_else && !ctx.BugEnabled(BugId::kCaseElseSkip)) {
        return Evaluate(*expr.CaseElse(), row, ctx);
      }
      return EvalResult::Of(SqlValue::Null());
    }

    case ExprKind::kCollate:
      // The COLLATE operator changes how an enclosing comparison orders
      // text (see ExplicitCollation); the value itself passes through.
      return Evaluate(*expr.args[0], row, ctx);

    case ExprKind::kAggregate:
      // Aggregates never reach the scalar evaluator: AggregateSelect
      // substitutes them with their computed values first.
      return EvalResult::Error("aggregate function in scalar context");
  }
  return EvalResult::Error("unknown expression kind");
}

Bool3 EvaluatePredicate(const Expr& expr, const RowView& row,
                        const EvalContext& ctx, bool* error) {
  EvalResult r = Evaluate(expr, row, ctx);
  if (r.error) {
    if (error != nullptr) *error = true;
    return Bool3::kNull;
  }
  if (error != nullptr) *error = false;
  return Truthiness(r.value, ctx.dialect);
}

bool JoinRows(const std::vector<JoinInput>& inputs,
              const std::vector<JoinClause>& joins, const EvalContext& ctx,
              std::vector<std::vector<SqlValue>>* out, std::string* error,
              size_t* null_padded_rows) {
  out->clear();
  if (null_padded_rows != nullptr) *null_padded_rows = 0;
  if (inputs.empty()) return true;
  if (!joins.empty() && joins.size() != inputs.size() - 1) {
    if (error != nullptr) *error = "join clause count does not match FROM";
    return false;
  }

  RowSchema schema = inputs[0].schema;
  std::vector<std::vector<SqlValue>> acc(inputs[0].rows->begin(),
                                         inputs[0].rows->end());
  for (size_t t = 1; t < inputs.size(); ++t) {
    const JoinInput& right = inputs[t];
    const JoinClause* join = joins.empty() ? nullptr : &joins[t - 1];
    JoinKind kind = join != nullptr ? join->kind : JoinKind::kCross;
    const Expr* on =
        (join != nullptr && join->on != nullptr) ? join->on.get() : nullptr;
    if (on == nullptr && kind != JoinKind::kCross) {
      if (error != nullptr) *error = "join without ON condition";
      return false;
    }

    RowSchema next_schema = schema;
    next_schema.cols.insert(next_schema.cols.end(), right.schema.cols.begin(),
                            right.schema.cols.end());
    if (schema.has_ids() && right.schema.has_ids()) {
      next_schema.ids.insert(next_schema.ids.end(), right.schema.ids.begin(),
                             right.schema.ids.end());
    } else {
      next_schema.ids.clear();
    }
    // The ON condition runs once per row *pair* — compile it against the
    // combined schema instead of re-resolving columns pair by pair.
    CompiledExpr on_code;
    if (on != nullptr) on_code = CompileExpr(*on, next_schema, ctx.dialect);
    std::vector<std::vector<SqlValue>> next;
    for (const std::vector<SqlValue>& lrow : acc) {
      bool matched = false;
      for (const std::vector<SqlValue>& rrow : *right.rows) {
        std::vector<SqlValue> combined;
        combined.reserve(lrow.size() + rrow.size());
        combined.insert(combined.end(), lrow.begin(), lrow.end());
        combined.insert(combined.end(), rrow.begin(), rrow.end());
        if (on != nullptr) {
          RowView view{&next_schema, &combined};
          EvalResult r = on_code.Run(view, ctx);
          if (r.error) {
            if (error != nullptr) *error = r.message;
            return false;
          }
          if (Truthiness(r.value, ctx.dialect) != Bool3::kTrue) continue;
        }
        next.push_back(std::move(combined));
        matched = true;
        // Injected: the scan wrongly assumes the right side is unique on
        // the join key and stops after the first matching right row.
        if (on != nullptr && ctx.BugEnabled(BugId::kJoinDupRightMatch)) {
          break;
        }
      }
      if (!matched && kind == JoinKind::kLeft) {
        std::vector<SqlValue> padded;
        padded.reserve(lrow.size() + right.schema.cols.size());
        padded.insert(padded.end(), lrow.begin(), lrow.end());
        padded.resize(lrow.size() + right.schema.cols.size());  // NULL cells
        next.push_back(std::move(padded));
        if (null_padded_rows != nullptr) ++*null_padded_rows;
      }
    }
    acc = std::move(next);
    schema = std::move(next_schema);
  }
  *out = std::move(acc);
  return true;
}

namespace {

// DISTINCT cell equality: NULLs equal, numerics numeric. The
// kDistinctTruncMerge bug compares mixed/REAL numerics by truncated value,
// wrongly merging rows like (1.5) into an earlier (1.0).
bool DistinctCellsEqual(const SqlValue& a, const SqlValue& b,
                        const EvalContext& ctx) {
  if (ctx.BugEnabled(BugId::kDistinctTruncMerge) && a.is_numeric() &&
      b.is_numeric() &&
      (a.cls() == StorageClass::kReal || b.cls() == StorageClass::kReal)) {
    return std::trunc(a.AsReal()) == std::trunc(b.AsReal());
  }
  return ValueEquals(a, b);
}

bool DistinctRowsEqual(const std::vector<SqlValue>& a,
                       const std::vector<SqlValue>& b,
                       const EvalContext& ctx) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!DistinctCellsEqual(a[i], b[i], ctx)) return false;
  }
  return true;
}

}  // namespace

std::vector<size_t> DistinctKeepIndexes(
    const std::vector<std::vector<SqlValue>>& rows, const EvalContext& ctx) {
  std::vector<size_t> kept;
  // Sort-based dedup for clean equality: ValueCompare's total order has
  // compare==0 exactly when ValueEquals holds (NULLs equal, numerics by
  // value, text by bytes — there is no second non-numeric class), so the
  // first index of each equal-run is the first occurrence. The
  // kDistinctTruncMerge bug hook wants pairwise equality under a relation
  // that is not order-consistent (trunc buckets), so it keeps the
  // quadratic scan below.
  if (!ctx.BugEnabled(BugId::kDistinctTruncMerge) && rows.size() > 16) {
    std::vector<size_t> order(rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&rows](size_t x, size_t y) {
      const std::vector<SqlValue>& a = rows[x];
      const std::vector<SqlValue>& b = rows[y];
      size_t common = std::min(a.size(), b.size());
      for (size_t i = 0; i < common; ++i) {
        int c = ValueCompare(a[i], b[i]);
        if (c != 0) return c < 0;
      }
      if (a.size() != b.size()) return a.size() < b.size();
      return x < y;  // stable within an equal-run: first occurrence leads
    });
    for (size_t i = 0; i < order.size(); ++i) {
      if (i > 0 && DistinctRowsEqual(rows[order[i]], rows[order[i - 1]], ctx))
        continue;
      kept.push_back(order[i]);
    }
    std::sort(kept.begin(), kept.end());
    return kept;
  }
  // Quadratic first-occurrence scan for small results and the bug hook.
  for (size_t i = 0; i < rows.size(); ++i) {
    bool duplicate = false;
    for (size_t k : kept) {
      if (DistinctRowsEqual(rows[i], rows[k], ctx)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) kept.push_back(i);
  }
  return kept;
}

bool EvalOrderKeys(const std::vector<OrderByItem>& order, const RowView& row,
                   const EvalContext& ctx, std::vector<SqlValue>* keys,
                   std::string* error) {
  keys->clear();
  keys->reserve(order.size());
  for (const OrderByItem& item : order) {
    if (item.expr == nullptr) {
      if (error != nullptr) *error = "ORDER BY without key expression";
      return false;
    }
    EvalResult r = Evaluate(*item.expr, row, ctx);
    if (r.error) {
      if (error != nullptr) *error = r.message;
      return false;
    }
    keys->push_back(std::move(r.value));
  }
  return true;
}

int CompareOrderKeys(const std::vector<SqlValue>& a,
                     const std::vector<SqlValue>& b,
                     const std::vector<OrderByItem>& order) {
  for (size_t i = 0; i < order.size() && i < a.size() && i < b.size(); ++i) {
    int c = ValueCompare(a[i], b[i]);
    if (c != 0) return order[i].descending ? -c : c;
  }
  return 0;
}

bool SortIndexesByOrder(const RowSchema& schema,
                        const std::vector<std::vector<SqlValue>>& rows,
                        const std::vector<OrderByItem>& order,
                        const EvalContext& ctx, std::vector<size_t>* perm,
                        std::string* error) {
  if (rows.empty()) {
    perm->clear();
    return true;
  }
  // Key expressions run once per row: compile each once and evaluate the
  // programs per row. EvalOrderKeys stays as the API for callers that only
  // sort a handful of rows.
  std::vector<CompiledExpr> key_code;
  key_code.reserve(order.size());
  for (const OrderByItem& item : order) {
    if (item.expr == nullptr) {
      if (error != nullptr) *error = "ORDER BY without key expression";
      return false;
    }
    key_code.push_back(CompileExpr(*item.expr, schema, ctx.dialect));
  }
  std::vector<std::vector<SqlValue>> keys(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    RowView view{&schema, &rows[i]};
    keys[i].reserve(order.size());
    for (const CompiledExpr& code : key_code) {
      EvalResult r = code.Run(view, ctx);
      if (r.error) {
        if (error != nullptr) *error = r.message;
        return false;
      }
      keys[i].push_back(std::move(r.value));
    }
  }
  perm->resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) (*perm)[i] = i;
  std::stable_sort(perm->begin(), perm->end(), [&](size_t x, size_t y) {
    return CompareOrderKeys(keys[x], keys[y], order) < 0;
  });
  return true;
}

void ApplyLimit(int64_t limit, bool ordered, const EvalContext& ctx,
                std::vector<std::vector<SqlValue>>* rows) {
  if (limit < 0) return;
  size_t n = static_cast<size_t>(limit);
  // Injected: with an ORDER BY present and a limit that binds the result,
  // the truncation loop runs one iteration short.
  if (ctx.BugEnabled(BugId::kOrderLimitOffByOne) && ordered && n >= 1 &&
      n <= rows->size()) {
    rows->resize(n - 1);
    return;
  }
  if (rows->size() > n) rows->resize(n);
}

// ---------------------------------------------------------------------------
// Grouping / aggregation core
// ---------------------------------------------------------------------------

bool AggAccumulator::Add(const SqlValue& v, std::string* error) {
  ++rows_seen_;
  if (v.is_null()) return true;
  ++non_null_;
  if (distinct_) {
    for (const SqlValue& s : seen_) {
      if (ValueEquals(s, v)) return true;
    }
    seen_.push_back(v);
  }
  ++distinct_seen_;
  switch (func_) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (v.cls() == StorageClass::kText) {
        if (ctx_.dialect == Dialect::kPostgresStrict) {
          if (error != nullptr) {
            *error = std::string("function ") + AggFuncName(func_) +
                     "(text) does not exist";
          }
          return false;
        }
        // Flexible dialects coerce by numeric prefix, as sqlite's sumStep
        // does, and the result becomes approximate (REAL).
        approx_ = true;
        real_sum_ += ParseNumericPrefix(v.text_cstr());
      } else if (v.cls() == StorageClass::kInteger && !approx_) {
        // Wrap-safe addition; the real accumulator shadows the integer one
        // so a later REAL operand can take over seamlessly.
        int_sum_ = static_cast<int64_t>(static_cast<uint64_t>(int_sum_) +
                                        static_cast<uint64_t>(v.i()));
        real_sum_ += static_cast<double>(v.i());
      } else {
        approx_ = approx_ || v.cls() == StorageClass::kReal;
        real_sum_ += v.AsReal();
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (extreme_.is_null()) {
        extreme_ = v;
      } else {
        int c = ValueCompare(v, extreme_);
        if ((func_ == AggFunc::kMin && c < 0) ||
            (func_ == AggFunc::kMax && c > 0)) {
          extreme_ = v;
        }
      }
      break;
    case AggFunc::kNumAggFuncs:
      break;
  }
  return true;
}

SqlValue AggAccumulator::Final() const {
  // Injected (sqlite): SUM/MIN/MAX over an empty input return 0 where SQL
  // says NULL (COUNT legitimately returns 0, so it stays exempt).
  if (ctx_.BugEnabled(BugId::kAggEmptyGroupZero) && rows_seen_ == 0 &&
      (func_ == AggFunc::kSum || func_ == AggFunc::kMin ||
       func_ == AggFunc::kMax)) {
    return SqlValue::Int(0);
  }
  switch (func_) {
    case AggFunc::kCount:
      // Injected (mysql): COUNT(DISTINCT e) forgets the DISTINCT and
      // counts every non-NULL operand.
      if (distinct_ && ctx_.BugEnabled(BugId::kCountDistinctDup)) {
        return SqlValue::Int(static_cast<int64_t>(non_null_));
      }
      // Exactly one feeding mode is used per accumulator: AddRow for
      // COUNT(*), Add for COUNT(e).
      return SqlValue::Int(static_cast<int64_t>(star_rows_ + distinct_seen_));
    case AggFunc::kSum: {
      if (distinct_seen_ == 0) return SqlValue::Null();
      if (approx_) return SqlValue::Real(real_sum_);
      int64_t s = int_sum_;
      // Injected (sqlite): the integer SUM accumulator wraps at a toy
      // width, as if summed in a too-narrow register.
      if (ctx_.BugEnabled(BugId::kSumOverflowWrap)) {
        while (s > 25) s -= 51;
        while (s < -25) s += 51;
      }
      return SqlValue::Int(s);
    }
    case AggFunc::kAvg:
      if (distinct_seen_ == 0) return SqlValue::Null();
      // Injected (mysql): all-integer AVG truncates to integer division
      // instead of promoting to REAL.
      if (!approx_ && ctx_.BugEnabled(BugId::kAvgIntegerDiv)) {
        return SqlValue::Int(int_sum_ / static_cast<int64_t>(distinct_seen_));
      }
      return SqlValue::Real(real_sum_ / static_cast<double>(distinct_seen_));
    case AggFunc::kMin:
    case AggFunc::kMax:
      return extreme_;
    case AggFunc::kNumAggFuncs:
      break;
  }
  return SqlValue::Null();
}

void CollectAggregates(const Expr& e, std::vector<const Expr*>* nodes) {
  if (e.kind == ExprKind::kAggregate) {
    for (const Expr* n : *nodes) {
      if (n->StructurallyEquals(e)) return;
    }
    nodes->push_back(&e);
    return;  // aggregates don't nest in this query space
  }
  for (const ExprPtr& a : e.args) {
    if (a) CollectAggregates(*a, nodes);
  }
}

ExprPtr SubstituteAggregates(const Expr& e,
                             const std::vector<const Expr*>& nodes,
                             const std::vector<SqlValue>& values) {
  if (e.kind == ExprKind::kAggregate) {
    for (size_t i = 0; i < nodes.size() && i < values.size(); ++i) {
      if (nodes[i]->StructurallyEquals(e)) return MakeLiteral(values[i]);
    }
    return MakeNullLiteral();  // unreachable when `nodes` covers e
  }
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->literal = e.literal;
  out->table = e.table;
  out->column = e.column;
  out->uop = e.uop;
  out->bop = e.bop;
  out->negated = e.negated;
  out->func = e.func;
  out->cast_to = e.cast_to;
  out->collation = e.collation;
  out->case_has_else = e.case_has_else;
  out->args.reserve(e.args.size());
  for (const ExprPtr& a : e.args) {
    out->args.push_back(a ? SubstituteAggregates(*a, nodes, values) : nullptr);
  }
  return out;
}

bool AggregateSelect(const SelectStmt& stmt, const RowSchema& schema,
                     const std::vector<std::vector<SqlValue>>& input_rows,
                     const EvalContext& ctx,
                     std::vector<std::vector<SqlValue>>* out_rows,
                     std::string* error) {
  out_rows->clear();
  if (stmt.select_list.empty()) {
    if (error != nullptr) {
      *error = "aggregate query requires an explicit select list";
    }
    return false;
  }

  // Group the input rows. No GROUP BY ⇒ one global group, which exists even
  // over empty input (SELECT COUNT(*) on an empty table is one row).
  std::vector<std::vector<SqlValue>> group_keys;
  std::vector<std::vector<size_t>> group_rows;
  if (stmt.group_by.empty()) {
    group_keys.emplace_back();
    group_rows.emplace_back();
    for (size_t i = 0; i < input_rows.size(); ++i) {
      group_rows[0].push_back(i);
    }
  } else {
    // Key expressions run once per input row: compile each once. Compiled
    // lazily on the first row so an empty input still yields zero groups
    // without touching the key expressions, as before.
    std::vector<CompiledExpr> group_code;
    if (!input_rows.empty()) {
      group_code.reserve(stmt.group_by.size());
      for (const ExprPtr& g : stmt.group_by) {
        if (g == nullptr) {
          if (error != nullptr) *error = "GROUP BY without key expression";
          return false;
        }
        group_code.push_back(CompileExpr(*g, schema, ctx.dialect));
      }
    }
    for (size_t i = 0; i < input_rows.size(); ++i) {
      RowView view{&schema, &input_rows[i]};
      std::vector<SqlValue> key;
      key.reserve(stmt.group_by.size());
      for (const CompiledExpr& code : group_code) {
        EvalResult r = code.Run(view, ctx);
        if (r.error) {
          if (error != nullptr) *error = r.message;
          return false;
        }
        key.push_back(std::move(r.value));
      }
      // GROUP BY key equality: NULL keys group together and INTEGER/REAL
      // keys group numerically, matching real engines' grouping compare.
      size_t slot = group_keys.size();
      for (size_t k = 0; k < group_keys.size(); ++k) {
        bool same = true;
        for (size_t c = 0; c < key.size(); ++c) {
          if (ValueCompare(group_keys[k][c], key[c]) != 0) {
            same = false;
            break;
          }
        }
        if (same) {
          slot = k;
          break;
        }
      }
      if (slot == group_keys.size()) {
        group_keys.push_back(std::move(key));
        group_rows.emplace_back();
      }
      group_rows[slot].push_back(i);
    }
  }

  // Unique aggregate nodes across the select list and HAVING; each is
  // computed once per group and substituted wherever it appears.
  std::vector<const Expr*> agg_nodes;
  for (const ExprPtr& e : stmt.select_list) {
    if (e) CollectAggregates(*e, &agg_nodes);
  }
  if (stmt.having) CollectAggregates(*stmt.having, &agg_nodes);

  // Aggregate operands run once per member row per group: compile each
  // once. COUNT(*) has no operand, so its slot stays empty and unused.
  std::vector<CompiledExpr> agg_code(agg_nodes.size());
  for (size_t i = 0; i < agg_nodes.size(); ++i) {
    const Expr* node = agg_nodes[i];
    if (!node->agg_star && !node->args.empty() && node->args[0] != nullptr) {
      agg_code[i] = CompileExpr(*node->args[0], schema, ctx.dialect);
    }
  }

  for (size_t g = 0; g < group_keys.size(); ++g) {
    auto compute = [&](const std::vector<size_t>& members,
                       std::vector<SqlValue>* out_vals) -> bool {
      for (size_t ai = 0; ai < agg_nodes.size(); ++ai) {
        const Expr* node = agg_nodes[ai];
        AggAccumulator acc(node->agg, node->agg_distinct, ctx);
        for (size_t ri : members) {
          if (node->agg_star) {
            acc.AddRow();
            continue;
          }
          RowView view{&schema, &input_rows[ri]};
          EvalResult r = agg_code[ai].Run(view, ctx);
          if (r.error) {
            if (error != nullptr) *error = r.message;
            return false;
          }
          if (!acc.Add(r.value, error)) return false;
        }
        out_vals->push_back(acc.Final());
      }
      return true;
    };
    std::vector<SqlValue> agg_values;
    if (!compute(group_rows[g], &agg_values)) return false;

    // Representative row for non-aggregate references (the group keys):
    // the group's first row in scan order, matching what real engines
    // surface for a bare grouped column.
    const std::vector<SqlValue>* rep_values =
        group_rows[g].empty() ? nullptr : &input_rows[group_rows[g][0]];
    RowView rep_view{&schema, rep_values};

    if (stmt.having != nullptr) {
      std::vector<SqlValue> having_values = agg_values;
      // Injected (postgres): HAVING is evaluated before grouping finishes —
      // its aggregates only ever see the group's first row.
      if (ctx.BugEnabled(BugId::kHavingBeforeGroup) &&
          group_rows[g].size() > 1) {
        having_values.clear();
        std::vector<size_t> first_only(1, group_rows[g][0]);
        if (!compute(first_only, &having_values)) return false;
      }
      ExprPtr hav =
          SubstituteAggregates(*stmt.having, agg_nodes, having_values);
      EvalResult r = Evaluate(*hav, rep_view, ctx);
      if (r.error) {
        if (error != nullptr) *error = r.message;
        return false;
      }
      if (Truthiness(r.value, ctx.dialect) != Bool3::kTrue) continue;
    }

    std::vector<SqlValue> out_row;
    out_row.reserve(stmt.select_list.size());
    for (const ExprPtr& item : stmt.select_list) {
      ExprPtr sub = SubstituteAggregates(*item, agg_nodes, agg_values);
      EvalResult r = Evaluate(*sub, rep_view, ctx);
      if (r.error) {
        if (error != nullptr) *error = r.message;
        return false;
      }
      out_row.push_back(std::move(r.value));
    }
    out_rows->push_back(std::move(out_row));
  }
  return true;
}

bool SameRowMultiset(const std::vector<std::vector<SqlValue>>& a,
                     const std::vector<std::vector<SqlValue>>& b) {
  if (a.size() != b.size()) return false;
  // Ordered-equality fast path: the common case is the engine and the model
  // holding the same rows in the same insertion order, so a pairwise scan
  // settles it without sorting. A mismatch here is not a verdict — multisets
  // can still agree in a different order — so fall through to the sort.
  {
    bool ordered_equal = true;
    for (size_t r = 0; ordered_equal && r < a.size(); ++r) {
      if (a[r].size() != b[r].size()) {
        ordered_equal = false;
        break;
      }
      for (size_t c = 0; c < a[r].size(); ++c) {
        if (!ValueEquals(a[r][c], b[r][c])) {
          ordered_equal = false;
          break;
        }
      }
    }
    if (ordered_equal) return true;
  }
  auto row_less = [](const std::vector<SqlValue>& x,
                     const std::vector<SqlValue>& y) {
    if (x.size() != y.size()) return x.size() < y.size();
    for (size_t i = 0; i < x.size(); ++i) {
      int c = ValueCompare(x[i], y[i]);
      if (c != 0) return c < 0;
    }
    return false;
  };
  // Sort row *pointers*, not row copies — state comparison runs after every
  // mutation and row-deep copies dominated its profile.
  std::vector<const std::vector<SqlValue>*> sa, sb;
  sa.reserve(a.size());
  sb.reserve(b.size());
  for (const auto& row : a) sa.push_back(&row);
  for (const auto& row : b) sb.push_back(&row);
  auto ptr_less = [&row_less](const std::vector<SqlValue>* x,
                              const std::vector<SqlValue>* y) {
    return row_less(*x, *y);
  };
  std::sort(sa.begin(), sa.end(), ptr_less);
  std::sort(sb.begin(), sb.end(), ptr_less);
  for (size_t r = 0; r < sa.size(); ++r) {
    if (sa[r]->size() != sb[r]->size()) return false;
    for (size_t c = 0; c < sa[r]->size(); ++c) {
      if (!ValueEquals((*sa[r])[c], (*sb[r])[c])) return false;
    }
  }
  return true;
}

}  // namespace pqs
