#include "src/interp/bytecode.h"

#include <atomic>
#include <utility>

#include "src/interp/eval_internal.h"
#include "src/sqlexpr/registry.h"

namespace pqs {

namespace {

std::atomic<bool> g_bytecode_enabled{true};

// Emits postfix code for `e`. Returns false when some column reference does
// not resolve against the schema — the whole program is then invalid and
// Run defers to the tree evaluator, which reports the proper error.
bool CompileNode(const Expr& e, const RowSchema& schema, Dialect dialect,
                 std::vector<Instr>* code) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      code->push_back({OpCode::kPushLiteral, -1, &e});
      return true;

    case ExprKind::kColumnRef: {
      int idx = schema.Resolve(e);
      if (idx < 0) return false;
      code->push_back({OpCode::kPushColumn, idx, &e});
      return true;
    }

    case ExprKind::kUnary:
      if (e.args.size() != 1 || e.args[0] == nullptr) return false;
      if (!CompileNode(*e.args[0], schema, dialect, code)) return false;
      code->push_back(
          {e.uop == UnaryOp::kNot ? OpCode::kNot : OpCode::kNeg, -1, &e});
      return true;

    case ExprKind::kBinary: {
      if (e.args.size() != 2 || e.args[0] == nullptr || e.args[1] == nullptr) {
        return false;
      }
      if (!CompileNode(*e.args[0], schema, dialect, code)) return false;
      if (!CompileNode(*e.args[1], schema, dialect, code)) return false;
      OpCode op;
      if (e.bop == BinaryOp::kAnd) {
        op = OpCode::kAnd;
      } else if (e.bop == BinaryOp::kOr) {
        op = OpCode::kOr;
      } else if (IsComparisonOp(e.bop)) {
        op = OpCode::kCompare;
      } else if (IsArithmeticOp(e.bop)) {
        op = OpCode::kArith;
      } else {
        op = OpCode::kConcat;
      }
      code->push_back({op, -1, &e});
      return true;
    }

    case ExprKind::kIsNull:
      if (e.args.size() != 1 || e.args[0] == nullptr) return false;
      // Hazard shape: kIsNullArithLost answers WITHOUT evaluating an
      // arithmetic operand; postfix order would evaluate it first and could
      // surface an error the tree path never sees. Keep the tree path.
      if (e.args[0]->kind == ExprKind::kBinary &&
          IsArithmeticOp(e.args[0]->bop)) {
        code->push_back({OpCode::kTreeEval, -1, &e});
        return true;
      }
      if (!CompileNode(*e.args[0], schema, dialect, code)) return false;
      code->push_back({OpCode::kIsNull, -1, &e});
      return true;

    case ExprKind::kBetween: {
      if (e.args.size() != 3 || e.args[0] == nullptr ||
          e.args[1] == nullptr || e.args[2] == nullptr) {
        return false;
      }
      // Hazard shape: kBetweenSwapError errors out BEFORE evaluating the
      // operands when both bounds are non-NULL literals in inverted order.
      const Expr& lo = *e.args[1];
      const Expr& hi = *e.args[2];
      if (lo.kind == ExprKind::kLiteral && hi.kind == ExprKind::kLiteral &&
          !lo.literal.is_null() && !hi.literal.is_null() &&
          ValueCompare(lo.literal, hi.literal) > 0) {
        code->push_back({OpCode::kTreeEval, -1, &e});
        return true;
      }
      if (!CompileNode(*e.args[0], schema, dialect, code)) return false;
      if (!CompileNode(*e.args[1], schema, dialect, code)) return false;
      if (!CompileNode(*e.args[2], schema, dialect, code)) return false;
      code->push_back({OpCode::kBetween, -1, &e});
      return true;
    }

    case ExprKind::kCast:
      if (e.args.size() != 1 || e.args[0] == nullptr) return false;
      if (!CompileNode(*e.args[0], schema, dialect, code)) return false;
      code->push_back({OpCode::kCast, -1, &e});
      return true;

    case ExprKind::kCollate:
      // Value passes through; the enclosing kCompare reads the collation
      // from its own operand nodes (which stay the kCollate nodes).
      if (e.args.size() != 1 || e.args[0] == nullptr) return false;
      return CompileNode(*e.args[0], schema, dialect, code);

    case ExprKind::kFunctionCall: {
      // The tree evaluator checks availability and arity BEFORE evaluating
      // any argument; hoist those checks to compile time so the postfix
      // order cannot surface an argument error the tree path never sees.
      // COALESCE stays on the tree path (lazy argument evaluation).
      const FunctionSig& sig = LookupFunction(e.func);
      const int argc = static_cast<int>(e.args.size());
      if (e.func == FuncId::kCoalesce || !sig.available(dialect) ||
          argc < sig.min_args || argc > sig.max_args) {
        code->push_back({OpCode::kTreeEval, -1, &e});
        return true;
      }
      for (const ExprPtr& a : e.args) {
        if (a == nullptr) return false;
        if (!CompileNode(*a, schema, dialect, code)) return false;
      }
      code->push_back({OpCode::kFunc, -1, &e});
      return true;
    }

    case ExprKind::kInList:       // lazy item evaluation + early exit
    case ExprKind::kLike:         // ESCAPE arg evaluated conditionally
    case ExprKind::kCase:         // lazy arms
    case ExprKind::kAggregate:    // scalar context error, tree-reported
      code->push_back({OpCode::kTreeEval, -1, &e});
      return true;
  }
  return false;
}

}  // namespace

bool BytecodeEnabled() {
  return g_bytecode_enabled.load(std::memory_order_relaxed);
}

void SetBytecodeEnabled(bool enabled) {
  g_bytecode_enabled.store(enabled, std::memory_order_relaxed);
}

CompiledExpr CompileExpr(const Expr& root, const RowSchema& schema,
                         Dialect dialect) {
  CompiledExpr c;
  c.root_ = &root;
  c.code_.reserve(16);  // most generated expressions fit without regrowth
  c.valid_ = CompileNode(root, schema, dialect, &c.code_);
  if (!c.valid_) c.code_.clear();
  return c;
}

EvalResult CompiledExpr::Run(const RowView& row, const EvalContext& ctx) const {
  if (!valid_ || !BytecodeEnabled()) return Evaluate(*root_, row, ctx);

  // Reused per-thread value stack. Run is reentrant (a kTreeEval subtree
  // never re-enters Run, but nested scans interleave calls): every frame
  // works relative to the stack size it entered with.
  static thread_local std::vector<SqlValue> stack;
  const size_t base = stack.size();
  auto bail = [&](EvalResult r) {
    stack.resize(base);
    return r;
  };

  for (const Instr& ins : code_) {
    switch (ins.op) {
      case OpCode::kPushLiteral:
        stack.push_back(ins.node->literal);
        break;

      case OpCode::kPushColumn:
        if (row.schema == nullptr || row.values == nullptr) {
          return bail(
              EvalResult::Error("column reference outside a row context"));
        }
        stack.push_back((*row.values)[static_cast<size_t>(ins.slot)]);
        break;

      case OpCode::kNot: {
        SqlValue& v = stack.back();
        Bool3 b = Truthiness(v, ctx.dialect);
        if (b == Bool3::kNull && ctx.BugEnabled(BugId::kNotNullNot)) {
          v = SqlValue::Bool(false);
        } else {
          v = SqlValue::FromBool3(Not3(b));
        }
        break;
      }

      case OpCode::kNeg: {
        SqlValue& v = stack.back();
        if (v.is_null()) {
          v = SqlValue::Null();
        } else if (v.cls() == StorageClass::kInteger) {
          v = SqlValue::Int(-v.i());
        } else if (v.cls() == StorageClass::kReal) {
          v = SqlValue::Real(-v.r());
        } else if (ctx.dialect == Dialect::kPostgresStrict) {
          return bail(EvalResult::Error("operator does not exist: -text"));
        } else {
          v = SqlValue::Real(-ParseNumericPrefix(v.text_cstr()));
        }
        break;
      }

      case OpCode::kAnd:
      case OpCode::kOr: {
        SqlValue b = std::move(stack.back());
        stack.pop_back();
        SqlValue& a = stack.back();
        Bool3 ta = Truthiness(a, ctx.dialect);
        Bool3 tb = Truthiness(b, ctx.dialect);
        a = SqlValue::FromBool3(ins.op == OpCode::kAnd ? And3(ta, tb)
                                                       : Or3(ta, tb));
        break;
      }

      case OpCode::kCompare: {
        SqlValue b = std::move(stack.back());
        stack.pop_back();
        SqlValue& a = stack.back();
        EvalResult r =
            evalin::Compare(ins.node->bop, ins.node->args[0].get(),
                            ins.node->args[1].get(), a, b, ctx);
        if (r.error) return bail(std::move(r));
        a = std::move(r.value);
        break;
      }

      case OpCode::kArith: {
        SqlValue b = std::move(stack.back());
        stack.pop_back();
        SqlValue& a = stack.back();
        EvalResult r = evalin::Arithmetic(*ins.node, a, b, ctx);
        if (r.error) return bail(std::move(r));
        a = std::move(r.value);
        break;
      }

      case OpCode::kConcat: {
        SqlValue b = std::move(stack.back());
        stack.pop_back();
        SqlValue& a = stack.back();
        if (ctx.BugEnabled(BugId::kConcatNumericError) &&
            (a.is_numeric() || b.is_numeric())) {
          return bail(EvalResult::Error(
              "cannot concatenate non-text operand (spurious)"));
        }
        if (ctx.dialect == Dialect::kPostgresStrict &&
            (a.is_numeric() || b.is_numeric())) {
          return bail(
              EvalResult::Error("operator does not exist: || with non-text"));
        }
        if (a.is_null() || b.is_null()) {
          a = SqlValue::Null();
        } else {
          a = SqlValue::Text(evalin::ConcatOperand(a) +
                             evalin::ConcatOperand(b));
        }
        break;
      }

      case OpCode::kIsNull: {
        SqlValue& v = stack.back();
        v = SqlValue::Bool(v.is_null() != ins.node->negated);
        break;
      }

      case OpCode::kBetween: {
        SqlValue hi = std::move(stack.back());
        stack.pop_back();
        SqlValue lo = std::move(stack.back());
        stack.pop_back();
        SqlValue& v = stack.back();
        const Expr& node = *ins.node;
        EvalResult above =
            evalin::Compare(BinaryOp::kGe, node.args[0].get(),
                            node.args[1].get(), v, lo, ctx);
        if (above.error) return bail(std::move(above));
        EvalResult below =
            evalin::Compare(BinaryOp::kLe, node.args[0].get(),
                            node.args[2].get(), v, hi, ctx);
        if (below.error) return bail(std::move(below));
        Bool3 r = And3(Truthiness(above.value, ctx.dialect),
                       Truthiness(below.value, ctx.dialect));
        if (node.negated) r = Not3(r);
        v = SqlValue::FromBool3(r);
        break;
      }

      case OpCode::kCast: {
        SqlValue& v = stack.back();
        EvalResult r = evalin::EvaluateCast(*ins.node, v, ctx);
        if (r.error) return bail(std::move(r));
        v = std::move(r.value);
        break;
      }

      case OpCode::kFunc: {
        const size_t argc = ins.node->args.size();
        std::vector<SqlValue> args;
        args.reserve(argc);
        for (size_t i = stack.size() - argc; i < stack.size(); ++i) {
          args.push_back(std::move(stack[i]));
        }
        stack.resize(stack.size() - argc);
        EvalResult r = evalin::ApplyFunction(*ins.node, std::move(args), ctx);
        if (r.error) return bail(std::move(r));
        stack.push_back(std::move(r.value));
        break;
      }

      case OpCode::kTreeEval: {
        EvalResult r = Evaluate(*ins.node, row, ctx);
        if (r.error) return bail(std::move(r));
        stack.push_back(std::move(r.value));
        break;
      }
    }
  }

  EvalResult out = EvalResult::Of(std::move(stack.back()));
  stack.resize(base);
  return out;
}

void CompiledExpr::RunBatch(const RowSchema& schema,
                            const std::vector<SqlValue>* rows, size_t n,
                            const EvalContext& ctx,
                            std::vector<EvalResult>* out) const {
  out->clear();
  out->resize(n);
  if (n == 0) return;

  if (!valid_ || !BytecodeEnabled()) {
    for (size_t i = 0; i < n; ++i) {
      RowView row{&schema, &rows[i]};
      (*out)[i] = Evaluate(*root_, row, ctx);
    }
    return;
  }

  // Column-vector stack, pooled per thread. RunBatch can nest (a batch
  // scan's callback may trigger another batch, e.g. an index rebuild after
  // a mutation), so frames address columns relative to the pool watermark
  // they entered with; vectors above the watermark keep their capacity
  // between calls.
  static thread_local std::vector<std::vector<SqlValue>> pool;
  static thread_local size_t pool_used = 0;
  const size_t base = pool_used;
  size_t depth = 0;

  auto push = [&]() -> std::vector<SqlValue>& {
    if (pool.size() < base + depth + 1) pool.emplace_back();
    std::vector<SqlValue>& c = pool[base + depth];
    c.clear();
    c.resize(n);
    ++depth;
    pool_used = base + depth;
    return c;
  };
  auto col = [&](size_t from_top) -> std::vector<SqlValue>& {
    return pool[base + depth - 1 - from_top];
  };

  std::vector<char> poisoned(n, 0);
  auto poison = [&](size_t i, EvalResult r) {
    (*out)[i] = std::move(r);
    poisoned[i] = 1;
  };

  for (const Instr& ins : code_) {
    switch (ins.op) {
      case OpCode::kPushLiteral: {
        std::vector<SqlValue>& c = push();
        for (size_t i = 0; i < n; ++i) c[i] = ins.node->literal;
        break;
      }

      case OpCode::kPushColumn: {
        std::vector<SqlValue>& c = push();
        const size_t slot = static_cast<size_t>(ins.slot);
        for (size_t i = 0; i < n; ++i) {
          if (!poisoned[i]) c[i] = rows[i][slot];
        }
        break;
      }

      case OpCode::kNot: {
        std::vector<SqlValue>& c = col(0);
        for (size_t i = 0; i < n; ++i) {
          if (poisoned[i]) continue;
          Bool3 b = Truthiness(c[i], ctx.dialect);
          if (b == Bool3::kNull && ctx.BugEnabled(BugId::kNotNullNot)) {
            c[i] = SqlValue::Bool(false);
          } else {
            c[i] = SqlValue::FromBool3(Not3(b));
          }
        }
        break;
      }

      case OpCode::kNeg: {
        std::vector<SqlValue>& c = col(0);
        for (size_t i = 0; i < n; ++i) {
          if (poisoned[i]) continue;
          SqlValue& v = c[i];
          if (v.is_null()) {
            v = SqlValue::Null();
          } else if (v.cls() == StorageClass::kInteger) {
            v = SqlValue::Int(-v.i());
          } else if (v.cls() == StorageClass::kReal) {
            v = SqlValue::Real(-v.r());
          } else if (ctx.dialect == Dialect::kPostgresStrict) {
            poison(i, EvalResult::Error("operator does not exist: -text"));
          } else {
            v = SqlValue::Real(-ParseNumericPrefix(v.text_cstr()));
          }
        }
        break;
      }

      case OpCode::kAnd:
      case OpCode::kOr: {
        std::vector<SqlValue>& b = col(0);
        std::vector<SqlValue>& a = col(1);
        for (size_t i = 0; i < n; ++i) {
          if (poisoned[i]) continue;
          Bool3 ta = Truthiness(a[i], ctx.dialect);
          Bool3 tb = Truthiness(b[i], ctx.dialect);
          a[i] = SqlValue::FromBool3(ins.op == OpCode::kAnd ? And3(ta, tb)
                                                            : Or3(ta, tb));
        }
        --depth;
        pool_used = base + depth;
        break;
      }

      case OpCode::kCompare: {
        std::vector<SqlValue>& b = col(0);
        std::vector<SqlValue>& a = col(1);
        for (size_t i = 0; i < n; ++i) {
          if (poisoned[i]) continue;
          EvalResult r =
              evalin::Compare(ins.node->bop, ins.node->args[0].get(),
                              ins.node->args[1].get(), a[i], b[i], ctx);
          if (r.error) {
            poison(i, std::move(r));
          } else {
            a[i] = std::move(r.value);
          }
        }
        --depth;
        pool_used = base + depth;
        break;
      }

      case OpCode::kArith: {
        std::vector<SqlValue>& b = col(0);
        std::vector<SqlValue>& a = col(1);
        for (size_t i = 0; i < n; ++i) {
          if (poisoned[i]) continue;
          EvalResult r = evalin::Arithmetic(*ins.node, a[i], b[i], ctx);
          if (r.error) {
            poison(i, std::move(r));
          } else {
            a[i] = std::move(r.value);
          }
        }
        --depth;
        pool_used = base + depth;
        break;
      }

      case OpCode::kConcat: {
        std::vector<SqlValue>& b = col(0);
        std::vector<SqlValue>& a = col(1);
        for (size_t i = 0; i < n; ++i) {
          if (poisoned[i]) continue;
          if (ctx.BugEnabled(BugId::kConcatNumericError) &&
              (a[i].is_numeric() || b[i].is_numeric())) {
            poison(i, EvalResult::Error(
                          "cannot concatenate non-text operand (spurious)"));
            continue;
          }
          if (ctx.dialect == Dialect::kPostgresStrict &&
              (a[i].is_numeric() || b[i].is_numeric())) {
            poison(i, EvalResult::Error(
                          "operator does not exist: || with non-text"));
            continue;
          }
          if (a[i].is_null() || b[i].is_null()) {
            a[i] = SqlValue::Null();
          } else {
            a[i] = SqlValue::Text(evalin::ConcatOperand(a[i]) +
                                  evalin::ConcatOperand(b[i]));
          }
        }
        --depth;
        pool_used = base + depth;
        break;
      }

      case OpCode::kIsNull: {
        std::vector<SqlValue>& c = col(0);
        for (size_t i = 0; i < n; ++i) {
          if (poisoned[i]) continue;
          c[i] = SqlValue::Bool(c[i].is_null() != ins.node->negated);
        }
        break;
      }

      case OpCode::kBetween: {
        std::vector<SqlValue>& hi = col(0);
        std::vector<SqlValue>& lo = col(1);
        std::vector<SqlValue>& v = col(2);
        const Expr& node = *ins.node;
        for (size_t i = 0; i < n; ++i) {
          if (poisoned[i]) continue;
          EvalResult above =
              evalin::Compare(BinaryOp::kGe, node.args[0].get(),
                              node.args[1].get(), v[i], lo[i], ctx);
          if (above.error) {
            poison(i, std::move(above));
            continue;
          }
          EvalResult below =
              evalin::Compare(BinaryOp::kLe, node.args[0].get(),
                              node.args[2].get(), v[i], hi[i], ctx);
          if (below.error) {
            poison(i, std::move(below));
            continue;
          }
          Bool3 r = And3(Truthiness(above.value, ctx.dialect),
                         Truthiness(below.value, ctx.dialect));
          if (node.negated) r = Not3(r);
          v[i] = SqlValue::FromBool3(r);
        }
        depth -= 2;
        pool_used = base + depth;
        break;
      }

      case OpCode::kCast: {
        std::vector<SqlValue>& c = col(0);
        for (size_t i = 0; i < n; ++i) {
          if (poisoned[i]) continue;
          EvalResult r = evalin::EvaluateCast(*ins.node, c[i], ctx);
          if (r.error) {
            poison(i, std::move(r));
          } else {
            c[i] = std::move(r.value);
          }
        }
        break;
      }

      case OpCode::kFunc: {
        const size_t argc = ins.node->args.size();
        if (argc == 0) {
          std::vector<SqlValue>& c = push();
          for (size_t i = 0; i < n; ++i) {
            if (poisoned[i]) continue;
            EvalResult r = evalin::ApplyFunction(*ins.node, {}, ctx);
            if (r.error) {
              poison(i, std::move(r));
            } else {
              c[i] = std::move(r.value);
            }
          }
          break;
        }
        std::vector<SqlValue>& dst = col(argc - 1);
        std::vector<SqlValue> args;
        for (size_t i = 0; i < n; ++i) {
          if (poisoned[i]) continue;
          args.clear();
          args.reserve(argc);
          for (size_t a = 0; a < argc; ++a) {
            args.push_back(std::move(col(argc - 1 - a)[i]));
          }
          EvalResult r = evalin::ApplyFunction(*ins.node, std::move(args),
                                               ctx);
          args = {};
          if (r.error) {
            poison(i, std::move(r));
          } else {
            dst[i] = std::move(r.value);
          }
        }
        depth -= argc - 1;
        pool_used = base + depth;
        break;
      }

      case OpCode::kTreeEval: {
        std::vector<SqlValue>& c = push();
        for (size_t i = 0; i < n; ++i) {
          if (poisoned[i]) continue;
          RowView row{&schema, &rows[i]};
          EvalResult r = Evaluate(*ins.node, row, ctx);
          if (r.error) {
            poison(i, std::move(r));
          } else {
            c[i] = std::move(r.value);
          }
        }
        break;
      }
    }
  }

  std::vector<SqlValue>& result = pool[base];
  for (size_t i = 0; i < n; ++i) {
    if (!poisoned[i]) (*out)[i] = EvalResult::Of(std::move(result[i]));
  }
  pool_used = base;
}

}  // namespace pqs
