#include "analysis/expr_program.h"

#include <cctype>
#include <string>

#include "analysis/eval.h"

namespace datalawyer {

namespace {

const Value kNullValue;
const Value kTrueValue(true);
const Value kFalseValue(false);

const Value* Truth(bool b) { return b ? &kTrueValue : &kFalseValue; }

}  // namespace

class ExprProgram::Compiler {
 public:
  Compiler(const BoundQuery* bq, const ProgramLayout& layout, ExprProgram* out)
      : bq_(bq), layout_(layout), out_(out) {}

  /// Appends `e`'s node (pre-order: the node first, then its children) and
  /// returns its index.
  uint32_t Emit(const Expr& e) {
    uint32_t idx = uint32_t(out_->nodes_.size());
    out_->nodes_.emplace_back();
    Node node;
    node.expr = &e;
    switch (e.kind()) {
      case ExprKind::kLiteral:
        node.value = &static_cast<const LiteralExpr&>(e).value;
        break;
      case ExprKind::kColumnRef:
        EmitColumn(e, &node);
        break;
      case ExprKind::kStar:
        Fail(&node, Status::InvalidArgument("'*' is not a value expression"));
        break;
      case ExprKind::kBinary:
        EmitBinary(static_cast<const BinaryExpr&>(e), idx, &node);
        break;
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        node.op = u.op == "not" ? Op::kNot : Op::kNegate;
        node.a = Emit(*u.operand);
        break;
      }
      case ExprKind::kIsNull: {
        const auto& n = static_cast<const IsNullExpr&>(e);
        node.op = Op::kIsNull;
        node.negated = n.negated;
        node.a = Emit(*n.operand);
        break;
      }
      case ExprKind::kInList: {
        const auto& in = static_cast<const InListExpr&>(e);
        node.op = Op::kInList;
        node.negated = in.negated;
        node.a = Emit(*in.operand);
        std::vector<uint32_t> items;
        for (const ExprPtr& item : in.items) items.push_back(Emit(*item));
        node.b = uint32_t(out_->items_.size());
        node.c = uint32_t(items.size());
        out_->items_.insert(out_->items_.end(), items.begin(), items.end());
        break;
      }
      case ExprKind::kLike: {
        const auto& like = static_cast<const LikeExpr&>(e);
        node.op = Op::kLike;
        node.negated = like.negated;
        node.a = Emit(*like.operand);
        break;
      }
      case ExprKind::kFuncCall:
        EmitCall(static_cast<const FuncCallExpr&>(e), &node);
        break;
    }
    out_->nodes_[idx] = node;
    return idx;
  }

 private:
  void Fail(Node* node, Status st) {
    node->op = Op::kError;
    node->c = uint32_t(out_->errors_.size());
    out_->errors_.push_back(std::move(st));
  }

  void EmitColumn(const Expr& e, Node* node) {
    if (bq_ == nullptr) {
      out_->unresolved_ = true;
      Fail(node, Status::InvalidArgument(
                     "column reference in a constant-only context: " +
                     e.ToString()));
      return;
    }
    auto it = bq_->column_slots.find(&e);
    if (it == bq_->column_slots.end()) {
      out_->unresolved_ = true;
      Fail(node, Status::Internal("unbound column reference: " + e.ToString()));
      return;
    }
    size_t slot = it->second;
    out_->slots_.push_back(slot);
    if (slot >= layout_.window_lo && slot < layout_.window_hi) {
      node->op = Op::kWindowSlot;
      node->a = uint32_t(slot - layout_.window_lo);
    } else if (layout_.outside_window_null) {
      node->value = &kNullValue;
    } else {
      node->op = Op::kSlot;
      node->a = uint32_t(slot);
    }
  }

  void EmitBinary(const BinaryExpr& b, uint32_t idx, Node* node) {
    if (b.op == "and" || b.op == "or") {
      node->op = b.op == "and" ? Op::kAnd : Op::kOr;
      node->a = Emit(*b.lhs);
      node->b = Emit(*b.rhs);
      return;
    }
    node->a = Emit(*b.lhs);
    node->b = Emit(*b.rhs);
    if (ParseCompareOp(b.op, &node->cmp)) {
      node->op = Op::kCompare;
      // `column OP constant`, the common filter shape, reads both sides in
      // place without descending; its two leaves are dropped.
      const Node& lhs = out_->nodes_[node->a];
      const Node& rhs = out_->nodes_[node->b];
      if ((lhs.op == Op::kSlot || lhs.op == Op::kWindowSlot) &&
          rhs.op == Op::kConst && node->a == idx + 1 && node->b == idx + 2) {
        node->op = lhs.op == Op::kSlot ? Op::kCompareSlotConst
                                       : Op::kCompareWindowConst;
        node->value = rhs.value;
        node->a = lhs.a;
        node->expr = lhs.expr;  // a narrow row is the column's error
        node->b = kNone;
        out_->nodes_.resize(idx + 1);
      }
      return;
    }
    if (ParseArithOp(b.op, &node->arith)) {
      node->op = Op::kArith;
      return;
    }
    Fail(node, UnknownOperator(b.op));
  }

  void EmitCall(const FuncCallExpr& f, Node* node) {
    if (f.IsAggregate()) {
      if (!layout_.grouped) {
        Fail(node, Status::Internal("aggregate evaluated outside a group: " +
                                    f.ToString()));
        return;
      }
      if (bq_ != nullptr) {
        for (size_t i = 0; i < bq_->aggregates.size(); ++i) {
          if (bq_->aggregates[i] == &f) {
            node->op = Op::kAgg;
            node->a = uint32_t(i);
            return;
          }
        }
      }
      Fail(node,
           Status::Internal("aggregate value missing for " + f.ToString()));
      return;
    }
    if (f.name == "lower") {
      node->op = Op::kLower;
    } else if (f.name == "upper") {
      node->op = Op::kUpper;
    } else if (f.name == "length") {
      node->op = Op::kLength;
    } else if (f.name == "abs") {
      node->op = Op::kAbs;
    } else {
      Fail(node, Status::Unsupported("unknown function: " + f.name));
      return;
    }
    if (f.args.empty()) {
      Fail(node, Status::Internal("function without argument: " + f.name));
      return;
    }
    node->a = Emit(*f.args[0]);
  }

  const BoundQuery* bq_;
  ProgramLayout layout_;
  ExprProgram* out_;
};

ExprProgram ExprProgram::Compile(const Expr& expr, const BoundQuery* bq,
                                 const ProgramLayout& layout) {
  ExprProgram program;
  program.root_ = &expr;
  Compiler(bq, layout, &program).Emit(expr);
  return program;
}

Status ExprProgram::Evaluate(const ProgramInput& in, Value* out) const {
  Value tmp;
  Status st;
  const Value* v = Run(0, in, &tmp, &st);
  if (v == nullptr) return st;
  if (v == &tmp) {
    *out = std::move(tmp);
  } else {
    *out = *v;
  }
  return Status::OK();
}

Status ExprProgram::Test(const ProgramInput& in, bool* keep) const {
  Value tmp;
  Status st;
  const Value* v = Run(0, in, &tmp, &st);
  if (v == nullptr) return st;
  if (v->is_bool()) {
    *keep = v->AsBool();
    return Status::OK();
  }
  if (v->is_null()) {
    *keep = false;
    return Status::OK();
  }
  return NotAPredicate(*root_);
}

const Value* ExprProgram::ReadSlot(const Node& node, const RowView& row,
                                   Status* st) const {
  if (node.a >= row.size) {
    *st = Status::Internal("evaluation row too narrow for " +
                           node.expr->ToString());
    return nullptr;
  }
  return &row.data[node.a];
}

const Value* ExprProgram::Run(uint32_t n, const ProgramInput& in, Value* tmp,
                              Status* st) const {
  const Node& node = nodes_[n];
  switch (node.op) {
    case Op::kSlot:
      return ReadSlot(node, in.row, st);
    case Op::kWindowSlot:
      return ReadSlot(node, in.window, st);
    case Op::kConst:
      return node.value;
    case Op::kAgg:
      return &in.aggs[node.a];
    case Op::kError: {
      Value lt, rt;
      if (node.a != kNone && Run(node.a, in, &lt, st) == nullptr) {
        return nullptr;
      }
      if (node.b != kNone && Run(node.b, in, &rt, st) == nullptr) {
        return nullptr;
      }
      *st = errors_[node.c];
      return nullptr;
    }
    case Op::kAnd:
    case Op::kOr: {
      bool is_and = node.op == Op::kAnd;
      Value lt, rt;
      const Value* lhs = Run(node.a, in, &lt, st);
      if (lhs == nullptr) return nullptr;
      if (lhs->is_bool() && lhs->AsBool() != is_and) return Truth(!is_and);
      const Value* rhs = Run(node.b, in, &rt, st);
      if (rhs == nullptr) return nullptr;
      if ((!lhs->is_bool() && !lhs->is_null()) ||
          (!rhs->is_bool() && !rhs->is_null())) {
        *st = Status::TypeError("boolean operator over non-boolean value");
        return nullptr;
      }
      if (rhs->is_bool() && rhs->AsBool() != is_and) return Truth(!is_and);
      if (lhs->is_null() || rhs->is_null()) return &kNullValue;
      return Truth(is_and);
    }
    case Op::kCompare:
    case Op::kCompareSlotConst:
    case Op::kCompareWindowConst: {
      Value lt, rt;
      const Value* lhs;
      const Value* rhs;
      if (node.op == Op::kCompare) {
        lhs = Run(node.a, in, &lt, st);
        if (lhs == nullptr) return nullptr;
        rhs = Run(node.b, in, &rt, st);
      } else {
        const RowView& row =
            node.op == Op::kCompareSlotConst ? in.row : in.window;
        lhs = ReadSlot(node, row, st);
        rhs = node.value;
      }
      if (lhs == nullptr || rhs == nullptr) return nullptr;
      if (lhs->is_null() || rhs->is_null()) return &kNullValue;
      int cmp = 0;
      if (!Value::SqlOrder(*lhs, *rhs, &cmp)) {
        *st = Value::IncomparableError(*lhs, *rhs);
        return nullptr;
      }
      return Truth(Value::Holds(node.cmp, cmp));
    }
    case Op::kArith: {
      Value lt, rt;
      const Value* lhs = Run(node.a, in, &lt, st);
      if (lhs == nullptr) return nullptr;
      const Value* rhs = Run(node.b, in, &rt, st);
      if (rhs == nullptr) return nullptr;
      Result<Value> r = Value::Arithmetic(*lhs, node.arith, *rhs);
      if (!r.ok()) {
        *st = r.status();
        return nullptr;
      }
      *tmp = std::move(r).value();
      return tmp;
    }
    case Op::kNot: {
      const Value* v = Run(node.a, in, tmp, st);
      if (v == nullptr) return nullptr;
      if (v->is_null()) return &kNullValue;
      if (!v->is_bool()) {
        *st = Status::TypeError("NOT over non-boolean");
        return nullptr;
      }
      return Truth(!v->AsBool());
    }
    case Op::kNegate: {
      const Value* v = Run(node.a, in, tmp, st);
      if (v == nullptr) return nullptr;
      if (v->is_null()) return &kNullValue;
      if (v->is_int64()) {
        *tmp = Value(-v->AsInt64());
        return tmp;
      }
      if (v->is_double()) {
        *tmp = Value(-v->AsDouble());
        return tmp;
      }
      *st = Status::TypeError("unary '-' over non-numeric value");
      return nullptr;
    }
    case Op::kIsNull: {
      const Value* v = Run(node.a, in, tmp, st);
      if (v == nullptr) return nullptr;
      return Truth(node.negated ? !v->is_null() : v->is_null());
    }
    case Op::kInList: {
      Value ot;
      const Value* operand = Run(node.a, in, &ot, st);
      if (operand == nullptr) return nullptr;
      if (operand->is_null()) return &kNullValue;
      bool saw_null = false;
      for (uint32_t k = node.b; k < node.b + node.c; ++k) {
        Value it;
        const Value* v = Run(items_[k], in, &it, st);
        if (v == nullptr) return nullptr;
        if (v->is_null()) {
          saw_null = true;
          continue;
        }
        int cmp = 0;
        if (!Value::SqlOrder(*operand, *v, &cmp)) {
          *st = Value::IncomparableError(*operand, *v);
          return nullptr;
        }
        if (cmp == 0) return Truth(!node.negated);
      }
      if (saw_null) return &kNullValue;
      return Truth(node.negated);
    }
    case Op::kLike: {
      const Value* v = Run(node.a, in, tmp, st);
      if (v == nullptr) return nullptr;
      if (v->is_null()) return &kNullValue;
      if (!v->is_string()) {
        *st = Status::TypeError("LIKE requires a string operand, got " +
                                v->ToString());
        return nullptr;
      }
      const auto& like = static_cast<const LikeExpr&>(*node.expr);
      bool matched = LikeMatch(v->AsString(), like.pattern);
      return Truth(like.negated ? !matched : matched);
    }
    case Op::kLower:
    case Op::kUpper:
    case Op::kLength:
    case Op::kAbs: {
      Value at;
      const Value* v = Run(node.a, in, &at, st);
      if (v == nullptr) return nullptr;
      if (v->is_null()) return &kNullValue;
      if (node.op == Op::kAbs) {
        if (v->is_int64()) {
          int64_t x = v->AsInt64();
          *tmp = Value(x < 0 ? -x : x);
          return tmp;
        }
        if (v->is_double()) {
          double x = v->AsDouble();
          *tmp = Value(x < 0 ? -x : x);
          return tmp;
        }
        *st = Status::TypeError("abs over non-numeric value");
        return nullptr;
      }
      const auto& f = static_cast<const FuncCallExpr&>(*node.expr);
      if (!v->is_string()) {
        *st = Status::TypeError(f.name + " over non-string value " +
                                v->ToString());
        return nullptr;
      }
      if (node.op == Op::kLength) {
        *tmp = Value(int64_t(v->AsString().size()));
        return tmp;
      }
      std::string out = v->AsString();
      for (char& ch : out) {
        ch = node.op == Op::kLower
                 ? char(std::tolower(static_cast<unsigned char>(ch)))
                 : char(std::toupper(static_cast<unsigned char>(ch)));
      }
      *tmp = Value(std::move(out));
      return tmp;
    }
  }
  *st = Status::Internal("unhandled expression kind");
  return nullptr;
}

}  // namespace datalawyer
