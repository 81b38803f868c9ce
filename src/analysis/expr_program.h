#ifndef DATALAWYER_ANALYSIS_EXPR_PROGRAM_H_
#define DATALAWYER_ANALYSIS_EXPR_PROGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/bound_query.h"
#include "common/status.h"
#include "common/value.h"
#include "sql/ast.h"

namespace datalawyer {

/// Read-only view of a row's values: a whole Row or a slice of one.
struct RowView {
  const Value* data = nullptr;
  size_t size = 0;

  RowView() = default;
  RowView(const Row& row)  // NOLINT(runtime/explicit)
      : data(row.data()), size(row.size()) {}
  RowView(const Value* data, size_t size) : data(data), size(size) {}
};

/// Where a program's column references read their values. By default every
/// slot reads the first row of ProgramInput, laid out by the binder's flat
/// slots. Slots in [window_lo, window_hi) can instead read the second row at
/// `slot - window_lo`: a join residual reads the incoming relation's columns
/// from the right row without first combining the two, and a scan filter
/// reads the stored row itself. For the scan, every slot outside the window
/// reads NULL, exactly what it reads in the scan's otherwise all-NULL
/// full-width row.
struct ProgramLayout {
  size_t window_lo = 0;
  size_t window_hi = 0;
  bool outside_window_null = false;
  /// Aggregate call sites read ProgramInput::aggs (HAVING and projections
  /// of a grouped query); elsewhere they are Eval's "outside a group" error.
  bool grouped = false;
};

/// One evaluation's inputs.
struct ProgramInput {
  RowView row;
  RowView window;
  /// Finished aggregate values in BoundQuery::aggregates order (grouped
  /// programs only).
  const Value* aggs = nullptr;
};

/// A bound expression compiled once into a slot-resolved program: column
/// references read their slot in place, literals are used by pointer, and
/// operators are enums. Run it many times; each run matches Eval over the
/// equivalent EvalContext exactly — the same value and NULL propagation, the
/// same short-circuit order, and the same Status (code and message) raised
/// at the same node. A node that cannot be resolved at compile time (an
/// unbound column, an unknown function, an aggregate outside a group)
/// compiles to a node that returns Eval's Status when reached, so inputs
/// that never reach it stay error-free.
///
/// Immutable after Compile and shared freely across threads; scratch lives
/// on the caller's stack. Literals and error texts point into the AST, which
/// must outlive the program (as it must outlive the plan that owns it).
class ExprProgram {
 public:
  ExprProgram() = default;

  /// Compiles `expr` under `bq`'s slot assignment (bq may be null: column
  /// references then raise Eval's constant-context error).
  static ExprProgram Compile(const Expr& expr, const BoundQuery* bq,
                             const ProgramLayout& layout = {});

  /// Evaluates into *out.
  Status Evaluate(const ProgramInput& in, Value* out) const;

  /// EvalPredicate: *keep is SQL truth (NULL is false); a non-boolean value
  /// is a kTypeError.
  Status Test(const ProgramInput& in, bool* keep) const;

  /// Every flat slot a column reference reads, in pre-order (repeats kept).
  const std::vector<size_t>& slots() const { return slots_; }
  /// True when some column reference has no slot.
  bool unresolved() const { return unresolved_; }

 private:
  enum class Op : uint8_t {
    kSlot,        ///< input.row[a]
    kWindowSlot,  ///< input.window[a]
    kConst,       ///< *value (a literal, or NULL)
    kAgg,         ///< input.aggs[a]
    kError,       ///< evaluates children a, b (when present), then errors_[c]
    kAnd,
    kOr,
    kCompare,             ///< a cmp b
    kCompareSlotConst,    ///< input.row[a] cmp *value
    kCompareWindowConst,  ///< input.window[a] cmp *value
    kArith,
    kNot,
    kNegate,
    kIsNull,  ///< negated = IS NOT NULL
    kInList,  ///< a [NOT] IN items_[b, b + c)
    kLike,
    kLower,
    kUpper,
    kLength,
    kAbs,
  };

  static constexpr uint32_t kNone = UINT32_MAX;

  struct Node {
    Op op = Op::kConst;
    CompareOp cmp = CompareOp::kEq;
    ArithOp arith = ArithOp::kAdd;
    bool negated = false;
    uint32_t a = kNone;
    uint32_t b = kNone;
    uint32_t c = 0;
    const Value* value = nullptr;
    const Expr* expr = nullptr;  ///< source node, for error texts
  };

  class Compiler;

  /// Evaluates node `n`: returns a pointer to its value (into the input, a
  /// literal, a static constant, or *tmp), or nullptr with *st set.
  const Value* Run(uint32_t n, const ProgramInput& in, Value* tmp,
                   Status* st) const;
  const Value* ReadSlot(const Node& node, const RowView& row,
                        Status* st) const;

  std::vector<Node> nodes_;      ///< root is nodes_[0]
  std::vector<uint32_t> items_;  ///< IN-list item node indices
  std::vector<Status> errors_;
  std::vector<size_t> slots_;
  bool unresolved_ = false;
  const Expr* root_ = nullptr;
};

}  // namespace datalawyer

#endif  // DATALAWYER_ANALYSIS_EXPR_PROGRAM_H_
