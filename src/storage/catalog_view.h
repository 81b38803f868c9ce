#ifndef DATALAWYER_STORAGE_CATALOG_VIEW_H_
#define DATALAWYER_STORAGE_CATALOG_VIEW_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/database.h"
#include "storage/stats.h"
#include "storage/table.h"

namespace datalawyer {

/// Name → RelationData resolver the binder/executor read through.
///
/// This indirection is what lets policy evaluation see `log ∪ increment`
/// without copying (the paper keeps the increment "in temporary tables in
/// memory ... while checking the policies", §4, NoOpt optimization 2), and
/// lets the system expose the synthesized Clock and Constants relations.
class CatalogView {
 public:
  virtual ~CatalogView() = default;
  /// nullptr if unknown; lookup is case-insensitive.
  virtual const RelationData* Find(const std::string& name) const = 0;
};

/// Plain view over a Database.
class DatabaseCatalog : public CatalogView {
 public:
  /// `db` must outlive this view.
  explicit DatabaseCatalog(const Database* db) : db_(db) {}
  const RelationData* Find(const std::string& name) const override {
    return db_->FindTable(name);
  }

 private:
  const Database* db_;
};

/// Concatenation of two relations with identical schemas (e.g. a persisted
/// log relation followed by its staged in-memory increment). Row ids of the
/// second part are offset so ids remain unique within the view; callers can
/// map back with IsFromSecond()/SecondRowId().
class ConcatRelation : public RelationData {
 public:
  /// Both parts must outlive this object and share column arity. When the
  /// first (persisted) part maintains statistics, the view folds the
  /// second part's rows in at construction — the increment is bounded by
  /// one query's log generation, so this stays cheap — and serves the
  /// merged snapshot through Stats(). NDVs over-approximate: a delta value
  /// already present in the main part still counts once more.
  ConcatRelation(const RelationData* first, const RelationData* second);

  const TableSchema& schema() const override { return first_->schema(); }
  size_t NumRows() const override {
    return first_->NumRows() + second_->NumRows();
  }

  /// Index probes pass through when the first (persisted, large) part can
  /// answer from its hash index; the second part — the per-query increment,
  /// bounded by one query's log generation — is probed through its own
  /// index when present and scanned otherwise. Positions are returned in
  /// concatenated coordinates. Const all the way down: safe under
  /// concurrent policy evaluation.
  bool IndexLookup(size_t col, const Value& v,
                   std::vector<size_t>* out) const override {
    if (!first_->IndexLookup(col, v, out)) return false;
    size_t n = first_->NumRows();
    std::vector<size_t> second_hits;
    if (second_->IndexLookup(col, v, &second_hits)) {
      for (size_t i : second_hits) out->push_back(n + i);
    } else {
      size_t m = second_->NumRows();
      for (size_t i = 0; i < m; ++i) {
        if (ValueKeyEq()(second_->RowAt(i)[col], v)) out->push_back(n + i);
      }
    }
    return true;
  }
  /// Range probes follow the same shape as IndexLookup: the first part
  /// must answer from its ordered index, the second is probed when it can
  /// and scanned (with full SQL comparison semantics) otherwise. A scan
  /// comparison that would raise — mixed types the naive path reports as a
  /// TypeError — makes the whole probe decline, so errors surface
  /// identically on both access paths.
  bool RangeLookup(size_t col, const Value* lo, bool lo_inclusive,
                   const Value* hi, bool hi_inclusive,
                   std::vector<size_t>* out) const override;

  bool HasHashIndex(size_t col) const override {
    return first_->HasHashIndex(col);
  }
  bool HasOrderedIndex(size_t col) const override {
    return first_->HasOrderedIndex(col);
  }

  const TableStats* Stats() const override {
    return has_stats_ ? &stats_ : nullptr;
  }

  const Row& RowAt(size_t i) const override {
    size_t n = first_->NumRows();
    return i < n ? first_->RowAt(i) : second_->RowAt(i - n);
  }
  int64_t RowIdAt(size_t i) const override {
    size_t n = first_->NumRows();
    return i < n ? first_->RowIdAt(i) : second_->RowIdAt(i - n) + kSecondBase;
  }

  static bool IsFromSecond(int64_t id) { return id >= kSecondBase; }
  static int64_t SecondRowId(int64_t id) { return id - kSecondBase; }

  /// Offset distinguishing increment row ids from persisted row ids.
  static constexpr int64_t kSecondBase = int64_t(1) << 40;

 private:
  const RelationData* first_;
  const RelationData* second_;
  bool has_stats_ = false;
  TableStats stats_;  ///< merged first+second snapshot, built at construction
};

/// A relation materialized on the fly (Clock's single row, Constants).
/// Carries exact statistics, computed once at construction — these
/// relations are tiny, and the clock's single-row count is what lets the
/// cost model chain cardinality estimates through the cross join and place
/// the clock early enough that window bounds become computable.
class OwnedRelation : public RelationData {
 public:
  OwnedRelation(TableSchema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {
    stats_ = ComputeTableStats(*this);
  }

  const TableSchema& schema() const override { return schema_; }
  size_t NumRows() const override { return rows_.size(); }
  const Row& RowAt(size_t i) const override { return rows_[i]; }
  int64_t RowIdAt(size_t i) const override { return int64_t(i); }
  const TableStats* Stats() const override { return &stats_; }

 private:
  TableSchema schema_;
  std::vector<Row> rows_;
  TableStats stats_;
};

/// Base catalog plus lazily materialized virtual system relations
/// (`dl_decisions`, `dl_policy_stats`, `dl_slow_log`): a provider callback
/// per name builds an OwnedRelation snapshot on first lookup, and the
/// snapshot is served unchanged until InvalidateSnapshots(). Two
/// consequences the enforcement pipeline relies on:
///
///  * *Snapshot semantics* — DataLawyer invalidates at the serial head of
///    each checked query, so one query's bind, log generation, policy
///    evaluation, and execution all see the identical telemetry state, and
///    a telemetry query can never observe its own decision record (which
///    is appended after execution).
///  * *Thread safety* — materialization is mutex-guarded, so concurrent
///    policy workers resolving a dl_* name race only on "who builds the
///    snapshot first"; invalidation happens only in serial sections.
///
/// Base-catalog names win: a real table shadows a system relation.
class SystemCatalog : public CatalogView {
 public:
  using Provider = std::function<std::unique_ptr<RelationData>()>;

  /// `base` must outlive this view.
  explicit SystemCatalog(const CatalogView* base) : base_(base) {}

  /// Registers `provider` under `name` (case-insensitive).
  void Register(const std::string& name, Provider provider);

  /// Drops every materialized snapshot; the next Find re-materializes.
  void InvalidateSnapshots();

  /// Registered system-relation names, registration order.
  std::vector<std::string> Names() const { return names_; }

  const RelationData* Find(const std::string& name) const override;

 private:
  const CatalogView* base_;
  std::vector<std::string> names_;
  mutable std::mutex mu_;
  std::map<std::string, Provider> providers_;
  mutable std::map<std::string, std::unique_ptr<RelationData>> snapshots_;
  /// True while any snapshot is materialized. Lets the per-query
  /// InvalidateSnapshots() call cost one relaxed atomic load when nobody
  /// queried a system relation — the accept path must not pay for
  /// telemetry it is not using.
  mutable std::atomic<bool> dirty_{false};
};

/// Base catalog plus name → relation overrides. Overrides win.
class OverlayCatalog : public CatalogView {
 public:
  /// `base` may be nullptr (pure overlay). Overridden relations are not
  /// owned and must outlive the view.
  explicit OverlayCatalog(const CatalogView* base) : base_(base) {}

  /// Registers `rel` under `name` (case-insensitive).
  void Add(const std::string& name, const RelationData* rel);

  const RelationData* Find(const std::string& name) const override;

 private:
  const CatalogView* base_;
  std::map<std::string, const RelationData*> overrides_;
};

}  // namespace datalawyer

#endif  // DATALAWYER_STORAGE_CATALOG_VIEW_H_
