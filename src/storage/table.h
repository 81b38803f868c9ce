#ifndef DATALAWYER_STORAGE_TABLE_H_
#define DATALAWYER_STORAGE_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "common/value_hash.h"
#include "storage/schema.h"
#include "storage/stats.h"

namespace datalawyer {

/// Read-only scan interface the executor consumes. Implemented by Table and
/// by the overlay relations in catalog_view.h (log + in-memory increment,
/// the synthesized Clock row, unified-policy Constants, ...).
class RelationData {
 public:
  virtual ~RelationData() = default;
  virtual const TableSchema& schema() const = 0;
  virtual size_t NumRows() const = 0;
  virtual const Row& RowAt(size_t i) const = 0;
  /// Stable id of row i — survives deletions of other rows. Used as the
  /// provenance `itid` and by log compaction's stamps.
  virtual int64_t RowIdAt(size_t i) const = 0;

  /// Appends to `*out` — in ascending position order — every row whose
  /// column `col` equals `v` under SQL `=` (ValueKeyEq: 1 meets 1.0), when
  /// a valid hash index (or an equivalent bounded probe) can answer;
  /// returns false to mean "no index — scan". Must be safe to call
  /// concurrently with other const reads: implementations may not mutate
  /// shared state.
  virtual bool IndexLookup(size_t col, const Value& v,
                           std::vector<size_t>* out) const {
    (void)col;
    (void)v;
    (void)out;
    return false;
  }

  /// Appends to `*out` — in ascending position order — every row whose
  /// column `col` falls within [lo, hi] (either bound may be null = open;
  /// inclusivity per flag), when a valid ordered index can answer; returns
  /// false to mean "no ordered index — scan". A NULL Value bound returns
  /// true with no hits (SQL comparisons against NULL never hold). Like
  /// IndexLookup, must be const and safe under concurrent reads.
  virtual bool RangeLookup(size_t col, const Value* lo, bool lo_inclusive,
                           const Value* hi, bool hi_inclusive,
                           std::vector<size_t>* out) const {
    (void)col;
    (void)lo;
    (void)lo_inclusive;
    (void)hi;
    (void)hi_inclusive;
    (void)out;
    return false;
  }

  /// Plan-time capability probes for the cost model: whether an equality /
  /// ordered index currently answers for `col`. The run-time Lookup calls
  /// remain authoritative (index state can change between planning and
  /// execution); these only steer cost estimates and EXPLAIN.
  virtual bool HasHashIndex(size_t col) const {
    (void)col;
    return false;
  }
  virtual bool HasOrderedIndex(size_t col) const {
    (void)col;
    return false;
  }

  /// Maintained statistics for this relation, or nullptr when none are
  /// kept. The returned snapshot is only guaranteed stable while no writer
  /// mutates the relation (same phasing discipline as index reads).
  virtual const TableStats* Stats() const { return nullptr; }
};

/// In-memory row store with stable row ids.
///
/// Compaction deletes by id: LogCompactor finds the rows whose witnesses
/// have expired and erases them with EraseIds() (§4.1.2). Every mutation
/// keeps the hash indexes, ordered indexes and statistics current in
/// place: appends fold the new row in, deletions drop the removed
/// positions and renumber the survivors in order (no rehash, no re-sort).
/// Row ids ascend with position, since appends take fresh, larger ids and
/// deletions keep the survivors' order.
class Table : public RelationData {
 public:
  explicit Table(TableSchema schema) : schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const override { return schema_; }
  size_t NumRows() const override { return rows_.size(); }
  const Row& RowAt(size_t i) const override { return rows_[i]; }
  int64_t RowIdAt(size_t i) const override { return row_ids_[i]; }

  /// Position of the first row whose id is >= `id` (NumRows() if none).
  size_t LowerBoundRowId(int64_t id) const;

  /// The id the next appended row will get; every current row's id is
  /// smaller.
  int64_t next_row_id() const { return next_row_id_; }

  /// Appends one row; returns its stable row id. Fails if the arity does
  /// not match the schema.
  Result<int64_t> Append(Row row);

  /// Appends many rows.
  Status AppendAll(std::vector<Row> rows);

  /// Deletes the rows with the given ids (ascending; ids no row has are
  /// ignored), each found by binary search; returns the number of rows
  /// removed. A compaction delete: it is recorded as last_retraction().
  size_t EraseIds(const std::vector<int64_t>& ids);

  /// Deletes every row whose id IS in `remove`; returns the number removed.
  /// Resets last_retraction(): this is not a compaction delete.
  size_t RemoveIds(const std::unordered_set<int64_t>& remove);

  /// Deletes every row. Resets last_retraction().
  void Clear();

  /// The last EraseIds deletion, as a retraction delta: it moved the
  /// table from mutation epoch `from_epoch` to `from_epoch + 1` by removing
  /// `row_ids` (ascending). Incremental-evaluation state built at
  /// `from_epoch` subtracts it instead of rebuilding. `valid` is false
  /// until the first EraseIds deletion and after RemoveIds/Clear.
  struct Retraction {
    bool valid = false;
    uint64_t from_epoch = 0;
    std::vector<int64_t> row_ids;
  };
  const Retraction& last_retraction() const { return retraction_; }

  /// Builds a hash index on `column` for equality pushdown, maintained by
  /// every append and deletion.
  Status BuildIndex(const std::string& column);

  /// Drops every hash index (the inverse of BuildIndex). Subsequent scans
  /// fall back to full walks until indexes are built again.
  void DropIndexes() { indexes_.clear(); }

  /// True if a hash index exists on `col`.
  bool HasValidIndex(size_t col) const;

  bool IndexLookup(size_t col, const Value& v,
                   std::vector<size_t>* out) const override;

  /// Builds an ordered (sorted-run) index on `column` for range pushdown.
  /// Appends accumulate in an unsorted tail that probes scan linearly until
  /// it grows past a threshold, when it is merged into the run; deletions
  /// drop and renumber entries in place. Only homogeneously typed columns
  /// (all-numeric or all-string, NULLs aside) are servable: a mixed-type or
  /// non-finite value marks the index unusable rather than risking a
  /// comparison whose semantics differ from the executor's. An unusable
  /// index is rebuilt on the next deletion, which may have removed the
  /// offending values.
  Status BuildOrderedIndex(const std::string& column);

  /// Drops every ordered index (the inverse of BuildOrderedIndex).
  void DropOrderedIndexes() { ordered_indexes_.clear(); }

  /// True if a usable ordered index exists on `col`.
  bool HasValidOrderedIndex(size_t col) const;

  bool RangeLookup(size_t col, const Value* lo, bool lo_inclusive,
                   const Value* hi, bool hi_inclusive,
                   std::vector<size_t>* out) const override;

  bool HasHashIndex(size_t col) const override { return HasValidIndex(col); }
  bool HasOrderedIndex(size_t col) const override {
    return HasValidOrderedIndex(col);
  }

  /// Turns on exact statistics (row count, per-column NDVs and NULL
  /// counts, numeric min/max), kept current by every append and deletion.
  /// Stats() is a const read of the eagerly maintained snapshot, safe under
  /// the same phasing as index probes.
  void EnableStats();
  void DisableStats();
  bool stats_enabled() const { return stats_enabled_; }

  const TableStats* Stats() const override {
    return stats_enabled_ ? &stats_ : nullptr;
  }

  /// Monotonic counter bumped by every deletion (EraseIds / RemoveIds /
  /// Clear); appends leave it unchanged. Lets incremental-evaluation state
  /// detect in-place shrinkage that a row-id watermark would otherwise
  /// miss; last_retraction() says whether the change was a compaction
  /// delete it can subtract.
  uint64_t mutation_epoch() const { return version_; }

 private:
  struct OrderedIndex;

  /// Removes the rows at `removed` (ascending positions) and keeps every
  /// index and the statistics current; bumps the mutation epoch.
  void ErasePositions(const std::vector<size_t>& removed);
  void RebuildStats();
  void FoldRowIntoStats(const Row& row);
  /// Subtracts one row from the tallies; marks in `*stale_range` every
  /// column whose min or max it held.
  void UnfoldRowFromStats(const Row& row, std::vector<bool>* stale_range);
  void PublishColumnStats(size_t c);
  void RebuildOrderedIndex(OrderedIndex* index);
  /// Admits one appended value into `index`'s class; false (and the index
  /// marked unusable) when the value breaks the column's homogeneity.
  static bool ClassifyOrdered(OrderedIndex* index, const Value& v);

  TableSchema schema_;
  std::vector<Row> rows_;
  std::vector<int64_t> row_ids_;
  int64_t next_row_id_ = 0;
  Retraction retraction_;

  struct HashIndex {
    size_t column = 0;
    std::unordered_map<Value, std::vector<size_t>, ValueHash, ValueKeyEq>
        positions;
  };
  std::vector<HashIndex> indexes_;

  /// Sorted-run index: `sorted` covers rows [0, indexed_rows) in value
  /// order; rows appended since the last merge form the tail and are
  /// scanned linearly by RangeLookup until Append merges them in.
  struct OrderedIndex {
    size_t column = 0;
    std::vector<std::pair<Value, size_t>> sorted;
    size_t indexed_rows = 0;
    bool usable = true;  ///< false: mixed/unorderable types, always scan
    /// Homogeneous value class of the indexed column: 0 = no non-NULL
    /// values, 1 = numeric, 2 = string. Tail values are classified on
    /// append, so this covers every row.
    int value_class = 0;
    size_t non_null = 0;  ///< non-NULL values in the column
  };
  /// Tail length that triggers a merge into the sorted run on Append.
  static constexpr size_t kOrderedTailMergeThreshold = 256;
  std::vector<OrderedIndex> ordered_indexes_;

  /// Exact per-column tallies behind stats_: value multiplicities (the NDV
  /// is their key count), how many non-NULL values are finite numerics and
  /// how many are not, and the numerics' min/max.
  struct ColumnTally {
    std::unordered_map<Value, uint64_t, ValueHash> counts;
    uint64_t ranged = 0;
    uint64_t unranged = 0;
    double min = 0;
    double max = 0;
  };
  bool stats_enabled_ = false;
  TableStats stats_;
  std::vector<ColumnTally> stats_tally_;

  uint64_t version_ = 0;
};

}  // namespace datalawyer

#endif  // DATALAWYER_STORAGE_TABLE_H_
