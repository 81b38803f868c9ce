#ifndef DATALAWYER_COMMON_VALUE_HASH_H_
#define DATALAWYER_COMMON_VALUE_HASH_H_

#include <cstddef>

#include "common/value.h"

namespace datalawyer {

/// The one hash functor for single values, shared by every equality
/// container in the engine: the usage-log hash indexes (storage/table.h),
/// DISTINCT aggregate accumulators, and — through RowHash below — the
/// executor's hash joins, GROUP BY, and DISTINCT sets. Delegates to
/// Value::Hash(), which hashes int64 and double holding the same number
/// alike, so it serves both equalities below.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// SQL `=` for lookup keys: an int64 and a double are one key when their
/// ToDouble() agrees; every other pair compares structurally (operator==).
/// Hash indexes and hash joins key on it, so `1` staged by a log generator
/// meets `1.0` computed by an expression exactly as the scan filter and
/// the nested loop would. GROUP BY and DISTINCT stay structural. Exact for
/// integers of magnitude up to 2^53, where int64 → double is lossless.
struct ValueKeyEq {
  bool operator()(const Value& a, const Value& b) const {
    if (a.is_int64() != b.is_int64() && a.is_numeric() && b.is_numeric()) {
      return a.ToDouble() == b.ToDouble();
    }
    return a == b;
  }
};

/// Hash functor for rows (hash-join keys, DISTINCT sets, GROUP BY keys).
/// Mixes the per-value ValueHash results; keeping the mixing here — next to
/// ValueHash — pins the invariant that a single-column row hashes
/// compatibly wherever value equality is decided.
struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 0x345678;
    for (const Value& v : row) {
      h = h * 1000003 ^ ValueHash()(v);
    }
    return h;
  }
};

/// ValueKeyEq column by column: the key equality of hash-join build maps.
struct RowKeyEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!ValueKeyEq()(a[i], b[i])) return false;
    }
    return true;
  }
};

}  // namespace datalawyer

#endif  // DATALAWYER_COMMON_VALUE_HASH_H_
