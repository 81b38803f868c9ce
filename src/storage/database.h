#ifndef DATALAWYER_STORAGE_DATABASE_H_
#define DATALAWYER_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace datalawyer {

/// Named collection of tables — the catalog plus the data.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates an empty table; kAlreadyExists if the name is taken.
  Result<Table*> CreateTable(const std::string& name, TableSchema schema);

  /// kNotFound if absent. Lookup is case-insensitive.
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

  /// nullptr if absent (non-erroring variant for resolvers).
  Table* FindTable(const std::string& name);
  const Table* FindTable(const std::string& name) const;

  bool HasTable(const std::string& name) const;
  Status DropTable(const std::string& name);

  /// Lowercased names in lexicographic order.
  std::vector<std::string> TableNames() const;

  /// Schema epoch: bumped by every CreateTable/DropTable. Cached query
  /// plans are stamped with the version they were built under and
  /// revalidated against it, so DDL invalidates them without a callback.
  uint64_t version() const { return version_; }

  /// Forces an epoch bump without a schema change — used when something a
  /// cached plan depends on but the stamp cannot see changes shape (e.g.
  /// the statistics a cost-based plan was chosen under drift past the
  /// replan threshold).
  void BumpVersion() { ++version_; }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  uint64_t version_ = 0;
};

}  // namespace datalawyer

#endif  // DATALAWYER_STORAGE_DATABASE_H_
