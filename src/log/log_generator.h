#ifndef DATALAWYER_LOG_LOG_GENERATOR_H_
#define DATALAWYER_LOG_LOG_GENERATOR_H_

#include <string>
#include <vector>

#include "analysis/bound_query.h"
#include "common/result.h"
#include "exec/plan_executor.h"
#include "log/query_context.h"
#include "sql/ast.h"
#include "storage/catalog_view.h"
#include "storage/schema.h"

namespace datalawyer {

/// Everything a log-generating function may look at: the user's query (both
/// parsed and bound against the database), the database itself, and the
/// query context. Mirrors the paper's f_i(q, D) (§3.2).
struct GenerationInput {
  const SelectStmt* query = nullptr;
  const BoundQuery* bound = nullptr;
  const CatalogView* db_catalog = nullptr;
  const QueryContext* context = nullptr;
  ExecOptions exec;  ///< how a generator that runs the query runs it
  /// Optional sinks: a generator that runs the query moves its result here,
  /// so the caller need not run it again, and adds the run's morsels to
  /// `*morsels`. nullptr = no sink.
  QueryResult* answer = nullptr;
  size_t* morsels = nullptr;
};

/// A log-generating function f_i: computes the feature set S_i = f_i(q, D)
/// appended (with the current timestamp prefixed) to log relation R_i.
///
/// The paper's extensibility story (§6) is exactly this interface: "to add a
/// new relation Ri to the log, the systems administrator only has to write
/// the corresponding log-generating function fi(q, D)" — arbitrary code is
/// permitted.
class LogGenerator {
 public:
  virtual ~LogGenerator() = default;

  /// Name of the log relation this generator feeds (lowercase).
  virtual const std::string& relation_name() const = 0;

  /// Schema of the log relation *including* the leading ts column that the
  /// system fills in.
  virtual const TableSchema& schema() const = 0;

  /// Computes the feature rows for one query, *without* the ts column.
  virtual Result<std::vector<Row>> Generate(const GenerationInput& input) = 0;

  /// Relative generation cost; interleaved evaluation (§4.2.1) generates
  /// logs in increasing rank order ("chosen experimentally, offline" in the
  /// paper — Users < Schema < Provenance).
  virtual int cost_rank() const = 0;
};

/// f_Users: records (uid) for the issuing user.
class UsersLogGenerator : public LogGenerator {
 public:
  const std::string& relation_name() const override;
  const TableSchema& schema() const override;
  Result<std::vector<Row>> Generate(const GenerationInput& input) override;
  int cost_rank() const override { return 0; }
};

/// f_Schema: static analysis of the query producing (ocid, irid, icid, agg)
/// rows (§3.2 Example 3.3); does not touch the database instance.
class SchemaLogGenerator : public LogGenerator {
 public:
  const std::string& relation_name() const override;
  const TableSchema& schema() const override;
  Result<std::vector<Row>> Generate(const GenerationInput& input) override;
  int cost_rank() const override { return 1; }
};

/// f_Provenance: runs the bound query with lineage capture and emits
/// (otid, irid, itid) for every contributing input tuple of every output
/// tuple. The paper's Perm-style rewrite runs a second copy of the query;
/// here the lineage run is the query's only run — its result, lineage
/// included, goes to GenerationInput::answer when that is set.
class ProvenanceLogGenerator : public LogGenerator {
 public:
  const std::string& relation_name() const override;
  const TableSchema& schema() const override;
  Result<std::vector<Row>> Generate(const GenerationInput& input) override;
  int cost_rank() const override { return 2; }
};

/// §6 extension example: records the device type ("mobile", "desktop", ...)
/// from the query context, enabling policies like "queries from mobile
/// devices may return at most 10 tuples".
class DeviceLogGenerator : public LogGenerator {
 public:
  const std::string& relation_name() const override;
  const TableSchema& schema() const override;
  Result<std::vector<Row>> Generate(const GenerationInput& input) override;
  int cost_rank() const override { return 0; }
};

/// §6 extension example: records a system-load sample from the context,
/// enabling load-sensitive rate limits.
class SystemLoadLogGenerator : public LogGenerator {
 public:
  const std::string& relation_name() const override;
  const TableSchema& schema() const override;
  Result<std::vector<Row>> Generate(const GenerationInput& input) override;
  int cost_rank() const override { return 0; }
};

}  // namespace datalawyer

#endif  // DATALAWYER_LOG_LOG_GENERATOR_H_
