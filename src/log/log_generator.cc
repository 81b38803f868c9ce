#include "log/log_generator.h"

#include "analysis/schema_lineage.h"
#include "exec/executor.h"

namespace datalawyer {

namespace {

TableSchema WithTs(TableSchema rest) {
  TableSchema out;
  out.AddColumn("ts", ValueType::kInt64);
  for (const ColumnDef& c : rest.columns()) out.AddColumn(c.name, c.type);
  return out;
}

}  // namespace

// ----------------------------- Users ---------------------------------------

const std::string& UsersLogGenerator::relation_name() const {
  static const std::string* kName = new std::string("users");
  return *kName;
}

const TableSchema& UsersLogGenerator::schema() const {
  static const TableSchema* kSchema = new TableSchema(
      WithTs(TableSchema().AddColumn("uid", ValueType::kInt64)));
  return *kSchema;
}

Result<std::vector<Row>> UsersLogGenerator::Generate(
    const GenerationInput& input) {
  return std::vector<Row>{{Value(input.context->uid)}};
}

// ----------------------------- Schema --------------------------------------

const std::string& SchemaLogGenerator::relation_name() const {
  static const std::string* kName = new std::string("schema");
  return *kName;
}

const TableSchema& SchemaLogGenerator::schema() const {
  static const TableSchema* kSchema =
      new TableSchema(WithTs(TableSchema()
                                 .AddColumn("ocid", ValueType::kString)
                                 .AddColumn("irid", ValueType::kString)
                                 .AddColumn("icid", ValueType::kString)
                                 .AddColumn("agg", ValueType::kBool)));
  return *kSchema;
}

Result<std::vector<Row>> SchemaLogGenerator::Generate(
    const GenerationInput& input) {
  if (input.bound == nullptr) {
    return Status::Internal("SchemaLogGenerator requires a bound query");
  }
  std::vector<SchemaLogRow> lineage = ComputeSchemaLineage(*input.bound);
  std::vector<Row> rows;
  rows.reserve(lineage.size());
  for (const SchemaLogRow& r : lineage) {
    rows.push_back(
        Row{Value(r.ocid), Value(r.irid), Value(r.icid), Value(r.agg)});
  }
  return rows;
}

// --------------------------- Provenance ------------------------------------

const std::string& ProvenanceLogGenerator::relation_name() const {
  static const std::string* kName = new std::string("provenance");
  return *kName;
}

const TableSchema& ProvenanceLogGenerator::schema() const {
  static const TableSchema* kSchema =
      new TableSchema(WithTs(TableSchema()
                                 .AddColumn("otid", ValueType::kInt64)
                                 .AddColumn("irid", ValueType::kString)
                                 .AddColumn("itid", ValueType::kInt64)));
  return *kSchema;
}

Result<std::vector<Row>> ProvenanceLogGenerator::Generate(
    const GenerationInput& input) {
  if (input.bound == nullptr || input.db_catalog == nullptr) {
    return Status::Internal("ProvenanceLogGenerator requires bound + catalog");
  }
  ExecOptions options = input.exec;
  options.capture_lineage = true;
  Executor executor(input.db_catalog, options);
  DL_ASSIGN_OR_RETURN(QueryResult result, executor.ExecuteBound(*input.bound));
  if (input.morsels != nullptr) *input.morsels += executor.scan_stats().morsels;

  std::vector<Row> rows;
  for (size_t otid = 0; otid < result.rows.size(); ++otid) {
    for (const LineageEntry& entry : result.lineage[otid]) {
      rows.push_back(Row{Value(int64_t(otid)),
                         Value(result.base_relations[entry.rel]),
                         Value(entry.row_id)});
    }
  }
  if (input.answer != nullptr) *input.answer = std::move(result);
  return rows;
}

// ----------------------------- Device --------------------------------------

const std::string& DeviceLogGenerator::relation_name() const {
  static const std::string* kName = new std::string("devices");
  return *kName;
}

const TableSchema& DeviceLogGenerator::schema() const {
  static const TableSchema* kSchema = new TableSchema(
      WithTs(TableSchema().AddColumn("device", ValueType::kString)));
  return *kSchema;
}

Result<std::vector<Row>> DeviceLogGenerator::Generate(
    const GenerationInput& input) {
  auto it = input.context->extras.find("device");
  Value device = it != input.context->extras.end() ? it->second
                                                   : Value("unknown");
  return std::vector<Row>{{std::move(device)}};
}

// --------------------------- SystemLoad ------------------------------------

const std::string& SystemLoadLogGenerator::relation_name() const {
  static const std::string* kName = new std::string("system_load");
  return *kName;
}

const TableSchema& SystemLoadLogGenerator::schema() const {
  static const TableSchema* kSchema = new TableSchema(
      WithTs(TableSchema().AddColumn("load", ValueType::kDouble)));
  return *kSchema;
}

Result<std::vector<Row>> SystemLoadLogGenerator::Generate(
    const GenerationInput& input) {
  auto it = input.context->extras.find("system_load");
  Value load =
      it != input.context->extras.end() ? it->second : Value(0.0);
  return std::vector<Row>{{std::move(load)}};
}

}  // namespace datalawyer
