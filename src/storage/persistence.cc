#include "storage/persistence.h"

#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/strings.h"
#include "common/trace.h"

namespace datalawyer {

namespace {

std::string EncodeCell(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "N:";
    case ValueType::kInt64:
      return "I:" + std::to_string(v.AsInt64());
    case ValueType::kDouble: {
      std::ostringstream os;
      os.precision(17);
      os << v.AsDouble();
      return "D:" + os.str();
    }
    case ValueType::kString:
      return "S:" + TsvEscape(v.AsString());
    case ValueType::kBool:
      return std::string("B:") + (v.AsBool() ? "1" : "0");
  }
  return "N:";
}

/// The non-finite doubles as EncodeCell's stream formatting spells them;
/// ParseWhole refuses them, but a saved table may hold them.
bool ParseNonFinite(const std::string& s, double* out) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  if (s == "inf" || s == "-inf") {
    *out = s[0] == '-' ? -kInf : kInf;
  } else if (s == "nan" || s == "-nan") {
    *out = s[0] == '-' ? -kNaN : kNaN;
  } else {
    return false;
  }
  return true;
}

Result<Value> DecodeCell(const std::string& cell) {
  if (cell.size() < 2 || cell[1] != ':') {
    return Status::InvalidArgument("malformed cell: " + cell);
  }
  std::string body = cell.substr(2);
  switch (cell[0]) {
    case 'N':
      return Value::Null();
    case 'I': {
      int64_t v;
      if (ParseWhole(body, &v)) return Value(v);
      break;
    }
    case 'D': {
      double v;
      if (ParseWhole(body, &v) || ParseNonFinite(body, &v)) return Value(v);
      break;
    }
    case 'S':
      return Value(TsvUnescape(body));
    case 'B':
      if (body == "0" || body == "1") return Value(body == "1");
      break;
    default:
      return Status::InvalidArgument("unknown cell tag: " + cell);
  }
  return Status::InvalidArgument("malformed cell: " + cell);
}

Result<ValueType> TypeFromName(const std::string& name) {
  for (ValueType type : {ValueType::kNull, ValueType::kInt64,
                         ValueType::kDouble, ValueType::kString,
                         ValueType::kBool}) {
    if (EqualsIgnoreCase(name, ValueTypeToString(type))) return type;
  }
  return Status::InvalidArgument("unknown type name: " + name);
}

/// A snapshot file, parsed and checked whole: its schema and its rows.
struct TableFile {
  TableSchema schema;
  std::vector<Row> rows;
};

/// Reads `path` completely before anything is loaded from it, so a corrupt
/// file fails without side effects: every line whole, every cell well-formed
/// and of its column's type (or NULL).
Result<TableFile> ReadTableFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty table file: " + path);
  }
  if (in.eof()) return Status::InvalidArgument("truncated header in " + path);
  TableFile file;
  for (const std::string& cell : SplitEscaped(line, '\t')) {
    size_t space = cell.find(' ');
    if (space == std::string::npos) {
      return Status::InvalidArgument("malformed schema header in " + path);
    }
    DL_ASSIGN_OR_RETURN(ValueType type, TypeFromName(cell.substr(space + 1)));
    file.schema.AddColumn(cell.substr(0, space), type);
  }
  for (size_t line_no = 2; std::getline(in, line); ++line_no) {
    auto bad = [&](const std::string& why) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + why);
    };
    // SaveTable ends every line with '\n'; a line cut short by a torn
    // write ends at EOF instead.
    if (in.eof()) return bad("truncated line");
    if (line.empty()) continue;
    std::vector<std::string> cells = SplitEscaped(line, '\t');
    if (cells.size() != file.schema.NumColumns()) return bad("wrong arity");
    Row row;
    row.reserve(cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      DL_ASSIGN_OR_RETURN(Value v, DecodeCell(cells[c]));
      const ColumnDef& column = file.schema.column(c);
      if (!v.is_null() && v.type() != column.type) {
        return bad("cell " + cells[c] + " does not fit column " +
                   column.name + " of type " + ValueTypeToString(column.type));
      }
      row.push_back(std::move(v));
    }
    file.rows.push_back(std::move(row));
  }
  return file;
}

}  // namespace

Status SaveTable(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot write " + path);

  const TableSchema& schema = table.schema();
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    if (i > 0) out << '\t';
    out << schema.column(i).name << ' '
        << ValueTypeToString(schema.column(i).type);
  }
  out << '\n';
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const Row& row = table.RowAt(r);
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << '\t';
      out << EncodeCell(row[c]);
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::Internal("write failed for " + path);
  return Status::OK();
}

Result<TableSchema> LoadSchema(const std::string& path) {
  DL_ASSIGN_OR_RETURN(TableFile file, ReadTableFile(path));
  return std::move(file.schema);
}

Status LoadTableInto(Table* table, const std::string& path) {
  DL_ASSIGN_OR_RETURN(TableFile file, ReadTableFile(path));
  const TableSchema& schema = table->schema();
  bool match = file.schema.NumColumns() == schema.NumColumns();
  for (size_t c = 0; match && c < schema.NumColumns(); ++c) {
    match = file.schema.column(c).type == schema.column(c).type;
  }
  if (!match) return Status::InvalidArgument("schema mismatch loading " + path);
  return table->AppendAll(std::move(file.rows));
}

Status SaveDatabase(const Database& db, const std::string& dir) {
  DL_TRACE_SPAN("storage.save_db", "storage");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::InvalidArgument("cannot create directory " + dir);
  for (const std::string& name : db.TableNames()) {
    DL_ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
    DL_RETURN_NOT_OK(SaveTable(*table, dir + "/" + name + ".dltab"));
  }
  return Status::OK();
}

Status LoadDatabase(Database* db, const std::string& dir) {
  DL_TRACE_SPAN("storage.load_db", "storage");
  std::error_code ec;
  auto iter = std::filesystem::directory_iterator(dir, ec);
  if (ec) return Status::NotFound("cannot open directory " + dir);
  // Every file is read and every name checked before `db` changes.
  std::map<std::string, TableFile> files;
  for (const auto& entry : iter) {
    if (entry.path().extension() != ".dltab") continue;
    std::string name = entry.path().stem().string();
    if (db->GetTable(name).ok()) {
      return Status::AlreadyExists("table already exists: " + name);
    }
    DL_ASSIGN_OR_RETURN(files[name], ReadTableFile(entry.path().string()));
  }
  for (auto& [name, file] : files) {
    DL_ASSIGN_OR_RETURN(Table * table,
                        db->CreateTable(name, std::move(file.schema)));
    DL_RETURN_NOT_OK(table->AppendAll(std::move(file.rows)));
  }
  return Status::OK();
}

}  // namespace datalawyer
