#include "storage/persistence.h"

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/strings.h"
#include "common/trace.h"

namespace datalawyer {

namespace {

std::string EscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string UnescapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 't':
          out += '\t';
          break;
        case 'n':
          out += '\n';
          break;
        default:
          out += s[i];
      }
    } else {
      out += s[i];
    }
  }
  return out;
}

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
      return "S:" + EscapeString(v.AsString());
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
      return Value(UnescapeString(body));
    case 'B':
      if (body == "0" || body == "1") return Value(body == "1");
      break;
    default:
      return Status::InvalidArgument("unknown cell tag: " + cell);
  }
  return Status::InvalidArgument("malformed cell: " + cell);
}

/// Splits on unescaped tabs (escapes never contain raw tabs).
std::vector<std::string> SplitCells(const std::string& line) {
  std::vector<std::string> out;
  std::string current;
  for (char c : line) {
    if (c == '\t') {
      out.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(std::move(current));
  return out;
}

Result<ValueType> TypeFromName(const std::string& name) {
  for (ValueType type : {ValueType::kNull, ValueType::kInt64,
                         ValueType::kDouble, ValueType::kString,
                         ValueType::kBool}) {
    if (EqualsIgnoreCase(name, ValueTypeToString(type))) return type;
  }
  return Status::InvalidArgument("unknown type name: " + name);
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
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::string header;
  if (!std::getline(in, header)) {
    return Status::InvalidArgument("empty table file: " + path);
  }
  if (in.eof()) return Status::InvalidArgument("truncated header in " + path);
  TableSchema schema;
  for (const std::string& cell : SplitCells(header)) {
    size_t space = cell.find(' ');
    if (space == std::string::npos) {
      return Status::InvalidArgument("malformed schema header in " + path);
    }
    DL_ASSIGN_OR_RETURN(ValueType type, TypeFromName(cell.substr(space + 1)));
    schema.AddColumn(cell.substr(0, space), type);
  }
  return schema;
}

Status LoadTableInto(Table* table, const std::string& path) {
  DL_ASSIGN_OR_RETURN(TableSchema schema, LoadSchema(path));
  if (schema.NumColumns() != table->schema().NumColumns()) {
    return Status::InvalidArgument("schema mismatch loading " + path);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // skip header
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    // SaveTable ends every line with '\n'; a line cut short by a torn
    // write ends at EOF instead.
    if (in.eof()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": truncated line");
    }
    if (line.empty()) continue;
    std::vector<std::string> cells = SplitCells(line);
    if (cells.size() != schema.NumColumns()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": wrong arity");
    }
    Row row;
    row.reserve(cells.size());
    for (const std::string& cell : cells) {
      DL_ASSIGN_OR_RETURN(Value v, DecodeCell(cell));
      row.push_back(std::move(v));
    }
    DL_RETURN_NOT_OK(table->Append(std::move(row)).status());
  }
  return Status::OK();
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
  for (const auto& entry : iter) {
    if (entry.path().extension() != ".dltab") continue;
    std::string name = entry.path().stem().string();
    DL_ASSIGN_OR_RETURN(TableSchema schema, LoadSchema(entry.path().string()));
    DL_ASSIGN_OR_RETURN(Table * table,
                        db->CreateTable(name, std::move(schema)));
    DL_RETURN_NOT_OK(LoadTableInto(table, entry.path().string()));
  }
  return Status::OK();
}

}  // namespace datalawyer
