#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace datalawyer {

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = char(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

std::string TsvEscape(const std::string& s) {
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
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string TsvUnescape(const std::string& s) {
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
        case 'r':
          out += '\r';
          break;
        case '\\':
          out += '\\';
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

std::vector<std::string> SplitEscaped(const std::string& line, char delim) {
  std::vector<std::string> fields;
  std::string cur;
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      cur += line[i];
      cur += line[i + 1];
      ++i;
    } else if (line[i] == delim) {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += line[i];
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

namespace {

template <typename T>
bool ParseWholeImpl(const std::string& s, T* out) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  T v;
  if constexpr (std::is_same_v<T, double>) {
    v = std::strtod(s.c_str(), &end);
  } else {
    v = std::strtoll(s.c_str(), &end, 10);
  }
  if (errno != 0 || end != s.c_str() + s.size() || !std::isfinite(double(v))) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

bool ParseWhole(const std::string& s, int64_t* out) {
  return ParseWholeImpl(s, out);
}

bool ParseWhole(const std::string& s, double* out) {
  return ParseWholeImpl(s, out);
}

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace datalawyer
