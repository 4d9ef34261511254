#include "obs/analysis/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

namespace causim::obs::analysis {

namespace {

const Json kNullJson{};

void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  static constexpr int kMaxDepth = 128;

  bool fail(const std::string& message) {
    if (error.empty()) error = message + " at offset " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool consume(char expected) {
    if (pos >= text.size() || text[pos] != expected) {
      return fail(std::string("expected '") + expected + "'");
    }
    ++pos;
    return true;
  }

  bool match_literal(std::string_view literal) {
    if (text.substr(pos, literal.size()) != literal) return false;
    pos += literal.size();
    return true;
  }

  bool parse_hex4(unsigned& out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("bad hex digit in \\u escape");
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (true) {
      if (pos >= text.size()) return fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return fail("truncated escape");
      const char esc = text[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF && text.substr(pos, 2) == "\\u") {
            pos += 2;
            unsigned low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) return fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
  }

  bool parse_number(double& out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    out = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty()) {
      pos = start;
      return fail("malformed number");
    }
    return true;
  }

  bool parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out.type_ = Json::Type::kObject;
      skip_ws();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!consume(':')) return false;
        Json value;
        if (!parse_value(value, depth + 1)) return false;
        out.object_[std::move(key)] = std::move(value);
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        return consume('}');
      }
    }
    if (c == '[') {
      ++pos;
      out.type_ = Json::Type::kArray;
      skip_ws();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      while (true) {
        Json value;
        if (!parse_value(value, depth + 1)) return false;
        out.array_.push_back(std::move(value));
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        return consume(']');
      }
    }
    if (c == '"') {
      out.type_ = Json::Type::kString;
      return parse_string(out.string_);
    }
    if (match_literal("true")) {
      out.type_ = Json::Type::kBool;
      out.bool_ = true;
      return true;
    }
    if (match_literal("false")) {
      out.type_ = Json::Type::kBool;
      out.bool_ = false;
      return true;
    }
    if (match_literal("null")) {
      out.type_ = Json::Type::kNull;
      return true;
    }
    out.type_ = Json::Type::kNumber;
    return parse_number(out.number_);
  }
};

Json Json::parse(std::string_view text, std::string* error) {
  JsonParser parser;
  parser.text = text;
  Json out;
  bool ok = parser.parse_value(out, 0);
  if (ok) {
    parser.skip_ws();
    if (parser.pos != text.size()) ok = parser.fail("trailing garbage");
  }
  if (!ok) {
    if (error != nullptr) *error = parser.error;
    return Json{};
  }
  if (error != nullptr) error->clear();
  return out;
}

const Json& Json::at(const std::string& key) const {
  if (type_ == Type::kObject) {
    const auto it = object_.find(key);
    if (it != object_.end()) return it->second;
  }
  return kNullJson;
}

const Json& Json::at(std::size_t index) const {
  if (type_ == Type::kArray && index < array_.size()) return array_[index];
  return kNullJson;
}

void Json::write(std::ostream& out) const {
  switch (type_) {
    case Type::kNull:
      out << "null";
      return;
    case Type::kBool:
      out << (bool_ ? "true" : "false");
      return;
    case Type::kNumber:
      out << json_number(number_);
      return;
    case Type::kString:
      out << '"' << json_escape(string_) << '"';
      return;
    case Type::kArray: {
      out << '[';
      bool first = true;
      for (const Json& v : array_) {
        if (!first) out << ", ";
        v.write(out);
        first = false;
      }
      out << ']';
      return;
    }
    case Type::kObject: {
      out << '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out << ", ";
        out << '"' << json_escape(key) << "\": ";
        value.write(out);
        first = false;
      }
      out << '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::ostringstream out;
  write(out);
  return out.str();
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull: return true;
    case Json::Type::kBool: return a.bool_ == b.bool_;
    case Json::Type::kNumber: return a.number_ == b.number_;
    case Json::Type::kString: return a.string_ == b.string_;
    case Json::Type::kArray: return a.array_ == b.array_;
    case Json::Type::kObject: return a.object_ == b.object_;
  }
  return false;
}

}  // namespace causim::obs::analysis
