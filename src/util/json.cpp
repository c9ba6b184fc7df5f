#include "util/json.hpp"

#include <array>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <system_error>

#include "util/require.hpp"
#include "util/string_util.hpp"

namespace dagsched {

JsonWriter::JsonWriter(int double_decimals, Style style)
    : double_decimals_(double_decimals), style_(style) {
  require(double_decimals >= 0 && double_decimals <= 12,
          "JsonWriter: decimals out of range");
}

std::string JsonWriter::escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::newline_indent() {
  if (style_ == Style::Compact) return;
  out_ += '\n';
  out_.append(2 * stack_.size(), ' ');
}

void JsonWriter::before_value() {
  if (stack_.empty()) return;  // the document root
  Frame& top = stack_.back();
  if (top.scope == Scope::Object) {
    require(pending_key_, "JsonWriter: object value without a key");
    pending_key_ = false;
    return;  // key() already handled the comma and indentation
  }
  if (top.has_items) out_ += ',';
  top.has_items = true;
  newline_indent();
}

void JsonWriter::key(const std::string& name) {
  require(!stack_.empty() && stack_.back().scope == Scope::Object,
          "JsonWriter: key outside an object");
  require(!pending_key_, "JsonWriter: two keys in a row");
  Frame& top = stack_.back();
  if (top.has_items) out_ += ',';
  top.has_items = true;
  newline_indent();
  out_ += '"';
  out_ += escape(name);
  out_ += style_ == Style::Compact ? "\":" : "\": ";
  pending_key_ = true;
}

void JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back({Scope::Object, false});
}

void JsonWriter::end_object() {
  require(!stack_.empty() && stack_.back().scope == Scope::Object,
          "JsonWriter: end_object without begin_object");
  require(!pending_key_, "JsonWriter: dangling key at end_object");
  bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline_indent();
  out_ += '}';
  if (stack_.empty() && style_ == Style::Pretty) out_ += '\n';
}

void JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back({Scope::Array, false});
}

void JsonWriter::end_array() {
  require(!stack_.empty() && stack_.back().scope == Scope::Array,
          "JsonWriter: end_array without begin_array");
  bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) newline_indent();
  out_ += ']';
  if (stack_.empty() && style_ == Style::Pretty) out_ += '\n';
}

void JsonWriter::value(const std::string& text) {
  before_value();
  out_ += '"';
  out_ += escape(text);
  out_ += '"';
}

void JsonWriter::value(const char* text) { value(std::string(text)); }

void JsonWriter::value(std::int64_t integer) {
  before_value();
  out_ += std::to_string(integer);
}

void JsonWriter::value(std::uint64_t integer) {
  before_value();
  out_ += std::to_string(integer);
}

void JsonWriter::value(int integer) {
  value(static_cast<std::int64_t>(integer));
}

void JsonWriter::value(double number) {
  before_value();
  out_ += format_fixed(number, double_decimals_);
}

void JsonWriter::value(bool flag) {
  before_value();
  out_ += flag ? "true" : "false";
}

void JsonWriter::null() {
  before_value();
  out_ += "null";
}

// --- JsonValue -------------------------------------------------------------

const char* JsonValue::kind_name() const {
  switch (kind_) {
    case Kind::Null: return "null";
    case Kind::Bool: return "bool";
    case Kind::Number: return "number";
    case Kind::String: return "string";
    case Kind::Array: return "array";
    case Kind::Object: return "object";
  }
  return "?";
}

namespace {

[[noreturn]] void kind_mismatch(const char* wanted, const char* got) {
  throw std::invalid_argument(std::string("json: expected ") + wanted +
                              ", got " + got);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) kind_mismatch("bool", kind_name());
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::Number) kind_mismatch("number", kind_name());
  return number_;
}

std::int64_t JsonValue::as_int64() const {
  if (kind_ != Kind::Number) kind_mismatch("integer", kind_name());
  const ParsedInt parsed = parse_int64(text_);
  if (parsed.out_of_range || parsed.used != text_.size()) {
    throw std::invalid_argument("json: '" + text_ +
                                "' is not a 64-bit integer");
  }
  return parsed.value;
}

std::uint64_t JsonValue::as_uint64() const {
  if (kind_ != Kind::Number) kind_mismatch("integer", kind_name());
  // The token is a JSON number: no whitespace or '+' for strtoull's
  // grammar to differ on.
  std::uint64_t parsed = 0;
  const char* const end = text_.data() + text_.size();
  const auto [stop, error] = std::from_chars(text_.data(), end, parsed);
  if (error != std::errc() || stop != end) {
    throw std::invalid_argument("json: '" + text_ +
                                "' is not an unsigned integer");
  }
  return parsed;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) kind_mismatch("string", kind_name());
  return text_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::Array) kind_mismatch("array", kind_name());
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::Object) kind_mismatch("object", kind_name());
  return members_;
}

const JsonValue* JsonValue::find(std::string_view name) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [key, value] : members_) {
    if (key == name) return &value;
  }
  return nullptr;
}

// --- parse_json ------------------------------------------------------------

namespace detail {

// Deep enough for any legitimate request, shallow enough that a
// pathological "[[[[..." line cannot overflow the parser's C++ stack.
constexpr int kMaxDepth = 64;

/// Per-depth element buffers.  A container's members or elements collect
/// in the buffer of its depth, then move into one exact-size vector, so
/// building a document regrows no vector.  The buffers outlive a parse
/// (one set per thread, see parse_json) so that the next request line
/// finds them already grown; ~JsonParser empties them and gives back
/// whatever exceeds kRetainedBytes, so a hostile line cannot pin memory.
struct JsonScratch {
  static constexpr std::size_t kRetainedBytes = std::size_t{1} << 20;

  std::array<std::vector<JsonValue>, kMaxDepth + 1> items;
  std::array<std::vector<std::pair<std::string, JsonValue>>, kMaxDepth + 1>
      members;

  void reset() {
    std::size_t kept = 0;
    const auto reset_one = [&kept](auto& buffer) {
      buffer.clear();
      const std::size_t bytes = buffer.capacity() * sizeof(buffer[0]);
      if (kept + bytes > kRetainedBytes) {
        buffer.shrink_to_fit();
      } else {
        kept += bytes;
      }
    };
    for (auto& buffer : items) reset_one(buffer);
    for (auto& buffer : members) reset_one(buffer);
  }
};

class JsonParser {
 public:
  JsonParser(const std::string& text, JsonScratch& scratch)
      : text_(text), scratch_(scratch) {}
  ~JsonParser() { scratch_.reset(); }
  JsonParser(const JsonParser&) = delete;
  JsonParser& operator=(const JsonParser&) = delete;

  JsonValue parse_document() {
    JsonValue value;
    parse_value(0, value);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) return false;
    pos_ += literal.size();
    return true;
  }

  // Fills `value`, a default (null) JsonValue, in place: elements and
  // members are parsed straight into their scratch slot.
  void parse_value(int depth, JsonValue& value) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    const char c = peek();
    if (c == '{') {
      parse_object(depth, value);
    } else if (c == '[') {
      parse_array(depth, value);
    } else if (c == '"') {
      value.kind_ = JsonValue::Kind::String;
      parse_string(value.text_);
    } else if (c == 't' || c == 'f') {
      if (!consume_literal(c == 't' ? "true" : "false")) {
        fail("invalid literal");
      }
      value.kind_ = JsonValue::Kind::Bool;
      value.bool_ = c == 't';
    } else if (c == 'n') {
      if (!consume_literal("null")) fail("invalid literal");
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      parse_number(value);
    } else {
      fail("unexpected character");
    }
  }

  void parse_object(int depth, JsonValue& value) {
    expect('{');
    value.kind_ = JsonValue::Kind::Object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    auto& members = scratch_.members[static_cast<std::size_t>(depth)];
    while (true) {
      skip_whitespace();
      auto& member = members.emplace_back();
      parse_string(member.first);
      skip_whitespace();
      expect(':');
      parse_value(depth + 1, member.second);
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        value.members_.assign(std::make_move_iterator(members.begin()),
                              std::make_move_iterator(members.end()));
        members.clear();
        return;
      }
      fail("expected ',' or '}' in object");
    }
  }

  void parse_array(int depth, JsonValue& value) {
    expect('[');
    value.kind_ = JsonValue::Kind::Array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    auto& items = scratch_.items[static_cast<std::size_t>(depth)];
    while (true) {
      parse_value(depth + 1, items.emplace_back());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        value.items_.assign(std::make_move_iterator(items.begin()),
                            std::make_move_iterator(items.end()));
        items.clear();
        return;
      }
      fail("expected ',' or ']' in array");
    }
  }

  void parse_string(std::string& out) {
    if (peek() != '"') fail("expected string");
    ++pos_;
    while (true) {
      // Bytes that need no decoding are copied a run at a time.
      std::size_t run_end = pos_;
      while (run_end < text_.size()) {
        const unsigned char c = static_cast<unsigned char>(text_[run_end]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++run_end;
      }
      out.append(text_, pos_, run_end - pos_);
      pos_ = run_end;
      if (pos_ >= text_.size()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return;
      }
      if (c < 0x20) fail("unescaped control character in string");
      ++pos_;  // the backslash
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: --pos_; fail("invalid escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else { --pos_; fail("invalid \\u escape"); }
    }
    return code;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xd800 && code <= 0xdbff) {  // high surrogate: need the pair
      if (!consume_literal("\\u")) fail("unpaired surrogate");
      const unsigned low = parse_hex4();
      if (low < 0xdc00 || low > 0xdfff) fail("unpaired surrogate");
      code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
    } else if (code >= 0xdc00 && code <= 0xdfff) {
      fail("unpaired surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  void parse_number(JsonValue& value) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (peek() >= '1' && peek() <= '9') {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    } else {
      fail("invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        fail("invalid number");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        fail("invalid number");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    value.kind_ = JsonValue::Kind::Number;
    value.text_.assign(text_, start, pos_ - start);
    // Locale-free, and strict about range exactly where strtod is.
    const ParsedReal parsed = parse_real(value.text_);
    if (parsed.out_of_range) fail("number out of range");
    value.number_ = parsed.value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  JsonScratch& scratch_;
};

}  // namespace detail

JsonValue parse_json(const std::string& text) {
  static thread_local detail::JsonScratch scratch;
  return detail::JsonParser(text, scratch).parse_document();
}

}  // namespace dagsched
