#pragma once

// Minimal deterministic JSON emission and parsing.
//
// The sweep runner's summary artifact must be byte-identical for a fixed
// seed across runs, thread counts and platforms, so the writer avoids every
// nondeterminism source: keys are emitted in caller order (no map
// iteration), doubles are printed with a fixed number of locale-independent
// decimals (format_fixed), and integer Time values stay integers.  Output
// is pretty-printed with two-space indentation and "\n" line endings by
// default; Style::Compact emits a single line with no whitespace at all for
// JSONL streams (the schedd request/response/trace wire format).
//
// JsonValue/parse_json is the read side: a small recursive-descent parser
// into an ordered document tree, strict (no trailing commas, no comments,
// no NaN/Infinity) because schedd parses untrusted request lines with it.
// It sits on schedd's serial reader, so it is also lean: numbers convert
// with std::from_chars (locale-free, via parse_real/parse_int64 in
// util/string_util), unescaped string bytes are copied a run at a time,
// and arrays and objects are built into exact-size vectors.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dagsched {

/// Streaming JSON writer with explicit structure calls.
///
/// Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("instances"); w.value(std::int64_t{204});
///   w.key("ratio"); w.value(1.25);             // 6 fixed decimals
///   w.key("policies"); w.begin_array();
///   ...
///   w.end_array();
///   w.end_object();
///   std::string text = w.str();
class JsonWriter {
 public:
  enum class Style {
    Pretty,   ///< multi-line, two-space indentation, trailing newline
    Compact,  ///< one line, no spaces, no trailing newline (JSONL)
  };

  /// `double_decimals` controls the fixed-decimal rendering of doubles.
  explicit JsonWriter(int double_decimals = 6, Style style = Style::Pretty);

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits an object key; the next value call provides its value.
  void key(const std::string& name);

  void value(const std::string& text);
  void value(const char* text);
  void value(std::int64_t integer);
  void value(std::uint64_t integer);
  void value(int integer);
  void value(double number);
  void value(bool flag);
  void null();

  /// Rendered document so far; call after the outermost end_object/array.
  const std::string& str() const { return out_; }

  /// JSON string escaping (quotes, backslashes, control characters).
  static std::string escape(const std::string& text);

 private:
  enum class Scope { Object, Array };
  struct Frame {
    Scope scope;
    bool has_items = false;
  };

  void before_value();
  void newline_indent();

  int double_decimals_;
  Style style_;
  std::string out_;
  std::vector<Frame> stack_;
  bool pending_key_ = false;
};

namespace detail {
class JsonParser;
}  // namespace detail

/// Parsed JSON document node.  Objects keep their members in document
/// order; numbers keep the raw token alongside the double so integers up
/// to 64 bits round-trip exactly (as_int64/as_uint64 re-parse the token).
/// All accessors throw std::invalid_argument on a kind mismatch so callers
/// can surface one structured error per malformed request.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }

  bool as_bool() const;
  double as_double() const;
  /// Exact integer accessors; throw when the token is fractional, signed
  /// the wrong way, or out of range for the target type.
  std::int64_t as_int64() const;
  std::uint64_t as_uint64() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  // array elements
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view name) const;

 private:
  friend class detail::JsonParser;

  const char* kind_name() const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string text_;  // a string's text, or a number's raw token
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one complete JSON document (trailing whitespace allowed, any
/// other trailing content rejected).  Throws std::invalid_argument with a
/// byte offset on malformed input; nesting is capped so untrusted request
/// lines cannot overflow the stack.
JsonValue parse_json(const std::string& text);

}  // namespace dagsched
