#include "util/string_util.hpp"

#include <cctype>
#include <charconv>
#include <clocale>
#include <cstdio>
#include <cstring>
#include <limits>
#include <system_error>

#include "util/require.hpp"
#include "util/time.hpp"

namespace dagsched {

std::string format_fixed(double value, int decimals) {
  require(decimals >= 0 && decimals <= 12, "format_fixed: bad decimals");
  char buffer[64];
  // This is the one sanctioned floating-point renderer: every artifact
  // writer (JsonWriter, CSV, tables) routes doubles through here, and the
  // %f path is what keeps goldens exact — glibc's correctly-rounded
  // decimal conversion cannot be reproduced with naive scaling.
  // LINT-ALLOW(float-format): sanctioned renderer; the locale-dependent decimal point is normalized below
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  // %f spells the decimal point per LC_NUMERIC, so under e.g. de_DE the
  // bytes would be "3,14" and every golden artifact would change with the
  // host locale.  Normalize whatever the active locale produced back to
  // '.' so the documented locale-independence actually holds.
  const char* point = std::localeconv()->decimal_point;
  if (point[0] != '.' || point[1] != '\0') {
    std::string out = buffer;
    const std::size_t at = out.find(point);
    if (at != std::string::npos) out.replace(at, std::strlen(point), ".");
    return out;
  }
  return buffer;
}

namespace {

bool is_c_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool is_hex_digit(char c) {
  return (c >= '0' && c <= '9') || ((c | 0x20) >= 'a' && (c | 0x20) <= 'f');
}

/// Whether `number`, a finite token std::from_chars found out of range,
/// is too large rather than too small: its leading nonzero digit's place
/// (in decimal or hex digits) plus its exponent is positive.
bool overflows(std::string_view number, bool hex) {
  std::int64_t place = 0;
  bool after_point = false;
  bool leading = true;
  std::size_t i = 0;
  for (; i < number.size() && (number[i] | 0x20) != (hex ? 'p' : 'e'); ++i) {
    if (number[i] == '.') {
      after_point = true;
    } else if (leading && number[i] == '0') {
      if (after_point) --place;
    } else {
      leading = false;
      if (!after_point) ++place;
    }
  }
  std::int64_t exponent = 0;
  if (i + 1 < number.size()) {
    const std::size_t sign = number[i + 1] == '+' ? i + 2 : i + 1;
    const char* const end = number.data() + number.size();
    if (std::from_chars(number.data() + sign, end, exponent).ec !=
        std::errc()) {
      exponent = number[i + 1] == '-' ? std::numeric_limits<int>::min()
                                      : std::numeric_limits<int>::max();
    }
  }
  return (hex ? 4 * place : place) + exponent > 0;
}

}  // namespace

ParsedReal parse_real(std::string_view text) {
  ParsedReal result;
  std::size_t i = 0;
  while (i < text.size() && is_c_space(text[i])) ++i;
  bool negative = false;
  if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
    negative = text[i] == '-';
    ++i;
  }
  // std::from_chars takes neither a sign of its own here nor strtod's
  // "0x" prefix: it reads hex digits when told the format.
  const std::string_view rest = text.substr(i);
  const bool hex =
      rest.size() > 2 && rest[0] == '0' && (rest[1] | 0x20) == 'x' &&
      (is_hex_digit(rest[2]) ||
       (rest[2] == '.' && rest.size() > 3 && is_hex_digit(rest[3])));
  const std::string_view body = rest.substr(hex ? 2 : 0);
  if (body.empty() || body[0] == '+' || body[0] == '-') return result;
  double value = 0.0;
  const auto [end, error] =
      std::from_chars(body.data(), body.data() + body.size(), value,
                      hex ? std::chars_format::hex
                          : std::chars_format::general);
  if (end == body.data()) return result;
  const std::string_view number = body.substr(0, end - body.data());
  result.used = static_cast<std::size_t>(end - text.data());
  if (error == std::errc::result_out_of_range) {
    // from_chars leaves `value` alone; strtod returns infinity or zero.
    result.out_of_range = true;
    value = overflows(number, hex) ? std::numeric_limits<double>::infinity()
                                   : 0.0;
  } else if (value != 0.0 && value < std::numeric_limits<double>::min()) {
    result.out_of_range = true;  // a subnormal, as strtod's ERANGE
  }
  result.value = negative ? -value : value;
  return result;
}

ParsedInt parse_int64(std::string_view text) {
  ParsedInt result;
  std::size_t i = 0;
  while (i < text.size() && is_c_space(text[i])) ++i;
  // std::from_chars reads a '-' itself but not strtoll's '+'.
  if (i < text.size() && text[i] == '+') {
    ++i;
    if (i < text.size() && text[i] == '-') return result;
  }
  const bool negative = i < text.size() && text[i] == '-';
  const auto [end, error] =
      std::from_chars(text.data() + i, text.data() + text.size(),
                      result.value);
  if (end == text.data() + i) return result;
  result.used = static_cast<std::size_t>(end - text.data());
  if (error == std::errc::result_out_of_range) {
    result.out_of_range = true;
    result.value = negative ? std::numeric_limits<std::int64_t>::min()
                            : std::numeric_limits<std::int64_t>::max();
  }
  return result;
}

std::string format_percent(double fraction_times_100, int decimals) {
  return format_fixed(fraction_times_100, decimals) + "%";
}

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == separator) {
      fields.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string pad_left(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string(text);
  return std::string(width - text.size(), ' ') + std::string(text);
}

std::string pad_right(std::string_view text, std::size_t width) {
  if (text.size() >= width) return std::string(text);
  return std::string(text) + std::string(width - text.size(), ' ');
}

std::string format_time(Time t) {
  if (t == kTimeInfinity) return "inf";
  const double abs_us = to_us(t < 0 ? -t : t);
  if (abs_us >= 1000.0) return format_fixed(to_ms(t), 3) + "ms";
  if (abs_us >= 1.0 || t == 0) return format_fixed(to_us(t), 2) + "us";
  return std::to_string(t) + "ns";
}

}  // namespace dagsched
