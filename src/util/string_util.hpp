#pragma once

// String helpers shared by the table/CSV writers, the serializers and the
// number readers of the request path.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dagsched {

/// Formats a double with `decimals` fixed digits (locale-independent).
std::string format_fixed(double value, int decimals);

/// What std::strtod reports for the longest number at the start of
/// `text`, read without the C locale: leading C whitespace, an optional
/// sign, then a decimal or "0x" hexadecimal float, "inf"/"infinity" or
/// "nan", rounded correctly by std::from_chars.  `out_of_range` is set
/// where strtod sets ERANGE: on overflow (`value` is infinite), on
/// underflow to zero (`value` is zero), and on a subnormal result.
/// Unlike glibc, it is also set for a subnormal that is exact (a hex
/// token, or a decimal one of ~750 digits) and not for a decimal just
/// below DBL_MIN that rounds up to it.
struct ParsedReal {
  double value = 0.0;
  std::size_t used = 0;  ///< bytes consumed; 0 when no number starts here
  bool out_of_range = false;
};
ParsedReal parse_real(std::string_view text);

/// The same for std::strtoll in base 10: leading C whitespace, an
/// optional sign, digits.  On overflow `value` saturates like strtoll.
struct ParsedInt {
  std::int64_t value = 0;
  std::size_t used = 0;  ///< bytes consumed; 0 when no number starts here
  bool out_of_range = false;
};
ParsedInt parse_int64(std::string_view text);

/// Formats a percentage with `decimals` digits and a trailing '%'.
std::string format_percent(double fraction_times_100, int decimals = 1);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view text, char separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// True when `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Left/right padding to a minimum width (no truncation).
std::string pad_left(std::string_view text, std::size_t width);
std::string pad_right(std::string_view text, std::size_t width);

/// Renders format_time output; lives here to keep time.hpp header-light.
}  // namespace dagsched
