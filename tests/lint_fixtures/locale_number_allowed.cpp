// Fixture: a suppressed locale-dependent reader (e.g. a locale-aware UI).
#include <cstdlib>

double user_value(const char* text) {
  // LINT-ALLOW(locale-number): fixture stand-in for input meant to follow the user's locale
  return std::strtod(text, nullptr);
}
