// Fixture: every locale-dependent number reader the check covers.
#include <cstdlib>
#include <string>

double sigma(const char* text) { return std::strtod(text, nullptr); }

float weight(const char* text) { return strtof(text, nullptr); }

double budget(const char* text) { return atof(text); }

double ratio(const std::string& text) { return std::stod(text); }

float scale(const std::string& text) { return std::stof(text); }

long double wide(const char* text) { return strtold(text, nullptr); }

long double wider(const std::string& text) { return std::stold(text); }

// Keywords that an expression follows do not hide the call.
void raise(const char* text) { throw strtod(text, nullptr); }

void touch(bool skip, const char* text) {
  if (skip) return;
  else atof(text);
}

Task<double> later(const char* text) { co_return atof(text); }

// A member function of the same name is not the C-library reader.
struct Reader {
  double stod(const std::string& text) const;
};
double read(const Reader& reader) { return reader.stod("1"); }
