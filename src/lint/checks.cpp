#include <algorithm>
#include <cstddef>
#include <iterator>

#include "lint/model.hpp"

// The seven contract rules.  Each is a lexical pattern over the FileModel
// token stream; docs/ARCHITECTURE.md ("Machine-checked contracts") maps
// every rule back to the prose invariant it enforces.

namespace dagsched::lint {

namespace {

bool is_ident(const Token& token, const char* text) {
  return token.kind == TokenKind::Identifier && token.text == text;
}

bool is_punct(const Token& token, const char* text) {
  return token.kind == TokenKind::Punct && token.text == text;
}

/// Index of the matching close paren for the open paren at `open`
/// (tokens[open] must be "("); tokens.size() when unbalanced.
std::size_t matching_paren(const std::vector<Token>& tokens,
                           std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (is_punct(tokens[i], "(")) ++depth;
    if (is_punct(tokens[i], ")")) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return tokens.size();
}

/// True when `text` contains a printf floating conversion: '%', optional
/// flags / width / precision (digits, '.', '*', '-', '+', ' ', '#', '0'),
/// then one of eEfFgGaA.
bool has_float_conversion(const std::string& text) {
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] != '%') continue;
    std::size_t j = i + 1;
    if (j < text.size() && text[j] == '%') {
      i = j;  // literal %%
      continue;
    }
    while (j < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[j])) ||
            text[j] == '.' || text[j] == '*' || text[j] == '-' ||
            text[j] == '+' || text[j] == ' ' || text[j] == '#' ||
            text[j] == '0' || text[j] == '\'')) {
      ++j;
    }
    if (j < text.size() && (text[j] == 'e' || text[j] == 'E' ||
                            text[j] == 'f' || text[j] == 'F' ||
                            text[j] == 'g' || text[j] == 'G' ||
                            text[j] == 'a' || text[j] == 'A')) {
      return true;
    }
  }
  return false;
}

}  // namespace

void check_wall_clock(const FileModel& model, std::vector<RawFinding>& out) {
  static const char* const kClocks[] = {
      "steady_clock",  "system_clock", "high_resolution_clock",
      "random_device", "gettimeofday", "clock_gettime",
  };
  const std::vector<Token>& tokens = model.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != TokenKind::Identifier) continue;
    for (const char* name : kClocks) {
      if (token.text == name) {
        out.push_back({token.line, "wall-clock",
                       std::string(name) +
                           ": wall time / host entropy is nondeterministic; "
                           "results must derive from explicit seeds and "
                           "simulated time (docs/ARCHITECTURE.md)"});
      }
    }
    // ::rand / ::srand as a call.  The token before a C-library call is
    // never '.' or '->' (that would be a member named rand).
    if ((token.text == "rand" || token.text == "srand") &&
        i + 1 < tokens.size() && is_punct(tokens[i + 1], "(") &&
        (i == 0 ||
         (!is_punct(tokens[i - 1], ".") && !is_punct(tokens[i - 1], "->")))) {
      out.push_back({token.line, "wall-clock",
                     token.text +
                         "(): C-library entropy is process-global and "
                         "unseeded; use dagsched::Rng::stream"});
    }
  }
}

void check_unordered_iter(const FileModel& model, const LintOptions& options,
                          std::vector<RawFinding>& out) {
  if (!path_in_scope(model.norm_path, options.ordered_paths)) return;
  const std::vector<Token>& tokens = model.tokens;
  const auto is_unordered_name = [&](const Token& token) {
    if (token.kind != TokenKind::Identifier) return false;
    if (model.unordered_names.count(token.text) > 0) return true;
    return token.text == "unordered_map" || token.text == "unordered_set" ||
           token.text == "unordered_multimap" ||
           token.text == "unordered_multiset";
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    // Range-for over an unordered container.
    if (is_ident(tokens[i], "for") && i + 1 < tokens.size() &&
        is_punct(tokens[i + 1], "(")) {
      const std::size_t close = matching_paren(tokens, i + 1);
      std::size_t colon = tokens.size();
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (is_punct(tokens[j], "(")) ++depth;
        if (is_punct(tokens[j], ")")) --depth;
        if (depth == 1 && is_punct(tokens[j], ":")) {
          colon = j;
          break;
        }
      }
      if (colon != tokens.size()) {
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (is_unordered_name(tokens[j])) {
            out.push_back(
                {tokens[i].line, "unordered-iter",
                 "range-for over unordered container '" + tokens[j].text +
                     "' in a serialization/summary/hash path: hash "
                     "iteration order is implementation-defined and breaks "
                     "byte-identical artifacts; copy to a sorted vector "
                     "first"});
            break;
          }
        }
      }
    }
    // Iterator loop: container.begin() / .cbegin().
    if (is_unordered_name(tokens[i]) && i + 2 < tokens.size() &&
        (is_punct(tokens[i + 1], ".") || is_punct(tokens[i + 1], "->")) &&
        (is_ident(tokens[i + 2], "begin") ||
         is_ident(tokens[i + 2], "cbegin"))) {
      out.push_back({tokens[i].line, "unordered-iter",
                     "iteration over unordered container '" + tokens[i].text +
                         "' in a serialization/summary/hash path: hash "
                         "iteration order is implementation-defined; copy "
                         "to a sorted vector first"});
    }
  }
}

void check_rng_stream(const FileModel& model, std::vector<RawFinding>& out) {
  // The generator's own implementation is the one place allowed to touch
  // raw construction.
  if (model.norm_path.find("util/rng") != std::string::npos) return;
  const std::vector<Token>& tokens = model.tokens;
  const auto flag = [&](int line, const std::string& what) {
    out.push_back(
        {line, "rng-stream",
         what + ": randomness must come from the Rng::stream seams (or a "
                "seed handed down by one) so streams stay decorrelated and "
                "replayable (docs/ARCHITECTURE.md determinism contract)"});
  };

  // True when the initializer tokens starting at `j` (running to the next
  // ';') reach the generator through a sanctioned seam: Rng::stream(...)
  // or an existing stream's .split().
  const auto sanctioned_init = [&](std::size_t j) {
    for (; j < tokens.size() && !is_punct(tokens[j], ";"); ++j) {
      if (j == 0) continue;
      if (is_ident(tokens[j], "stream") && is_punct(tokens[j - 1], "::")) {
        return true;
      }
      if (is_ident(tokens[j], "split") && (is_punct(tokens[j - 1], ".") ||
                                           is_punct(tokens[j - 1], "->"))) {
        return true;
      }
    }
    return false;
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!is_ident(tokens[i], "Rng")) continue;
    if (i > 0 && (is_ident(tokens[i - 1], "class") ||
                  is_ident(tokens[i - 1], "struct"))) {
      continue;  // forward declaration
    }
    if (i + 1 >= tokens.size()) continue;
    const Token& next = tokens[i + 1];
    // Qualified use (Rng::stream, Rng::...) — the sanctioned seam.
    if (is_punct(next, "::")) continue;
    // References, pointers, template arguments, parameter lists.
    if (is_punct(next, "&") || is_punct(next, "*") || is_punct(next, ">") ||
        is_punct(next, ",") || is_punct(next, ")") || is_punct(next, ">>")) {
      continue;
    }
    // Direct temporary: `Rng(seed)`.
    if (is_punct(next, "(") || is_punct(next, "{")) {
      flag(tokens[i].line, "direct Rng construction");
      continue;
    }
    if (next.kind != TokenKind::Identifier) continue;
    if (i + 2 >= tokens.size()) continue;
    const Token& after = tokens[i + 2];
    // `Rng name(seed)` / `Rng name{seed}` — constructed from a raw seed.
    if (is_punct(after, "(") || is_punct(after, "{")) {
      flag(tokens[i].line,
           "direct Rng construction of '" + next.text + "'");
      continue;
    }
    // `Rng name;` — default-constructed, i.e. the library-wide default
    // seed: almost never what a caller wants.
    if (is_punct(after, ";")) {
      flag(tokens[i].line,
           "default-constructed Rng '" + next.text + "'");
      continue;
    }
    // `Rng name = <init>` — fine iff the initializer routes through a
    // sanctioned seam (Rng::stream or .split()).
    if (is_punct(after, "=") && !sanctioned_init(i + 3)) {
      flag(tokens[i].line,
           "Rng '" + next.text + "' initialized outside Rng::stream");
    }
  }
}

void check_float_format(const FileModel& model, const LintOptions& options,
                        std::vector<RawFinding>& out) {
  if (!path_in_scope(model.norm_path, options.writer_paths)) return;
  const std::vector<Token>& tokens = model.tokens;
  // Walks a primary expression starting at `j` (identifier member chains
  // like `row.sigma_us`, or a literal) and reports whether its value is
  // floating: a float literal, or a terminal identifier in float_names
  // that is not immediately called.  Returns the flagged token index or
  // tokens.size().
  const auto float_expr_at = [&](std::size_t j) -> std::size_t {
    if (j >= tokens.size()) return tokens.size();
    if (tokens[j].kind == TokenKind::Number) {
      return tokens[j].is_float ? j : tokens.size();
    }
    if (tokens[j].kind != TokenKind::Identifier) return tokens.size();
    // Follow the member chain to its terminal identifier.
    while (j + 2 < tokens.size() &&
           (is_punct(tokens[j + 1], ".") || is_punct(tokens[j + 1], "->")) &&
           tokens[j + 2].kind == TokenKind::Identifier) {
      j += 2;
    }
    // A call's result type is unknown to a lexical model.
    if (j + 1 < tokens.size() && is_punct(tokens[j + 1], "(")) {
      return tokens.size();
    }
    return model.float_names.count(tokens[j].text) > 0 ? j : tokens.size();
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    // std::to_string on a floating expression: the rounding is
    // unspecified-precision and locale-blind — artifacts must go through
    // format_fixed / JsonWriter::value(double).
    if (is_ident(tokens[i], "to_string") && i + 1 < tokens.size() &&
        is_punct(tokens[i + 1], "(")) {
      const std::size_t hit = float_expr_at(i + 2);
      if (hit != tokens.size()) {
        out.push_back(
            {tokens[i].line, "float-format",
             "std::to_string on floating value '" + tokens[hit].text +
                 "' in a writer path: six-digit default formatting is "
                 "not the artifact contract; use format_fixed or "
                 "JsonWriter::value(double)"});
      }
    }
    // Default ostream << of a floating value.
    if (is_punct(tokens[i], "<<")) {
      const std::size_t hit = float_expr_at(i + 1);
      if (hit != tokens.size()) {
        out.push_back(
            {tokens[i].line, "float-format",
             "default ostream << of floating value '" + tokens[hit].text +
                 "' in a writer path: stream formatting is precision- and "
                 "locale-dependent; use format_fixed or "
                 "JsonWriter::value(double)"});
      }
    }
    // printf-family float conversions are locale-dependent (the decimal
    // point comes from LC_NUMERIC).
    if (tokens[i].kind == TokenKind::Identifier &&
        (tokens[i].text == "printf" || tokens[i].text == "fprintf" ||
         tokens[i].text == "sprintf" || tokens[i].text == "snprintf" ||
         tokens[i].text == "vsnprintf") &&
        i + 1 < tokens.size() && is_punct(tokens[i + 1], "(")) {
      const std::size_t close = matching_paren(tokens, i + 1);
      for (std::size_t j = i + 1; j < close; ++j) {
        if (tokens[j].kind == TokenKind::String &&
            has_float_conversion(tokens[j].text)) {
          out.push_back(
              {tokens[i].line, "float-format",
               tokens[i].text +
                   " with a %e/%f/%g conversion in a writer path: the "
                   "rendered decimal point follows LC_NUMERIC, so artifact "
                   "bytes depend on the host locale"});
          break;
        }
      }
    }
  }
}

void check_bare_assert(const FileModel& model, std::vector<RawFinding>& out) {
  const std::vector<Token>& tokens = model.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (is_ident(tokens[i], "assert") && is_punct(tokens[i + 1], "(") &&
        (i == 0 ||
         (!is_punct(tokens[i - 1], ".") && !is_punct(tokens[i - 1], "->") &&
          !is_punct(tokens[i - 1], "#")))) {
      out.push_back(
          {tokens[i].line, "bare-assert",
           "bare assert() in a Release-kept invariant path "
           "(DAGSCHED_KEEP_ASSERTS): invariants use require()/ensure() "
           "with a message; hot-path bounds checks keep assert with a "
           "LINT-ALLOW reason"});
    }
  }
}

void check_locale_number(const FileModel& model,
                         std::vector<RawFinding>& out) {
  static const char* const kReaders[] = {"strtod", "strtof", "strtold", "atof",
                                         "stod",   "stof",   "stold"};
  // Keywords an expression may follow; any other identifier before the
  // name is a type, so the name is being declared.
  static const char* const kBeforeExpression[] = {"return", "co_return",
                                                  "throw", "else"};
  const std::vector<Token>& tokens = model.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::Identifier ||
        !is_punct(tokens[i + 1], "(")) {
      continue;
    }
    // Calls only: not a member (`reader.stod(`) and not a declaration
    // (`double stod(`), whose name follows a type.
    if (i > 0 &&
        (is_punct(tokens[i - 1], ".") || is_punct(tokens[i - 1], "->") ||
         (tokens[i - 1].kind == TokenKind::Identifier &&
          std::find(std::begin(kBeforeExpression), std::end(kBeforeExpression),
                    tokens[i - 1].text) == std::end(kBeforeExpression)))) {
      continue;
    }
    for (const char* name : kReaders) {
      if (tokens[i].text == name) {
        out.push_back(
            {tokens[i].line, "locale-number",
             tokens[i].text +
                 "(): the decimal point it accepts follows LC_NUMERIC, so "
                 "the same text parses differently under another locale; "
                 "use parse_real (util/string_util), which reads numbers "
                 "with std::from_chars"});
      }
    }
  }
}

void check_ready_scan(const FileModel& model, const LintOptions& options,
                      std::vector<RawFinding>& out) {
  if (!path_in_scope(model.norm_path, options.policy_paths)) return;
  const std::vector<Token>& tokens = model.tokens;
  for (std::size_t i = 1; i + 1 < tokens.size(); ++i) {
    if (is_ident(tokens[i], "ready_tasks") && is_punct(tokens[i + 1], "(") &&
        (is_punct(tokens[i - 1], ".") || is_punct(tokens[i - 1], "->"))) {
      out.push_back(
          {tokens[i].line, "ready-scan",
           "ready_tasks() in a scheduling policy reads the whole ready set "
           "each epoch, O(n^2) over a workflow-scale run; keep a ReadyIndex "
           "fed from newly_ready() (sched/policy.hpp)"});
    }
  }
}

}  // namespace dagsched::lint
