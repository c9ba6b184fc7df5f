#include "lint/lint.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "lint/model.hpp"
#include "lint/token.hpp"

namespace dagsched::lint {

namespace {

const char kAllowMarker[] = "LINT-ALLOW(";

std::string normalize_path(const std::string& path) {
  std::string out = path;
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

std::string_view trim_view(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

/// Parses LINT-ALLOW directives out of a file's comments.  A directive is
/// only recognized at the start of a comment line, so prose *about* the
/// syntax (like this header's own docs) never parses as a suppression.
/// Malformed directives (no closing paren, no colon) surface as lint-allow
/// findings so they cannot silently fail to suppress.
void parse_allows(const std::vector<Comment>& comments,
                  std::vector<AllowDirective>& allows,
                  std::vector<RawFinding>& meta) {
  for (const Comment& comment : comments) {
    std::size_t line_start = 0;
    int directive_line = comment.line;
    while (line_start <= comment.text.size()) {
      std::size_t line_end = comment.text.find('\n', line_start);
      if (line_end == std::string::npos) line_end = comment.text.size();
      const std::string_view text_line = trim_view(
          std::string_view(comment.text)
              .substr(line_start, line_end - line_start));
      if (text_line.substr(0, sizeof(kAllowMarker) - 1) != kAllowMarker) {
        line_start = line_end + 1;
        ++directive_line;
        continue;
      }
      const std::size_t open = sizeof(kAllowMarker) - 1;
      const std::size_t close = text_line.find(')', open);
      if (close == std::string_view::npos) {
        meta.push_back({directive_line, "lint-allow",
                        "malformed LINT-ALLOW: missing ')'"});
        line_start = line_end + 1;
        ++directive_line;
        continue;
      }
      AllowDirective allow;
      allow.line = directive_line;
      allow.check = std::string(trim_view(text_line.substr(open,
                                                           close - open)));
      std::size_t reason_start = close + 1;
      if (reason_start < text_line.size() && text_line[reason_start] == ':') {
        ++reason_start;
      } else {
        meta.push_back({directive_line, "lint-allow",
                        "malformed LINT-ALLOW(" + allow.check +
                            "): expected ':' before the reason"});
      }
      allow.reason = std::string(trim_view(text_line.substr(reason_start)));
      allows.push_back(allow);
      line_start = line_end + 1;
      ++directive_line;
    }
  }
}

/// Collects variable names declared with an unordered container or a
/// floating type.  Pattern: the type keyword, an optional template
/// argument list (balanced <...>), optional const/&/*, then the declared
/// identifier.  Over-collection is acceptable: the tables only ever widen
/// which *identifiers* later patterns may fire on.
void collect_declarations(const std::vector<Token>& tokens,
                          std::set<std::string>& unordered_names,
                          std::set<std::string>& float_names) {
  const std::size_t n = tokens.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Token& tok = tokens[i];
    if (tok.kind != TokenKind::Identifier) continue;
    const bool is_unordered =
        tok.text == "unordered_map" || tok.text == "unordered_set" ||
        tok.text == "unordered_multimap" || tok.text == "unordered_multiset";
    const bool is_float = tok.text == "double" || tok.text == "float";
    if (!is_unordered && !is_float) continue;

    std::size_t j = i + 1;
    // Skip a template argument list.
    if (j < n && tokens[j].kind == TokenKind::Punct && tokens[j].text == "<") {
      int depth = 0;
      while (j < n) {
        const std::string& p = tokens[j].text;
        if (tokens[j].kind == TokenKind::Punct) {
          if (p == "<") ++depth;
          if (p == ">") --depth;
          if (p == ">>") depth -= 2;
        }
        ++j;
        if (depth <= 0) break;
      }
    }
    // Skip declarator decorations.
    while (j < n &&
           ((tokens[j].kind == TokenKind::Identifier &&
             tokens[j].text == "const") ||
            (tokens[j].kind == TokenKind::Punct &&
             (tokens[j].text == "&" || tokens[j].text == "*" ||
              tokens[j].text == "&&")))) {
      ++j;
    }
    if (j < n && tokens[j].kind == TokenKind::Identifier) {
      // `double foo` — but not `double operator...` or a cast like
      // `double ( x )`.
      if (tokens[j].text == "operator") continue;
      if (is_unordered) unordered_names.insert(tokens[j].text);
      if (is_float) float_names.insert(tokens[j].text);
    }
  }
}

/// Directly included project headers (`#include "..."` only; system
/// includes carry no project declarations).
std::vector<std::string> project_includes(const std::vector<Token>& tokens) {
  std::vector<std::string> includes;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].kind == TokenKind::Punct && tokens[i].text == "#" &&
        tokens[i + 1].kind == TokenKind::Identifier &&
        tokens[i + 1].text == "include" &&
        tokens[i + 2].kind == TokenKind::String) {
      includes.push_back(tokens[i + 2].text);
    }
  }
  return includes;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

FileModel build_model(const std::string& path, const std::string& source,
                      const LintOptions& options,
                      std::vector<RawFinding>& meta, bool ingest_includes) {
  FileModel model;
  model.path = path;
  model.norm_path = normalize_path(path);
  LexResult lexed = lex(source);
  model.tokens = std::move(lexed.tokens);
  parse_allows(lexed.comments, model.allows, meta);
  collect_declarations(model.tokens, model.unordered_names,
                       model.float_names);

  if (!ingest_includes) return model;
  const std::string dir = dirname_of(path);
  for (const std::string& include : project_includes(model.tokens)) {
    std::string header_source;
    bool loaded = false;
    if (!dir.empty() && read_file(dir + "/" + include, header_source)) {
      loaded = true;
    } else {
      for (const std::string& root : options.include_roots) {
        if (read_file(root + "/" + include, header_source)) {
          loaded = true;
          break;
        }
      }
    }
    if (!loaded) continue;  // system-style or generated header: no tables
    const LexResult header = lex(header_source);
    collect_declarations(header.tokens, model.unordered_names,
                         model.float_names);
  }
  return model;
}

bool check_enabled(const LintOptions& options, const std::string& check) {
  if (options.checks.empty()) return true;
  return std::find(options.checks.begin(), options.checks.end(), check) !=
         options.checks.end();
}

}  // namespace

bool path_in_scope(const std::string& norm_path,
                   const std::vector<std::string>& fragments) {
  for (const std::string& fragment : fragments) {
    if (fragment.empty()) return true;
    if (norm_path.find(fragment) != std::string::npos) return true;
  }
  return false;
}

const std::vector<std::string>& known_checks() {
  static const std::vector<std::string> kChecks = {
      "wall-clock", "unordered-iter", "rng-stream", "float-format",
      "bare-assert", "locale-number", "ready-scan",
  };
  return kChecks;
}

LintOptions default_options() {
  LintOptions options;
  // Serialization / summary / hash paths: everything whose bytes feed a
  // golden artifact, a cache key, or a rendered report.
  options.ordered_paths = {
      "util/json",       "util/csv",   "util/table", "sweep/summary",
      "sweep/shard",     "sweep/spec", "service/",   "graph/serialize",
      "graph/dot",       "report/",    "sim/trace",  "sim/validate",
  };
  // Writer paths for float-format: the same set plus the one sanctioned
  // formatting helper.
  options.writer_paths = options.ordered_paths;
  options.writer_paths.push_back("util/string_util");
  options.policy_paths = {"sched/"};
  return options;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& source,
                                 const LintOptions& options) {
  std::vector<RawFinding> raw;
  FileModel model = build_model(path, source, options, raw, true);

  if (check_enabled(options, "wall-clock")) check_wall_clock(model, raw);
  if (check_enabled(options, "unordered-iter")) {
    check_unordered_iter(model, options, raw);
  }
  if (check_enabled(options, "rng-stream")) check_rng_stream(model, raw);
  if (check_enabled(options, "float-format")) {
    check_float_format(model, options, raw);
  }
  if (check_enabled(options, "bare-assert")) check_bare_assert(model, raw);
  if (check_enabled(options, "locale-number")) {
    check_locale_number(model, raw);
  }
  if (check_enabled(options, "ready-scan")) {
    check_ready_scan(model, options, raw);
  }

  // Suppression pass: a finding is dropped when a matching LINT-ALLOW sits
  // on its line or the line directly above.  lint-allow hygiene findings
  // are never suppressible.
  std::vector<Finding> findings;
  for (const RawFinding& finding : raw) {
    bool suppressed = false;
    if (finding.check != "lint-allow") {
      for (AllowDirective& allow : model.allows) {
        if (allow.check == finding.check &&
            (allow.line == finding.line || allow.line == finding.line - 1)) {
          allow.used = true;
          suppressed = true;
        }
      }
    }
    if (!suppressed) {
      findings.push_back({model.path, finding.line, finding.check,
                          finding.message});
    }
  }

  // Suppression hygiene: unknown check names, empty reasons, unused
  // directives.
  for (const AllowDirective& allow : model.allows) {
    const bool known =
        std::find(known_checks().begin(), known_checks().end(),
                  allow.check) != known_checks().end();
    if (!known) {
      findings.push_back({model.path, allow.line, "lint-allow",
                          "unknown check '" + allow.check +
                              "' in LINT-ALLOW"});
      continue;
    }
    if (allow.reason.empty()) {
      findings.push_back({model.path, allow.line, "lint-allow",
                          "LINT-ALLOW(" + allow.check +
                              ") needs a reason after the colon"});
    }
    if (!allow.used && check_enabled(options, allow.check)) {
      findings.push_back({model.path, allow.line, "lint-allow",
                          "unused LINT-ALLOW(" + allow.check +
                              "): no matching finding on this or the next "
                              "line"});
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              if (a.check != b.check) return a.check < b.check;
              return a.message < b.message;
            });
  return findings;
}

std::vector<Finding> lint_file(const std::string& path,
                               const LintOptions& options) {
  std::string source;
  if (!read_file(path, source)) {
    throw std::runtime_error("dagsched-lint: cannot read '" + path + "'");
  }
  return lint_source(path, source, options);
}

std::string format_findings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& finding : findings) {
    out += finding.file;
    out += ':';
    out += std::to_string(finding.line);
    out += ": [";
    out += finding.check;
    out += "] ";
    out += finding.message;
    out += '\n';
  }
  return out;
}

}  // namespace dagsched::lint
