#pragma once

// Internal shared model between the lint engine (lint.cpp) and the rule
// implementations (checks.cpp).  Not part of the public lint.hpp surface.

#include <set>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "lint/token.hpp"

namespace dagsched::lint {

/// Everything a check sees about one translation unit: the token stream of
/// the file itself plus declaration tables merged from the project headers
/// it directly includes (so a .cpp iterating a member declared in its own
/// header is still caught).
struct FileModel {
  std::string path;            ///< as given by the caller
  std::string norm_path;       ///< '\\' normalized to '/'
  std::vector<Token> tokens;
  std::vector<AllowDirective> allows;
  std::set<std::string> unordered_names;  ///< unordered_{map,set} variables
  std::set<std::string> float_names;      ///< double/float variables
};

/// A diagnostic before suppression filtering.
struct RawFinding {
  int line = 0;
  std::string check;
  std::string message;
};

/// True when norm_path contains any of the fragments (empty fragment
/// matches everything).
bool path_in_scope(const std::string& norm_path,
                   const std::vector<std::string>& fragments);

// The seven contract rules (checks.cpp).  Each appends to `out`.
void check_wall_clock(const FileModel& model, std::vector<RawFinding>& out);
void check_unordered_iter(const FileModel& model, const LintOptions& options,
                          std::vector<RawFinding>& out);
void check_rng_stream(const FileModel& model, std::vector<RawFinding>& out);
void check_float_format(const FileModel& model, const LintOptions& options,
                        std::vector<RawFinding>& out);
void check_bare_assert(const FileModel& model, std::vector<RawFinding>& out);
void check_ready_scan(const FileModel& model, const LintOptions& options,
                      std::vector<RawFinding>& out);
void check_locale_number(const FileModel& model,
                         std::vector<RawFinding>& out);

}  // namespace dagsched::lint
