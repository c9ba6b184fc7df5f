// schedd — the scheduling daemon CLI.  Reads JSONL ScheduleRequests on
// stdin, writes one JSONL response per request on stdout (in request
// order), and optionally appends a JSONL event trace to a file.  See
// src/service/daemon.hpp for the wire protocol and determinism contract,
// and tools/schedd_smoke.sh for an end-to-end example.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "service/daemon.hpp"
#include "util/string_util.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "\n"
               "Reads JSONL requests from stdin until EOF, writes JSONL\n"
               "responses to stdout in request order.\n"
               "\n"
               "options:\n"
               "  --max-in-flight N    worker threads (default 1; 1 => "
               "byte-deterministic trace)\n"
               "  --max-queue N        waiting requests before shedding "
               "(default 16)\n"
               "  --cache-capacity N   plan-cache entries, 0 disables "
               "(default 256)\n"
               "  --default-cost-ms X  admission cost assumed for queued "
               "requests\n"
               "                       without a time budget (default 0)\n"
               "  --trace PATH         append JSONL trace events to PATH\n"
               "  --help               this message\n",
               argv0);
}

long parse_long(const std::string& flag, const char* text) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) {
    std::fprintf(stderr, "schedd: %s needs a non-negative integer, got '%s'\n",
                 flag.c_str(), text);
    std::exit(2);
  }
  return value;
}

double parse_double(const std::string& flag, const char* text) {
  const dagsched::ParsedReal parsed = dagsched::parse_real(text);
  const double value = parsed.value;
  if (parsed.used == 0 || parsed.used != std::strlen(text) || value < 0) {
    std::fprintf(stderr, "schedd: %s needs a non-negative number, got '%s'\n",
                 flag.c_str(), text);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  // The reader and the emit path each own one unsynced stream;
  // Schedd::run unties std::cin from std::cout so they never meet.
  std::ios::sync_with_stdio(false);
  dagsched::service::ScheddOptions options;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "schedd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--max-in-flight") {
      options.max_in_flight = static_cast<int>(parse_long(arg, next()));
      if (options.max_in_flight < 1) options.max_in_flight = 1;
    } else if (arg == "--max-queue") {
      options.max_queue = static_cast<int>(parse_long(arg, next()));
    } else if (arg == "--cache-capacity") {
      options.cache_capacity = static_cast<std::size_t>(parse_long(arg, next()));
    } else if (arg == "--default-cost-ms") {
      options.default_cost_ms = parse_double(arg, next());
    } else if (arg == "--trace") {
      trace_path = next();
    } else {
      std::fprintf(stderr, "schedd: unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  std::ofstream trace_file;
  std::ostream* trace = nullptr;
  if (!trace_path.empty()) {
    trace_file.open(trace_path, std::ios::out | std::ios::app);
    if (!trace_file) {
      std::fprintf(stderr, "schedd: cannot open trace file '%s'\n",
                   trace_path.c_str());
      return 2;
    }
    trace = &trace_file;
  }

  dagsched::service::Schedd daemon(options);
  return daemon.run(std::cin, std::cout, trace);
}
