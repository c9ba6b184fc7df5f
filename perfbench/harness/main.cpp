// perfbench_harness: runs one benchmark workload against the dagsched
// library (and the schedd executable) and writes the raw samples, counters
// and spans as one JSON document.  perfbench/run.py builds this binary,
// drives it and computes the reported metrics; run it directly only when
// debugging a workload:
//
//   perfbench_harness --workload ladder_large --seed 1 --seconds 10
//       --trace 0 --out raw.json [--schedd PATH] [--spec PATH]
//   perfbench_harness --stamp      # build stamp as JSON

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"
#include "util/json.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N "
               "--seconds S --trace 0|1 --out PATH\n"
               "                         [--schedd PATH] [--spec PATH] "
               "[--threads N]\n"
               "       perfbench_harness --stamp\n");
}

std::string stamp_json() {
  dagsched::JsonWriter writer(3, dagsched::JsonWriter::Style::Compact);
  writer.begin_object();
  writer.key("build_type");
  writer.value(PERFBENCH_BUILD_TYPE);
  writer.key("keep_asserts");
  writer.value(PERFBENCH_KEEP_ASSERTS != 0);
  writer.key("compiler");
  writer.value(PERFBENCH_COMPILER);
  writer.key("cxx_flags");
  writer.value(PERFBENCH_CXX_FLAGS);
  writer.end_object();
  return writer.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stamp") {
      std::printf("%s\n", stamp_json().c_str());
      return 0;
    }
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--out") {
      options.out = value;
    } else if (arg == "--schedd") {
      options.schedd = value;
    } else if (arg == "--spec") {
      options.spec = value;
    } else if (arg == "--threads") {
      options.threads = std::atoi(value.c_str());
    } else {
      usage();
      return 2;
    }
  }
  if (options.out.empty() || options.seconds <= 0 || options.threads < 1) {
    usage();
    return 2;
  }

  perfbench::Report report;
  report.workload = options.workload;
  int status = 0;
  try {
    if (options.workload == "schedd_stream") {
      status = perfbench::run_schedd_stream(options, report);
    } else if (options.workload == "sweep_anneal") {
      status = perfbench::run_sweep_anneal(options, report);
    } else if (options.workload == "ladder_large") {
      status = perfbench::run_ladder_large(options, report);
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
    return 1;
  }
  std::ofstream out(options.out);
  out << report.to_json() << '\n';
  if (!out) {
    std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                 options.out.c_str());
    return 1;
  }
  return status;
}
