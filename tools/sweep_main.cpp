// The `sweep` CLI: runs a PISA-style batch comparison described by a spec
// file (see src/sweep/spec.hpp for the format) and prints the ranked
// policy table.  --out writes the deterministic summary JSON, --csv the
// per-(instance, policy) rows.
//
//   sweep tools/sweep_example.spec --out sweep_summary.json
//   sweep tools/sweep_small.spec --threads 1 --out a.json
//
// Exit status: 0 on success, 1 on bad usage / spec errors / IO failure.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sched/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/shard.hpp"
#include "sweep/spec.hpp"
#include "sweep/summary.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: sweep <spec-file> [options]\n"
        "  --out FILE      write the summary JSON artifact\n"
        "  --csv FILE      write per-(instance, policy) CSV rows\n"
        "  --threads N     override the spec's worker count (0 = hardware)\n"
        "  --seed S        override the spec's seed\n"
        "  --time-budget-ms MS\n"
        "                  override the per-(instance, policy) wall-clock\n"
        "                  budget (0 disables; timed-out cells are marked\n"
        "                  in the summary, at the cost of determinism)\n"
        "  --shard K/N     run only instances with index % N == K and\n"
        "                  write the shard artifact to --out (requires\n"
        "                  --out; incompatible with --csv/--merge); merging\n"
        "                  all N shards reproduces the unsharded summary\n"
        "                  byte for byte\n"
        "  --merge         treat the positional arguments after the spec\n"
        "                  file as shard artifacts and merge them; --out /\n"
        "                  --csv then write the ordinary summary JSON / CSV\n"
        "  --list-policies print the scheduler registry (names,\n"
        "                  capabilities, config keys with defaults) and\n"
        "                  exit; no spec file needed\n"
        "  --quiet         suppress the progress note on stderr\n";
}

void list_policies(std::ostream& os) {
  // Shares the capability/keys formatters with the quickstart example and
  // schedd's `list_policies` op (sched::capability_string & co.), so the
  // three listings can never drift apart again.
  const auto& registry = dagsched::sched::PolicyRegistry::instance();
  dagsched::TableWriter table(
      {"policy", "capabilities", "config keys (defaults)", "description"});
  table.set_alignment({dagsched::Align::Left, dagsched::Align::Left,
                       dagsched::Align::Left, dagsched::Align::Left});
  for (const std::string& name : registry.names()) {
    const dagsched::sched::PolicyDescriptor& d = registry.descriptor(name);
    table.add_row({d.name, dagsched::sched::capability_string(d.caps),
                   dagsched::sched::config_keys_string(d), d.doc});
  }
  os << "Scheduler registry (spec syntax: `policy name(key=value,...)`):\n"
     << table.render();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  file << content;
  return static_cast<bool>(file);
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("cannot read '" + path + "'");
  }
  std::string content((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
  return content;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string out_path;
  std::string csv_path;
  bool quiet = false;
  bool override_threads = false;
  bool override_seed = false;
  bool override_budget = false;
  bool merge_mode = false;
  int shard_index = 0;
  int num_shards = 0;  // 0 = unsharded
  int threads = 0;
  std::uint64_t seed = 0;
  double time_budget_ms = 0.0;
  std::vector<std::string> shard_paths;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next_value = [&](const char* flag) -> std::string {
      if (i + 1 >= args.size()) {
        std::cerr << "sweep: " << flag << " needs a value\n";
        std::exit(1);
      }
      return args[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg == "--list-policies") {
      list_policies(std::cout);
      return 0;
    } else if (arg == "--out") {
      out_path = next_value("--out");
    } else if (arg == "--csv") {
      csv_path = next_value("--csv");
    } else if (arg == "--threads") {
      const std::string value = next_value("--threads");
      try {
        std::size_t used = 0;
        threads = std::stoi(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
      } catch (const std::exception&) {
        std::cerr << "sweep: --threads needs an integer, got '" << value
                  << "'\n";
        return 1;
      }
      override_threads = true;
    } else if (arg == "--seed") {
      const std::string value = next_value("--seed");
      try {
        std::size_t used = 0;
        seed = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
      } catch (const std::exception&) {
        std::cerr << "sweep: --seed needs an unsigned integer, got '"
                  << value << "'\n";
        return 1;
      }
      override_seed = true;
    } else if (arg == "--time-budget-ms") {
      const std::string value = next_value("--time-budget-ms");
      const dagsched::ParsedReal parsed = dagsched::parse_real(value);
      if (parsed.used == 0 || parsed.used != value.size() ||
          parsed.out_of_range || parsed.value < 0) {
        std::cerr << "sweep: --time-budget-ms needs a nonnegative number, "
                     "got '" << value << "'\n";
        return 1;
      }
      time_budget_ms = parsed.value;
      override_budget = true;
    } else if (arg == "--shard") {
      const std::string value = next_value("--shard");
      const std::size_t slash = value.find('/');
      bool ok = slash != std::string::npos;
      if (ok) {
        try {
          std::size_t used = 0;
          shard_index = std::stoi(value.substr(0, slash), &used);
          ok = used == slash;
          const std::string denom = value.substr(slash + 1);
          used = 0;
          num_shards = std::stoi(denom, &used);
          ok = ok && used == denom.size();
        } catch (const std::exception&) {
          ok = false;
        }
      }
      if (!ok || num_shards < 1 || shard_index < 0 ||
          shard_index >= num_shards) {
        std::cerr << "sweep: --shard needs K/N with 0 <= K < N, got '"
                  << value << "'\n";
        return 1;
      }
    } else if (arg == "--merge") {
      merge_mode = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "sweep: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 1;
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else if (merge_mode) {
      shard_paths.push_back(arg);
    } else {
      std::cerr << "sweep: multiple spec files given\n";
      return 1;
    }
  }
  if (spec_path.empty()) {
    usage(std::cerr);
    return 1;
  }
  if (num_shards > 0 && merge_mode) {
    std::cerr << "sweep: --shard and --merge are mutually exclusive\n";
    return 1;
  }
  if (num_shards > 0 && !csv_path.empty()) {
    // A shard cannot emit the per-instance CSV: it holds only its own
    // rows, and a partial CSV is indistinguishable from a complete one.
    std::cerr << "sweep: --shard writes a shard artifact, not CSV rows; "
                 "use --csv on the --merge step\n";
    return 1;
  }
  if (num_shards > 0 && out_path.empty()) {
    std::cerr << "sweep: --shard requires --out for the shard artifact\n";
    return 1;
  }
  if (merge_mode && shard_paths.empty()) {
    std::cerr << "sweep: --merge needs shard artifacts after the spec "
                 "file\n";
    return 1;
  }

  try {
    dagsched::sweep::SweepSpec spec =
        dagsched::sweep::load_spec_file(spec_path);
    if (override_threads) spec.threads = threads;
    if (override_seed) spec.seed = seed;
    if (override_budget) spec.time_budget_ms = time_budget_ms;
    spec.validate();

    if (!quiet) {
      std::cerr << "sweep: " << spec.num_instances() << " instances ("
                << spec.families.size() << " families x "
                << spec.topologies.size() << " topologies), "
                << spec.policies.size() << " policies, seed " << spec.seed
                << "\n";
    }

    if (num_shards > 0) {
      // Shard mode: run this shard's slice and write the shard artifact;
      // the ranked table and summary come from the --merge step.
      // LINT-ALLOW(wall-clock): stderr progress timing; never enters the artifact
      const auto start = std::chrono::steady_clock::now();
      const std::string artifact =
          dagsched::sweep::run_shard(spec, shard_index, num_shards);
      const double seconds =
          // LINT-ALLOW(wall-clock): stderr progress timing; never enters the artifact
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (!write_file(out_path, artifact)) {
        std::cerr << "sweep: cannot write '" << out_path << "'\n";
        return 1;
      }
      if (!quiet) {
        std::cerr << "sweep: shard " << shard_index << "/" << num_shards
                  << " finished in " << seconds << " s, wrote " << out_path
                  << "\n";
      }
      return 0;
    }

    // LINT-ALLOW(wall-clock): stderr progress timing; never enters the artifact
    const auto start = std::chrono::steady_clock::now();
    dagsched::sweep::SweepResult merged;
    if (merge_mode) {
      std::vector<std::string> artifacts;
      artifacts.reserve(shard_paths.size());
      for (const std::string& path : shard_paths) {
        artifacts.push_back(read_file(path));
      }
      merged = dagsched::sweep::merge_shards(spec, artifacts);
    }
    const dagsched::sweep::SweepResult result =
        merge_mode ? std::move(merged) : dagsched::sweep::run_sweep(spec);
    const auto ranking = dagsched::sweep::summarize(result);
    const double seconds =
        // LINT-ALLOW(wall-clock): stderr progress timing; never enters the artifact
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    std::cout << dagsched::sweep::render_summary_table(result, ranking);
    if (!quiet) {
      std::cerr << "sweep: finished in " << seconds << " s on "
                << result.threads_used << " thread(s)\n";
    }

    if (!out_path.empty()) {
      const std::string json =
          dagsched::sweep::summary_json(result, ranking);
      if (!write_file(out_path, json)) {
        std::cerr << "sweep: cannot write '" << out_path << "'\n";
        return 1;
      }
      if (!quiet) std::cerr << "sweep: wrote " << out_path << "\n";
    }
    if (!csv_path.empty()) {
      const std::string csv = dagsched::sweep::per_instance_csv(result);
      if (!write_file(csv_path, csv)) {
        std::cerr << "sweep: cannot write '" << csv_path << "'\n";
        return 1;
      }
      if (!quiet) std::cerr << "sweep: wrote " << csv_path << "\n";
    }
  } catch (const std::exception& error) {
    std::cerr << "sweep: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
