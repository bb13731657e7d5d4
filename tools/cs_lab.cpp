// cs_lab — the experiment-campaign driver.
//
//   cs_lab run <spec-file | --preset name> [flags]   expand + execute a
//       campaign across all cores, validate every instance against the
//       paper's claims, and emit JSON/CSV reports
//   cs_lab gen spec --preset <name> [--out file]     write a campaign spec
//   cs_lab gen topo "<family params>" [flags]        write a model file
//   cs_lab report <report.csv>                       re-render a CSV report
//
// Every subcommand takes --help (exit 0); --version prints the release.
// Exit codes: 0 success, 1 validation failure (--check), 2 usage error,
// 3 runtime error.  See docs/LAB.md for the spec grammar, the seed
// derivation contract and the report schemas.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "common/version.hpp"
#include "io/views_io.hpp"
#include "lab/campaign.hpp"
#include "lab/stats.hpp"

namespace {

using namespace cs;
using namespace cs::lab;

constexpr int kExitOk = 0;
constexpr int kExitCheckFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitError = 3;

struct UsageError {
  std::string message;
};

[[noreturn]] void usage_fail(const std::string& message) {
  throw UsageError{message};
}

/// Hand-rolled `--flag value` / `--switch` parser (mirrors cs_sync).
class Args {
 public:
  Args(int argc, char** argv, std::set<std::string> valued,
       std::set<std::string> switches)
      : valued_(std::move(valued)), switches_(std::move(switches)) {
    for (int i = 0; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(arg);
        continue;
      }
      if (switches_.count(arg) != 0) {
        set_switches_.insert(arg);
        continue;
      }
      if (valued_.count(arg) == 0) usage_fail("unknown flag '" + arg + "'");
      if (i + 1 >= argc) usage_fail("flag '" + arg + "' needs a value");
      values_[arg] = argv[++i];
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }
  bool on(const std::string& name) const {
    return set_switches_.count(name) != 0;
  }
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  std::string get(const std::string& name,
                  const std::string& fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

 private:
  std::set<std::string> valued_, switches_, set_switches_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

std::uint64_t parse_u64_flag(const std::string& flag,
                             const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0')
    usage_fail("flag '" + flag + "': '" + text + "' is not an integer");
  return v;
}

void write_file_or_fail(const std::string& path, const std::string& body) {
  std::ofstream os(path);
  if (!os) fail("cannot write " + path);
  os << body;
}

int cmd_run(const Args& args) {
  CampaignSpec spec;
  if (args.has("--preset")) {
    if (args.positional().size() > 1)
      usage_fail("run takes a spec file or --preset, not both");
    spec = preset_campaign(args.get("--preset"));
  } else {
    if (args.positional().size() != 2)
      usage_fail("usage: cs_lab run <spec-file | --preset name> [flags]");
    spec = load_campaign_file(args.positional()[1]);
  }
  if (args.has("--seed"))
    spec.seed = parse_u64_flag("--seed", args.get("--seed"));
  if (args.has("--seeds"))
    spec.seeds_per_cell = static_cast<std::uint32_t>(
        parse_u64_flag("--seeds", args.get("--seeds")));

  Metrics metrics;
  RunOptions options;
  options.threads = static_cast<std::size_t>(
      parse_u64_flag("--threads", args.get("--threads", "0")));
  options.task_threads = static_cast<std::size_t>(
      parse_u64_flag("--task-threads", args.get("--task-threads", "1")));
  if (options.task_threads == 0) options.task_threads = 1;
  options.metrics = &metrics;

  const bool timing = !args.on("--no-timing");
  const CampaignResult result = run_campaign(spec, options);
  const CampaignReport report = aggregate(result);

  if (!args.on("--quiet")) {
    print_report(std::cout, report, timing);
    if (timing)
      std::cout << "pool: " << metrics.counter("lab.pool.steals")
                << " steals across " << metrics.counter("lab.pool.threads")
                << " workers\n";
    // Surface the first few failures verbatim; the JSON only counts them.
    std::size_t shown = 0;
    for (std::size_t i = 0; i < result.results.size() && shown < 5; ++i)
      if (!result.results[i].ok) {
        std::cout << "task " << i << " failed: " << result.results[i].failure
                  << "\n";
        ++shown;
      }
  }

  if (args.has("--json")) {
    std::ostringstream os;
    write_report_json(os, report, timing);
    write_file_or_fail(args.get("--json"), os.str());
    if (!args.on("--quiet"))
      std::cout << "wrote " << args.get("--json") << "\n";
  }
  if (args.has("--csv")) {
    std::ostringstream os;
    write_report_csv(os, report);
    write_file_or_fail(args.get("--csv"), os.str());
    if (!args.on("--quiet")) std::cout << "wrote " << args.get("--csv") << "\n";
  }

  if (args.on("--check") && !report_ok(report)) {
    std::size_t detected = 0;
    for (const CellStats& cell : report.cells) detected += cell.byz_detected;
    std::cout << "check FAILED: failures=" << report.failures
              << " soundness_violations=" << report.soundness_violations
              << " detection_outages=" << detected
              << " thm46_max_gap=" << report.thm46_max_gap << " (tolerance "
              << kThm46Tolerance << ")\n";
    return kExitCheckFailed;
  }
  if (args.on("--check") && !args.on("--quiet"))
    std::cout << "check ok: every fault-free cell matches the Theorem 4.6 "
                 "bound within tolerance\n";
  return kExitOk;
}

int cmd_gen(const Args& args) {
  if (args.positional().size() < 2)
    usage_fail("usage: cs_lab gen <spec|topo> ...");
  const std::string& what = args.positional()[1];
  if (what == "spec") {
    const CampaignSpec spec = preset_campaign(args.get("--preset", "smoke"));
    std::ostringstream os;
    save_campaign(os, spec);
    if (args.has("--out")) {
      write_file_or_fail(args.get("--out"), os.str());
      std::cout << "wrote " << args.get("--out") << "\n";
    } else {
      std::cout << os.str();
    }
    return kExitOk;
  }
  if (what == "topo") {
    if (args.positional().size() != 3)
      usage_fail("usage: cs_lab gen topo \"<family params>\" [flags]");
    const TopoSpec topo_spec = parse_topo_spec(args.positional()[2]);
    Rng rng(parse_u64_flag("--seed", args.get("--seed", "1")));
    const Topology topo = make_topology(topo_spec, rng);
    SystemModel model(topo);
    MixSpec mix;
    // Default mix mirrors the smoke preset; --mix overrides with the
    // campaign-spec grammar, e.g. --mix "alternating 0.002 0.01 0.004".
    mix.kind = "bounds";
    mix.lb = 0.002;
    mix.ub = 0.01;
    if (args.has("--mix")) {
      // Reuse the campaign-spec parser for the mix grammar via a one-line
      // synthetic spec.
      std::istringstream is("chronosync-campaign v1\nseeds 1\ntopology ring 3\n"
                            "mix " + args.get("--mix") + "\n");
      mix = load_campaign(is).mixes.at(0);
    }
    apply_mix(model, mix);
    std::ostringstream os;
    save_model(os, model);
    if (args.has("--out")) {
      write_file_or_fail(args.get("--out"), os.str());
      std::cout << "wrote " << args.get("--out") << " (" << topo.node_count
                << " nodes, " << topo.link_count() << " links)\n";
    } else {
      std::cout << os.str();
    }
    return kExitOk;
  }
  usage_fail("unknown gen target '" + what + "' (spec or topo)");
}

int cmd_report(const Args& args) {
  if (args.positional().size() != 2)
    usage_fail("usage: cs_lab report <report.csv>");
  std::ifstream is(args.positional()[1]);
  if (!is) fail("cannot open " + args.positional()[1]);
  // Re-render the deterministic CSV as the usual fixed-width table.
  std::string line;
  if (!std::getline(is, line)) fail("empty report");
  const auto split = [](const std::string& row) {
    std::vector<std::string> cells;
    std::string cell;
    bool in_quotes = false;
    for (const char ch : row) {
      if (ch == '"') in_quotes = !in_quotes;
      else if (ch == ',' && !in_quotes) {
        cells.push_back(cell);
        cell.clear();
      } else cell += ch;
    }
    cells.push_back(cell);
    return cells;
  };
  Table table(split(line));
  std::size_t columns = split(line).size();
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cells = split(line);
    if (cells.size() != columns) fail("malformed report row: " + line);
    table.add_row(std::move(cells));
  }
  table.print(std::cout);
  return kExitOk;
}

void print_usage(std::ostream& os) {
  os << "cs_lab " << kVersion << " — experiment-campaign engine\n\n"
     << "  cs_lab run <spec-file | --preset smoke|toroid|zones|fabric100k|\n"
     << "              drift|drift-noresync|byz|byz-quorum> [flags]\n"
     << "      --threads N    worker threads (0 = all cores)\n"
     << "      --task-threads N  threads *inside* each task (zoned solves;\n"
     << "                     byte-identical results for any value)\n"
     << "      --seed S       override the campaign master seed\n"
     << "      --seeds K      override runs per cell\n"
     << "      --json FILE    write the JSON report\n"
     << "      --csv FILE     write the per-cell CSV report\n"
     << "      --no-timing    omit wall-clock fields (byte-comparable runs)\n"
     << "      --check        exit 1 unless every fault-free cell matches\n"
     << "                     the Theorem 4.6 bound within tolerance\n"
     << "      --quiet        suppress stdout report\n"
     << "  cs_lab gen spec [--preset name] [--out FILE]\n"
     << "  cs_lab gen topo \"<family params>\" [--seed S] [--mix \"...\"]\n"
     << "                 [--out FILE]\n"
     << "  cs_lab report <report.csv>\n\n"
     << "Topology families:";
  for (const std::string& f : topo_families()) os << ' ' << f;
  os << "\nSee docs/LAB.md for the campaign grammar and report schemas.\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc - 1, argv + 1,
                    {"--threads", "--task-threads", "--seed", "--seeds",
                     "--json", "--csv", "--preset", "--out", "--mix"},
                    {"--check", "--no-timing", "--quiet", "--help",
                     "--version"});
    if (args.on("--version")) {
      std::cout << "cs_lab " << kVersion << "\n";
      return kExitOk;
    }
    if (args.on("--help") || args.positional().empty()) {
      print_usage(std::cout);
      return kExitOk;
    }
    const std::string& cmd = args.positional()[0];
    if (cmd == "help") {
      print_usage(std::cout);
      return kExitOk;
    }
    if (cmd == "run") return cmd_run(args);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "report") return cmd_report(args);
    usage_fail("unknown subcommand '" + cmd + "'");
  } catch (const UsageError& e) {
    std::cerr << "usage error: " << e.message << "\n\n";
    print_usage(std::cerr);
    return kExitUsage;
  } catch (const cs::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitError;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitError;
  }
}
