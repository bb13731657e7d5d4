#include "lab/spec.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "delaymodel/constraint.hpp"

namespace cs::lab {
namespace {

/// %.17g, matching the io/ writers: doubles round-trip exactly.
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void fail_line(std::size_t line_no, const std::string& message) {
  fail("campaign spec line " + std::to_string(line_no) + ": " + message);
}

double parse_num(const std::string& token, std::size_t line_no,
                 const std::string& what) {
  const std::optional<double> v = parse_finite(token);
  if (!v) fail_line(line_no, "'" + token + "' is not a valid " + what);
  return *v;
}

std::uint64_t parse_u64(const std::string& token, std::size_t line_no,
                        const std::string& what) {
  const std::optional<std::uint64_t> v = parse_count(token);
  if (!v) fail_line(line_no, "'" + token + "' is not a valid " + what);
  return *v;
}

}  // namespace

std::string MixSpec::describe() const {
  std::ostringstream os;
  os << kind;
  if (kind == "bounds") os << ' ' << fmt(lb) << ' ' << fmt(ub);
  else if (kind == "lower") os << ' ' << fmt(lb);
  else if (kind == "bias") os << ' ' << fmt(bias);
  else if (kind == "composite" || kind == "alternating")
    os << ' ' << fmt(lb) << ' ' << fmt(ub) << ' ' << fmt(bias);
  return os.str();
}

std::string FaultSpec::describe() const {
  if (!faulty()) return "none";
  std::ostringstream os;
  os << "drop " << fmt(drop);
  if (has_crash)
    os << " crash " << crash_pid << ' ' << fmt(crash_from) << ' '
       << fmt(crash_until);
  return os.str();
}

FaultPlan FaultSpec::build(std::uint64_t fault_seed) const {
  FaultPlan plan;
  plan.seed = fault_seed;
  plan.default_link.drop_probability = drop;
  if (has_crash)
    plan.crash(crash_pid, RealTime{crash_from}, RealTime{crash_until});
  return plan;
}

std::string ZoneAxisSpec::describe() const {
  if (kind == "size") return "size " + std::to_string(size);
  return kind;
}

std::string DriftAxisSpec::describe() const {
  if (!drifting()) return "none";
  std::ostringstream os;
  os << kind << ' ' << fmt(ppm);
  if (kind == "walk") os << ' ' << fmt(step_ppm);
  os << " resync " << fmt(resync);
  if (horizon > 0.0) os << " horizon " << fmt(horizon);
  return os.str();
}

std::string ByzAxisSpec::describe() const {
  if (!byzantine()) return "none";
  std::ostringstream os;
  os << kind << " f=" << f << " mag=" << fmt(magnitude)
     << " est=" << estimator;
  if (estimator == "quorum") os << " tol=" << fmt(quorum_tolerance);
  return os.str();
}

namespace {

std::size_t checked_mul(std::size_t a, std::size_t b, const char* what) {
  if (a != 0 && b > std::numeric_limits<std::size_t>::max() / a)
    fail(std::string("campaign ") + what + " count overflows std::size_t (" +
         std::to_string(a) + " x " + std::to_string(b) + ")");
  return a * b;
}

}  // namespace

std::size_t CampaignSpec::cell_count() const {
  std::size_t cells = checked_mul(topologies.size(), mixes.size(), "cell");
  cells = checked_mul(cells, faults.size(), "cell");
  cells = checked_mul(cells, zone_arm_count(), "cell");
  cells = checked_mul(cells, drift_arm_count(), "cell");
  return checked_mul(cells, byz_arm_count(), "cell");
}

std::size_t CampaignSpec::task_count() const {
  return checked_mul(cell_count(), seeds_per_cell, "task");
}

std::string ProtocolSpec::describe() const {
  std::ostringstream os;
  if (kind == "pingpong") os << "pingpong " << rounds;
  else os << "beacon " << fmt(period) << ' ' << count;
  return os.str();
}

std::vector<TaskSpec> expand(const CampaignSpec& spec) {
  if (spec.topologies.empty()) fail("campaign has no topologies");
  if (spec.mixes.empty()) fail("campaign has no delay mixes");
  if (spec.faults.empty()) fail("campaign has no fault plans");
  if (spec.seeds_per_cell == 0) fail("campaign has zero seeds per cell");
  // task_count() is overflow-checked; a cross product too large for
  // std::size_t fails here with the offending extents named rather than
  // wrapping the reserve below (and every later cell_id) silently.
  const std::size_t total = spec.task_count();
  std::vector<TaskSpec> tasks;
  tasks.reserve(total);
  std::size_t index = 0;
  for (std::size_t t = 0; t < spec.topologies.size(); ++t)
    for (std::size_t m = 0; m < spec.mixes.size(); ++m)
      for (std::size_t f = 0; f < spec.faults.size(); ++f)
        for (std::size_t z = 0; z < spec.zone_arm_count(); ++z)
          for (std::size_t d = 0; d < spec.drift_arm_count(); ++d)
            for (std::size_t b = 0; b < spec.byz_arm_count(); ++b)
              for (std::uint32_t s = 0; s < spec.seeds_per_cell; ++s)
                tasks.push_back({index++, t, m, f, z, d, b, s});
  return tasks;
}

void apply_mix(SystemModel& model, const MixSpec& mix) {
  const auto& links = model.topology().links;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto [a, b] = links[i];
    const auto composite = [&](ProcessorId x, ProcessorId y) {
      std::vector<std::unique_ptr<LinkConstraint>> parts;
      parts.push_back(make_bounds(x, y, mix.lb, mix.ub));
      parts.push_back(make_bias(x, y, mix.bias));
      return make_composite(x, y, std::move(parts));
    };
    if (mix.kind == "bounds") {
      model.set_constraint(make_bounds(a, b, mix.lb, mix.ub));
    } else if (mix.kind == "lower") {
      model.set_constraint(make_lower_bound_only(a, b, mix.lb));
    } else if (mix.kind == "bias") {
      model.set_constraint(make_bias(a, b, mix.bias));
    } else if (mix.kind == "composite") {
      model.set_constraint(composite(a, b));
    } else if (mix.kind == "alternating") {
      switch (i % 3) {
        case 0: model.set_constraint(make_bounds(a, b, mix.lb, mix.ub)); break;
        case 1: model.set_constraint(make_bias(a, b, mix.bias)); break;
        default: model.set_constraint(composite(a, b)); break;
      }
    } else {
      fail("unknown delay mix kind: '" + mix.kind + "'");
    }
  }
}

CampaignSpec load_campaign(std::istream& is) {
  CampaignSpec spec;
  spec.seeds_per_cell = 0;  // must be declared
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;  // blank or comment-only
    if (!saw_header) {
      std::string version;
      ls >> version;
      if (word != "chronosync-campaign" || version != "v1")
        fail_line(line_no, "expected header 'chronosync-campaign v1'");
      saw_header = true;
      continue;
    }
    std::vector<std::string> params;
    std::string token;
    while (ls >> token) params.push_back(token);
    const auto want = [&](std::size_t count, const char* usage) {
      if (params.size() != count)
        fail_line(line_no, "expected '" + word + " " + usage + "'");
    };
    if (word == "name") {
      want(1, "<identifier>");
      spec.name = params[0];
    } else if (word == "seed") {
      want(1, "<u64>");
      spec.seed = parse_u64(params[0], line_no, "seed");
    } else if (word == "seeds") {
      want(1, "<count>");
      spec.seeds_per_cell =
          static_cast<std::uint32_t>(parse_u64(params[0], line_no, "count"));
    } else if (word == "protocol") {
      if (params.empty()) fail_line(line_no, "protocol needs a kind");
      spec.protocol.kind = params[0];
      if (params[0] == "pingpong") {
        want(2, "pingpong <rounds>");
        spec.protocol.rounds =
            static_cast<std::size_t>(parse_u64(params[1], line_no, "rounds"));
      } else if (params[0] == "beacon") {
        want(3, "beacon <period> <count>");
        spec.protocol.period = parse_num(params[1], line_no, "period");
        spec.protocol.count =
            static_cast<std::size_t>(parse_u64(params[2], line_no, "count"));
      } else {
        fail_line(line_no, "unknown protocol '" + params[0] + "'");
      }
    } else if (word == "skew") {
      want(1, "<seconds>");
      spec.skew = parse_num(params[0], line_no, "skew");
    } else if (word == "delay-scale") {
      want(1, "<seconds>");
      spec.delay_scale = parse_num(params[0], line_no, "delay scale");
    } else if (word == "topology") {
      std::string rest;
      for (const std::string& p : params) rest += (rest.empty() ? "" : " ") + p;
      try {
        spec.topologies.push_back(parse_topo_spec(rest));
      } catch (const Error& e) {
        fail_line(line_no, e.what());
      }
    } else if (word == "mix") {
      if (params.empty()) fail_line(line_no, "mix needs a kind");
      MixSpec mix;
      mix.kind = params[0];
      if (mix.kind == "bounds") {
        want(3, "bounds <lb> <ub>");
        mix.lb = parse_num(params[1], line_no, "lower bound");
        mix.ub = parse_num(params[2], line_no, "upper bound");
      } else if (mix.kind == "lower") {
        want(2, "lower <lb>");
        mix.lb = parse_num(params[1], line_no, "lower bound");
      } else if (mix.kind == "bias") {
        want(2, "bias <bound>");
        mix.bias = parse_num(params[1], line_no, "bias bound");
      } else if (mix.kind == "composite" || mix.kind == "alternating") {
        want(4, (mix.kind + " <lb> <ub> <bias>").c_str());
        mix.lb = parse_num(params[1], line_no, "lower bound");
        mix.ub = parse_num(params[2], line_no, "upper bound");
        mix.bias = parse_num(params[3], line_no, "bias bound");
      } else {
        fail_line(line_no, "unknown mix kind '" + mix.kind + "'");
      }
      spec.mixes.push_back(mix);
    } else if (word == "faults") {
      if (params.empty()) fail_line(line_no, "faults needs a kind");
      FaultSpec fs;
      if (params[0] == "none") {
        want(1, "none");
      } else if (params[0] == "drop") {
        if (params.size() != 2 && params.size() != 6)
          fail_line(line_no,
                    "expected 'faults drop <p> [crash <pid> <from> <until>]'");
        fs.drop = parse_num(params[1], line_no, "drop probability");
        if (fs.drop < 0.0 || fs.drop > 1.0)
          fail_line(line_no, "drop probability must be in [0, 1]");
        if (params.size() == 6) {
          if (params[2] != "crash")
            fail_line(line_no, "expected 'crash', got '" + params[2] + "'");
          fs.has_crash = true;
          fs.crash_pid = static_cast<ProcessorId>(
              parse_u64(params[3], line_no, "processor id"));
          fs.crash_from = parse_num(params[4], line_no, "crash start");
          fs.crash_until = parse_num(params[5], line_no, "crash end");
        }
      } else {
        fail_line(line_no, "unknown fault kind '" + params[0] + "'");
      }
      spec.faults.push_back(fs);
    } else if (word == "zones") {
      if (params.empty()) fail_line(line_no, "zones needs a kind");
      ZoneAxisSpec zs;
      zs.kind = params[0];
      if (zs.kind == "none" || zs.kind == "natural") {
        want(1, zs.kind.c_str());
      } else if (zs.kind == "size") {
        want(2, "size <nodes-per-zone>");
        zs.size = static_cast<std::size_t>(
            parse_u64(params[1], line_no, "zone size"));
        if (zs.size == 0) fail_line(line_no, "zone size must be >= 1");
      } else {
        fail_line(line_no, "unknown zones kind '" + zs.kind + "'");
      }
      spec.zones.push_back(zs);
    } else if (word == "drift") {
      if (params.empty()) fail_line(line_no, "drift needs a kind");
      DriftAxisSpec ds;
      ds.kind = params[0];
      if (ds.kind == "none") {
        want(1, "none");
      } else if (ds.kind == "const" || ds.kind == "walk") {
        // const <ppm> resync <I> [horizon <H>]
        // walk <ppm> <step_ppm> resync <I> [horizon <H>]
        const std::size_t base = ds.kind == "walk" ? 1 : 0;
        const char* usage = ds.kind == "walk"
                                ? "walk <ppm> <step_ppm> resync <I> "
                                  "[horizon <H>]"
                                : "const <ppm> resync <I> [horizon <H>]";
        if (params.size() != 4 + base && params.size() != 6 + base)
          fail_line(line_no, std::string("expected 'drift ") + usage + "'");
        ds.ppm = parse_num(params[1], line_no, "drift ppm");
        if (ds.ppm <= 0.0) fail_line(line_no, "drift ppm must be positive");
        if (ds.kind == "walk") {
          ds.step_ppm = parse_num(params[2], line_no, "drift step ppm");
          if (ds.step_ppm <= 0.0)
            fail_line(line_no, "drift step ppm must be positive");
        }
        if (params[2 + base] != "resync")
          fail_line(line_no,
                    "expected 'resync', got '" + params[2 + base] + "'");
        ds.resync = parse_num(params[3 + base], line_no, "resync interval");
        if (ds.resync < 0.0)
          fail_line(line_no, "resync interval must be >= 0");
        if (params.size() == 6 + base) {
          if (params[4 + base] != "horizon")
            fail_line(line_no,
                      "expected 'horizon', got '" + params[4 + base] + "'");
          ds.horizon = parse_num(params[5 + base], line_no, "drift horizon");
          if (ds.horizon <= 0.0)
            fail_line(line_no, "drift horizon must be positive");
        }
        if (ds.resync == 0.0 && ds.horizon == 0.0)
          fail_line(line_no,
                    "drift with resync 0 needs an explicit 'horizon <H>'");
      } else {
        fail_line(line_no, "unknown drift kind '" + ds.kind + "'");
      }
      spec.drifts.push_back(ds);
    } else if (word == "byz") {
      if (params.empty()) fail_line(line_no, "byz needs a behavior");
      ByzAxisSpec bs;
      bs.kind = params[0];
      if (bs.kind == "none") {
        want(1, "none");
      } else {
        if (bs.kind != "lie-const" && bs.kind != "lie-ramp" &&
            bs.kind != "lie-random" && bs.kind != "replay" &&
            bs.kind != "equivocate")
          fail_line(line_no, "unknown byz behavior '" + bs.kind + "'");
        bool have_f = false, have_mag = false;
        for (std::size_t i = 1; i < params.size(); ++i) {
          const std::size_t eq = params[i].find('=');
          if (eq == std::string::npos)
            fail_line(line_no,
                      "byz expects key=value, got '" + params[i] + "'");
          const std::string key = params[i].substr(0, eq);
          const std::string value = params[i].substr(eq + 1);
          if (key == "f") {
            bs.f = static_cast<std::size_t>(
                parse_u64(value, line_no, "byz agent count"));
            have_f = true;
          } else if (key == "mag") {
            bs.magnitude = parse_num(value, line_no, "byz magnitude");
            have_mag = true;
          } else if (key == "est") {
            if (value != "naive" && value != "trimmed" && value != "quorum" &&
                value != "robust")
              fail_line(line_no,
                        "byz est= wants naive|trimmed|quorum|robust, got '" +
                            value + "'");
            bs.estimator = value;
          } else if (key == "tol") {
            bs.quorum_tolerance = parse_num(value, line_no, "byz tolerance");
            if (bs.quorum_tolerance <= 0.0)
              fail_line(line_no, "byz tol= must be positive");
          } else {
            fail_line(line_no, "unknown byz key '" + key + "'");
          }
        }
        if (!have_f || bs.f == 0)
          fail_line(line_no, "byz needs f=<count> with count >= 1");
        if (!have_mag || bs.magnitude <= 0.0)
          fail_line(line_no, "byz needs mag=<seconds> with a positive value");
      }
      spec.byz.push_back(bs);
    } else {
      fail_line(line_no, "unknown directive '" + word + "'");
    }
  }
  if (!saw_header) fail("campaign spec: missing 'chronosync-campaign v1' header");
  if (spec.seeds_per_cell == 0)
    fail("campaign spec: missing 'seeds <count>' directive");
  if (spec.topologies.empty()) fail("campaign spec: no 'topology' lines");
  if (spec.mixes.empty()) fail("campaign spec: no 'mix' lines");
  if (spec.faults.empty()) spec.faults.push_back(FaultSpec{});
  return spec;
}

CampaignSpec load_campaign_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open campaign spec: " + path);
  return load_campaign(is);
}

void save_campaign(std::ostream& os, const CampaignSpec& spec) {
  os << "chronosync-campaign v1\n";
  os << "name " << spec.name << "\n";
  os << "seed " << spec.seed << "\n";
  os << "seeds " << spec.seeds_per_cell << "\n";
  os << "protocol " << spec.protocol.describe() << "\n";
  os << "skew " << fmt(spec.skew) << "\n";
  os << "delay-scale " << fmt(spec.delay_scale) << "\n";
  for (const TopoSpec& t : spec.topologies)
    os << "topology " << t.describe() << "\n";
  for (const MixSpec& m : spec.mixes) os << "mix " << m.describe() << "\n";
  for (const FaultSpec& f : spec.faults)
    os << "faults " << f.describe() << "\n";
  // Only written when declared: a zones-free spec round-trips to a
  // zones-free spec with the identical implicit expansion (and likewise
  // for drift).
  for (const ZoneAxisSpec& z : spec.zones)
    os << "zones " << z.describe() << "\n";
  for (const DriftAxisSpec& d : spec.drifts)
    os << "drift " << d.describe() << "\n";
  for (const ByzAxisSpec& b : spec.byz) os << "byz " << b.describe() << "\n";
}

CampaignSpec preset_campaign(const std::string& name) {
  CampaignSpec spec;
  spec.name = name;
  if (name == "smoke") {
    // Tiny multi-family campaign for CI: every generator family category,
    // every mix kind, one faulty arm — a few seconds on two cores.
    spec.seed = 2026;
    spec.seeds_per_cell = 3;
    spec.protocol.rounds = 3;
    for (const char* t :
         {"ring 6", "toroid 3x3", "hypercube 3", "er 10 0.2", "ba 12 2",
          "dc 2 2 2"})
      spec.topologies.push_back(parse_topo_spec(t));
    spec.mixes.push_back({"bounds", 0.002, 0.01, 0.0});
    spec.mixes.push_back({"alternating", 0.002, 0.01, 0.004});
    spec.faults.push_back(FaultSpec{});
    FaultSpec lossy;
    lossy.drop = 0.15;
    spec.faults.push_back(lossy);
    return spec;
  }
  if (name == "toroid") {
    // The Frank–Welch odd-ary m-toroid sweep: every odd side k in {3, 5},
    // dimensions m in {1, 2, 3}, uniform symmetric bounds, 25 seeds per
    // cell -> 8 cells x 25 = 200 fault-free tasks.
    spec.seed = 1807;  // arXiv:1807.05139
    spec.seeds_per_cell = 25;
    spec.protocol.rounds = 4;
    for (const char* t : {"ring 3", "ring 5", "ring 9", "toroid 3x3",
                          "toroid 5x5", "toroid 3x3x3", "toroid 5x5x5",
                          "toroid 3x5x7"})
      spec.topologies.push_back(parse_topo_spec(t));
    spec.mixes.push_back({"bounds", 0.001, 0.003, 0.0});
    spec.faults.push_back(FaultSpec{});
    return spec;
  }
  if (name == "zones") {
    // The zone-composition CI campaign: small datacenter fabrics where the
    // dense pipeline still runs, swept across the zones axis — so the
    // per-zone Thm 4.6 equality checks and the composed-bound soundness
    // check exercise every zone-plan kind next to the dense reference arm.
    spec.seed = 55;  // Thm 5.5
    spec.seeds_per_cell = 3;
    spec.protocol.rounds = 3;
    for (const char* t : {"dc 2 3 4", "dc 1 4 6", "ba 24 2"})
      spec.topologies.push_back(parse_topo_spec(t));
    spec.mixes.push_back({"bounds", 0.002, 0.01, 0.0});
    spec.faults.push_back(FaultSpec{});
    spec.zones.push_back({"none", 0});
    spec.zones.push_back({"natural", 0});
    spec.zones.push_back({"size", 6});
    return spec;
  }
  if (name == "fabric100k") {
    // The scale deliverable (ROADMAP open item 1): one epoch over a
    // 102,404-agent datacenter fabric — 4 spines, 512 racks, 199 hosts per
    // rack — synchronized by natural-zone composition.  The dense pipeline
    // would need a ~10^10-entry m̃s matrix here; the zoned path solves 516
    // zones of <= 200 nodes plus a 516-node quotient.
    spec.seed = 100000;
    spec.seeds_per_cell = 1;
    spec.protocol.rounds = 2;
    spec.topologies.push_back(parse_topo_spec("dc 4 512 199"));
    spec.mixes.push_back({"bounds", 0.002, 0.01, 0.0});
    spec.faults.push_back(FaultSpec{});
    spec.zones.push_back({"natural", 0});
    return spec;
  }
  if (name == "drift" || name == "drift-noresync") {
    // The drift-axis CI campaigns (docs/DRIFT.md): constant-skew and
    // random-walk oscillators at a 200 ppm band over small graphs.  The
    // declared [1, 25] ms band leaves generous slack around the sampled
    // delays (the drift runner draws from the middle quarter of the band)
    // so the rate estimator's re-anchoring error can never make the
    // estimates physically inconsistent.  "drift" re-syncs every 10 s and
    // must pass --check; "drift-noresync" runs the same oscillators with
    // re-sync disabled over an 80 s horizon, where accumulated drift
    // demonstrably breaks the drift-adjusted bound (--check exits 1).
    spec.seed = 17;  // experiment E17
    spec.seeds_per_cell = 2;
    spec.protocol.rounds = 3;
    for (const char* t : {"ring 6", "toroid 3x3"})
      spec.topologies.push_back(parse_topo_spec(t));
    spec.mixes.push_back({"bounds", 0.001, 0.025, 0.0});
    spec.faults.push_back(FaultSpec{});
    const bool resync = name == "drift";
    DriftAxisSpec constant;
    constant.kind = "const";
    constant.ppm = 200;
    constant.resync = resync ? 10.0 : 0.0;
    constant.horizon = resync ? 0.0 : 80.0;
    DriftAxisSpec walk = constant;
    walk.kind = "walk";
    walk.step_ppm = 50;
    spec.drifts.push_back(constant);
    spec.drifts.push_back(walk);
    return spec;
  }
  if (name == "byz" || name == "byz-quorum") {
    // The Byzantine-axis CI campaigns (docs/BYZ.md): a coordinated
    // equivocator on a complete 6-clique and a pair of them on a chorded
    // 9-ring, lying just inside the per-observation admissibility window
    // (mag ≈ 1.4σ for the declared [1, 101] ms band sampled mid-quarter —
    // the silent-violation regime; see docs/BYZ.md).  "byz" leaves the
    // naive estimator undefended and must demonstrably fail --check
    // (violated or detection-outage cells); "byz-quorum" runs the same
    // adversary against quorum-validated estimates and must pass: every
    // honest-subgraph claim sound, zero detection outages.
    spec.seed = 46;  // Thm 4.6 — the guarantee under attack
    spec.seeds_per_cell = 3;
    spec.protocol.rounds = 3;
    spec.topologies.push_back(parse_topo_spec("complete 6"));
    // The chorded ring only joins the must-fail preset: against *adjacent*
    // equivocators its stride-{1,2,3} path diversity is too thin for the
    // quorum majority to localize the liar, so the defended arm still
    // suffers detection outages (loud, never silent — docs/BYZ.md).  The
    // quorum preset keeps the clique, where connectivity 5 > 2f holds with
    // honest-majority paths for both arms.
    if (name == "byz") spec.topologies.push_back(parse_topo_spec("circulant 9"));
    spec.mixes.push_back({"bounds", 0.001, 0.101, 0.0});
    spec.faults.push_back(FaultSpec{});
    ByzAxisSpec arm;
    arm.kind = "equivocate";
    arm.f = 1;
    arm.magnitude = 0.09;
    arm.estimator = name == "byz" ? "naive" : "quorum";
    spec.byz.push_back(arm);
    ByzAxisSpec pair = arm;
    pair.f = 2;
    pair.magnitude = 0.10;
    spec.byz.push_back(pair);
    return spec;
  }
  fail("unknown campaign preset: '" + name +
       "' (try 'smoke', 'toroid', 'zones', 'fabric100k', 'drift', "
       "'drift-noresync', 'byz', or 'byz-quorum')");
}

}  // namespace cs::lab
