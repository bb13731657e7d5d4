// Campaign spec grammar: parse/save round-trips, odometer expansion,
// per-link mix assignment, and diagnostics with 1-based line numbers.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "lab/spec.hpp"
#include "support/builders.hpp"

namespace cs::lab {
namespace {

CampaignSpec parse(const std::string& text) {
  std::istringstream is(text);
  return load_campaign(is);
}

std::string expect_error(const std::string& text) {
  try {
    parse(text);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a parse error for: " << text;
  return "";
}

constexpr const char kMinimalSpec[] =
    "chronosync-campaign v1\n"
    "name mini\n"
    "seed 7\n"
    "seeds 2\n"
    "protocol beacon 0.25 10\n"
    "skew 0.5\n"
    "delay-scale 0.05\n"
    "topology ring 4\n"
    "topology toroid 3x3\n"
    "mix bounds 0.001 0.004\n"
    "mix lower 0.002\n"
    "faults none\n"
    "faults drop 0.25 crash 1 2.5 3.5\n";

TEST(CampaignSpec, ParsesEveryDirective) {
  const CampaignSpec spec = parse(kMinimalSpec);
  EXPECT_EQ(spec.name, "mini");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.seeds_per_cell, 2u);
  EXPECT_EQ(spec.protocol.kind, "beacon");
  EXPECT_DOUBLE_EQ(spec.protocol.period, 0.25);
  EXPECT_EQ(spec.protocol.count, 10u);
  EXPECT_DOUBLE_EQ(spec.skew, 0.5);
  EXPECT_DOUBLE_EQ(spec.delay_scale, 0.05);
  ASSERT_EQ(spec.topologies.size(), 2u);
  EXPECT_EQ(spec.topologies[1].describe(), "toroid 3x3");
  ASSERT_EQ(spec.mixes.size(), 2u);
  EXPECT_EQ(spec.mixes[1].kind, "lower");
  ASSERT_EQ(spec.faults.size(), 2u);
  EXPECT_FALSE(spec.faults[0].faulty());
  EXPECT_TRUE(spec.faults[1].has_crash);
  EXPECT_EQ(spec.faults[1].crash_pid, 1u);
  EXPECT_EQ(spec.cell_count(), 2u * 2u * 2u);
  EXPECT_EQ(spec.task_count(), 16u);
}

TEST(CampaignSpec, SaveLoadRoundTripsExactly) {
  const CampaignSpec spec = parse(kMinimalSpec);
  std::ostringstream first;
  save_campaign(first, spec);
  std::istringstream is(first.str());
  std::ostringstream second;
  save_campaign(second, load_campaign(is));
  EXPECT_EQ(first.str(), second.str());
}

TEST(CampaignSpec, CommentsAndBlankLinesIgnored) {
  const CampaignSpec spec = parse(
      "chronosync-campaign v1\n\n# a comment\nseeds 1  # trailing\n"
      "topology ring 3\nmix bounds 0.001 0.002\n");
  EXPECT_EQ(spec.seeds_per_cell, 1u);
  ASSERT_EQ(spec.faults.size(), 1u);  // defaulted to fault-free
  EXPECT_FALSE(spec.faults[0].faulty());
}

TEST(CampaignSpec, DiagnosticsCarryLineNumbers) {
  EXPECT_NE(expect_error("chronosync-campaign v1\nseeds 1\nbogus 3\n")
                .find("line 3"),
            std::string::npos);
  EXPECT_NE(expect_error("chronosync-campaign v1\nseeds one\n")
                .find("'one'"),
            std::string::npos);
  EXPECT_NE(expect_error("not-a-campaign\n").find("header"),
            std::string::npos);
  EXPECT_NE(expect_error("chronosync-campaign v1\ntopology ring 3\n"
                         "mix bounds 0.001 0.002\n")
                .find("seeds"),
            std::string::npos);
  EXPECT_NE(expect_error("chronosync-campaign v1\nseeds 1\n"
                         "topology ring 3\nmix bounds 0.001 0.002\n"
                         "faults drop 1.5\n")
                .find("[0, 1]"),
            std::string::npos);
  // Negative counts, non-finite numbers and trailing characters are
  // refused on their own line, never wrapped or let past a range check.
  const std::string head(
      "chronosync-campaign v1\nseeds 1\ntopology ring 3\n"
      "mix bounds 0.001 0.002\n");
  for (const char* bad :
       {"seeds -1\n", "seed 7x\n", "zones size -1\n", "faults drop nan\n",
        "skew inf\n", "delay-scale nan\n", "drift const nan resync 10\n",
        "drift const 200 resync inf\n",
        "drift const 200 resync 10 horizon nan\n", "topology ring -3\n",
        "topology er 10 0.3abc\n", "topology er 10 nan\n"})
    EXPECT_NE(expect_error(head + bad).find("line 5"), std::string::npos)
        << bad;
}

TEST(CampaignSpec, ExpandIsTheDeclarationOrderOdometer) {
  const CampaignSpec spec = parse(kMinimalSpec);
  const std::vector<TaskSpec> tasks = expand(spec);
  ASSERT_EQ(tasks.size(), 16u);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].index, i);
    // Seed index cycles fastest, then faults, then mixes, then topologies.
    EXPECT_EQ(tasks[i].seed_index, i % 2);
    EXPECT_EQ(tasks[i].fault_id, (i / 2) % 2);
    EXPECT_EQ(tasks[i].mix_id, (i / 4) % 2);
    EXPECT_EQ(tasks[i].topology_id, i / 8);
    EXPECT_EQ(tasks[i].cell_id(spec), i / 2);
  }
}

TEST(CampaignSpec, ExpandRejectsEmptyAxes) {
  CampaignSpec spec;
  spec.seeds_per_cell = 1;
  EXPECT_THROW(expand(spec), Error);
}

TEST(CampaignSpec, ApplyMixCoversEveryLink) {
  for (const char* kind :
       {"bounds", "lower", "bias", "composite", "alternating"}) {
    SystemModel model{make_ring(5)};
    MixSpec mix;
    mix.kind = kind;
    mix.lb = 0.001;
    mix.ub = 0.004;
    mix.bias = 0.002;
    apply_mix(model, mix);
    for (const auto& [a, b] : model.topology().links)
      EXPECT_FALSE(model.constraint(a, b).describe().empty()) << kind;
  }
}

TEST(CampaignSpec, AlternatingMixIsHeterogeneous) {
  SystemModel model{make_ring(6)};
  MixSpec mix;
  mix.kind = "alternating";
  mix.lb = 0.001;
  mix.ub = 0.004;
  mix.bias = 0.002;
  apply_mix(model, mix);
  const auto& links = model.topology().links;
  // Links 0 and 1 fall in different i%3 classes: bounds vs bias.
  EXPECT_NE(model.constraint(links[0].first, links[0].second).describe(),
            model.constraint(links[1].first, links[1].second).describe());
}

TEST(CampaignSpec, ApplyMixRejectsUnknownKind) {
  SystemModel model{make_ring(3)};
  MixSpec mix;
  mix.kind = "wormhole";
  EXPECT_THROW(apply_mix(model, mix), Error);
}

TEST(CampaignSpec, SmokePresetIsValid) {
  const CampaignSpec spec = preset_campaign("smoke");
  EXPECT_EQ(expand(spec).size(), spec.task_count());
  EXPECT_GE(spec.topologies.size(), 5u);  // multi-family by design
}

TEST(CampaignSpec, ToroidPresetMeetsTheAcceptanceFloor) {
  // The acceptance campaign: >= 200 tasks, all odd-ary toroids, fault-free.
  const CampaignSpec spec = preset_campaign("toroid");
  EXPECT_GE(spec.task_count(), 200u);
  for (const TopoSpec& t : spec.topologies)
    EXPECT_TRUE(t.odd_ary_toroid()) << t.describe();
  for (const FaultSpec& f : spec.faults) EXPECT_FALSE(f.faulty());
}

TEST(CampaignSpec, UnknownPresetFails) {
  EXPECT_THROW(preset_campaign("nope"), Error);
}

// ---------------------------------------------------------------------------
// Zones axis

TEST(CampaignSpecZones, ParsesAndRoundTripsEveryArmKind) {
  const CampaignSpec spec = parse(
      "chronosync-campaign v1\nseeds 1\ntopology dc 2 3 4\n"
      "mix bounds 0.001 0.004\n"
      "zones none\nzones size 6\nzones natural\n");
  ASSERT_EQ(spec.zones.size(), 3u);
  EXPECT_EQ(spec.zones[0].kind, "none");
  EXPECT_FALSE(spec.zones[0].zoned());
  EXPECT_EQ(spec.zones[1].kind, "size");
  EXPECT_EQ(spec.zones[1].size, 6u);
  EXPECT_TRUE(spec.zones[1].zoned());
  EXPECT_EQ(spec.zones[2].kind, "natural");
  EXPECT_EQ(spec.zone_arm_count(), 3u);
  EXPECT_EQ(spec.cell_count(), 3u);

  std::ostringstream first;
  save_campaign(first, spec);
  std::istringstream is(first.str());
  std::ostringstream second;
  save_campaign(second, load_campaign(is));
  EXPECT_EQ(first.str(), second.str());
}

TEST(CampaignSpecZones, NoZonesLineKeepsThePreZonesExpansion) {
  // Back-compat: a spec without any `zones` directive expands to exactly
  // the same task list as before the axis existed — one implicit dense arm,
  // zone_id 0 everywhere, identical indices and cell ids.
  const CampaignSpec spec = parse(kMinimalSpec);
  EXPECT_TRUE(spec.zones.empty());
  EXPECT_EQ(spec.zone_arm_count(), 1u);
  EXPECT_FALSE(spec.zone_arm(0).zoned());
  const std::vector<TaskSpec> tasks = expand(spec);
  ASSERT_EQ(tasks.size(), 16u);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].zone_id, 0u);
    EXPECT_EQ(tasks[i].cell_id(spec), i / 2);
  }
}

TEST(CampaignSpecZones, ZonesCycleBetweenFaultsAndSeeds) {
  const CampaignSpec spec = parse(
      "chronosync-campaign v1\nseeds 2\ntopology ring 4\ntopology ring 6\n"
      "mix bounds 0.001 0.004\nzones none\nzones size 3\nzones natural\n");
  const std::vector<TaskSpec> tasks = expand(spec);
  ASSERT_EQ(tasks.size(), 2u * 1u * 1u * 3u * 2u);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].index, i);
    EXPECT_EQ(tasks[i].seed_index, i % 2);
    EXPECT_EQ(tasks[i].zone_id, (i / 2) % 3);
    EXPECT_EQ(tasks[i].topology_id, i / 6);
    EXPECT_EQ(tasks[i].cell_id(spec), i / 2);
  }
}

TEST(CampaignSpecZones, MalformedZonesLinesAreDiagnosed) {
  EXPECT_NE(expect_error("chronosync-campaign v1\nseeds 1\n"
                         "topology ring 3\nmix bounds 0.001 0.002\n"
                         "zones banana\n")
                .find("banana"),
            std::string::npos);
  EXPECT_NE(expect_error("chronosync-campaign v1\nseeds 1\n"
                         "topology ring 3\nmix bounds 0.001 0.002\n"
                         "zones size 0\n")
                .find("zone size"),
            std::string::npos);
}

TEST(CampaignSpecZones, CrossProductOverflowIsAnErrorNotAWrap) {
  // Regression: the expansion index arithmetic used to wrap silently at
  // std::size_t, yielding a tiny bogus task list.  The counts must throw.
  CampaignSpec spec;
  spec.seeds_per_cell = 4;
  TopoSpec ring;
  ring.family = "ring";
  ring.dims = {4};
  // 2^16 arms on each of the four axes: the cross product is 2^64, one past
  // what std::size_t holds, while each axis is still cheaply allocatable.
  const std::size_t many = std::size_t(1) << 16;
  spec.topologies.assign(many, ring);
  spec.mixes.assign(many, MixSpec{"bounds", 0.001, 0.004, 0.0});
  spec.faults.assign(many, FaultSpec{});
  spec.zones.assign(many, ZoneAxisSpec{});
  EXPECT_THROW(spec.cell_count(), Error);
  EXPECT_THROW(spec.task_count(), Error);
  EXPECT_THROW(expand(spec), Error);
}

TEST(CampaignSpecZones, ZonesPresetSweepsTheAxis) {
  const CampaignSpec spec = preset_campaign("zones");
  EXPECT_GE(spec.zones.size(), 3u);  // none + natural + size arms
  bool has_dense = false, has_zoned = false;
  for (const ZoneAxisSpec& z : spec.zones)
    (z.zoned() ? has_zoned : has_dense) = true;
  EXPECT_TRUE(has_dense);
  EXPECT_TRUE(has_zoned);
  EXPECT_EQ(expand(spec).size(), spec.task_count());
}

TEST(CampaignSpecZones, Fabric100kPresetIsHundredKScale) {
  const CampaignSpec spec = preset_campaign("fabric100k");
  ASSERT_EQ(spec.topologies.size(), 1u);
  EXPECT_GE(spec.topologies[0].node_count(), 100'000u);
  ASSERT_EQ(spec.zones.size(), 1u);
  EXPECT_TRUE(spec.zones[0].zoned());
}

// ---------------------------------------------------------------------------
// Drift axis

TEST(CampaignSpecDrift, ParsesAndRoundTripsEveryArmKind) {
  const CampaignSpec spec = parse(
      std::string(kMinimalSpec) +
      "drift none\n"
      "drift const 200 resync 10\n"
      "drift walk 150 40 resync 5 horizon 30\n"
      "drift const 100 resync 0 horizon 60\n");
  ASSERT_EQ(spec.drifts.size(), 4u);
  EXPECT_EQ(spec.drifts[0].kind, "none");
  EXPECT_FALSE(spec.drifts[0].drifting());
  EXPECT_EQ(spec.drifts[1].kind, "const");
  EXPECT_DOUBLE_EQ(spec.drifts[1].ppm, 200.0);
  EXPECT_DOUBLE_EQ(spec.drifts[1].resync, 10.0);
  EXPECT_DOUBLE_EQ(spec.drifts[1].horizon_or_default(), 40.0);
  EXPECT_TRUE(spec.drifts[1].drifting());
  EXPECT_DOUBLE_EQ(spec.drifts[1].rho(), 200e-6);
  EXPECT_EQ(spec.drifts[2].kind, "walk");
  EXPECT_DOUBLE_EQ(spec.drifts[2].step_ppm, 40.0);
  EXPECT_DOUBLE_EQ(spec.drifts[2].horizon, 30.0);
  EXPECT_DOUBLE_EQ(spec.drifts[3].resync, 0.0);
  EXPECT_DOUBLE_EQ(spec.drifts[3].horizon_or_default(), 60.0);

  std::ostringstream os;
  save_campaign(os, spec);
  const CampaignSpec back = parse(os.str());
  ASSERT_EQ(back.drifts.size(), spec.drifts.size());
  for (std::size_t i = 0; i < spec.drifts.size(); ++i)
    EXPECT_EQ(back.drifts[i].describe(), spec.drifts[i].describe()) << i;
}

TEST(CampaignSpecDrift, NoDriftLineKeepsThePreDriftExpansion) {
  const CampaignSpec spec = parse(kMinimalSpec);
  EXPECT_TRUE(spec.drifts.empty());
  EXPECT_EQ(spec.drift_arm_count(), 1u);
  EXPECT_FALSE(spec.drift_arm(0).drifting());
  // 2 topologies x 2 mixes x 2 faults x 1 zone x 1 drift x 2 seeds.
  EXPECT_EQ(expand(spec).size(), 16u);
}

TEST(CampaignSpecDrift, DriftIsTheInnermostCellAxis) {
  const CampaignSpec spec = parse(
      std::string(kMinimalSpec) + "drift none\ndrift const 200 resync 10\n");
  const std::vector<TaskSpec> tasks = expand(spec);
  ASSERT_EQ(tasks.size(), 32u);
  // Seeds cycle fastest, then drift, then zones (absent), then faults.
  EXPECT_EQ(tasks[0].drift_id, 0u);
  EXPECT_EQ(tasks[1].drift_id, 0u);
  EXPECT_EQ(tasks[2].drift_id, 1u);
  EXPECT_EQ(tasks[2].fault_id, tasks[0].fault_id);
  EXPECT_EQ(tasks[4].fault_id, 1u);
  for (const TaskSpec& t : tasks) EXPECT_EQ(t.cell_id(spec), t.index / 2);
}

TEST(CampaignSpecDrift, MalformedDriftLinesAreDiagnosed) {
  const std::string base(kMinimalSpec);
  EXPECT_NE(expect_error(base + "drift banana\n").find("line 14"),
            std::string::npos);
  expect_error(base + "drift const 0 resync 10\n");       // ppm must be > 0
  expect_error(base + "drift const 200 resync -1\n");     // bad interval
  expect_error(base + "drift const 200 resync 0\n");      // needs horizon
  expect_error(base + "drift walk 200 0 resync 10\n");    // bad step
  expect_error(base + "drift const 200 10\n");            // missing keyword
  expect_error(base + "drift const 200 resync 10 span 4\n");
}

TEST(CampaignSpecDrift, DriftPresetsSweepBothOscillatorModels) {
  const CampaignSpec with = preset_campaign("drift");
  ASSERT_EQ(with.drifts.size(), 2u);
  EXPECT_EQ(with.drifts[0].kind, "const");
  EXPECT_EQ(with.drifts[1].kind, "walk");
  for (const DriftAxisSpec& d : with.drifts) {
    EXPECT_TRUE(d.drifting());
    EXPECT_GT(d.resync, 0.0);
  }

  const CampaignSpec without = preset_campaign("drift-noresync");
  ASSERT_EQ(without.drifts.size(), 2u);
  for (const DriftAxisSpec& d : without.drifts) {
    EXPECT_DOUBLE_EQ(d.resync, 0.0);
    EXPECT_GT(d.horizon, 0.0);  // resync 0 requires an explicit horizon
  }
}

// ---------------------------------------------------------------------------
// Byzantine axis

TEST(CampaignSpecByz, ParsesAndRoundTripsEveryArmKind) {
  const CampaignSpec spec = parse(
      std::string(kMinimalSpec) +
      "byz none\n"
      "byz lie-const f=1 mag=0.01\n"
      "byz equivocate f=2 mag=0.09 est=quorum tol=0.003\n"
      "byz replay f=1 mag=0.05 est=trimmed\n");
  ASSERT_EQ(spec.byz.size(), 4u);
  EXPECT_EQ(spec.byz[0].kind, "none");
  EXPECT_FALSE(spec.byz[0].byzantine());
  EXPECT_EQ(spec.byz[1].kind, "lie-const");
  EXPECT_TRUE(spec.byz[1].byzantine());
  EXPECT_EQ(spec.byz[1].f, 1u);
  EXPECT_DOUBLE_EQ(spec.byz[1].magnitude, 0.01);
  EXPECT_EQ(spec.byz[1].estimator, "naive");  // the default
  EXPECT_EQ(spec.byz[2].kind, "equivocate");
  EXPECT_EQ(spec.byz[2].f, 2u);
  EXPECT_EQ(spec.byz[2].estimator, "quorum");
  EXPECT_DOUBLE_EQ(spec.byz[2].quorum_tolerance, 0.003);
  EXPECT_EQ(spec.byz[3].kind, "replay");
  EXPECT_EQ(spec.byz[3].estimator, "trimmed");

  std::ostringstream os;
  save_campaign(os, spec);
  const CampaignSpec back = parse(os.str());
  ASSERT_EQ(back.byz.size(), spec.byz.size());
  for (std::size_t i = 0; i < spec.byz.size(); ++i)
    EXPECT_EQ(back.byz[i].describe(), spec.byz[i].describe()) << i;
}

TEST(CampaignSpecByz, NoByzLineKeepsThePreByzExpansion) {
  const CampaignSpec spec = parse(kMinimalSpec);
  EXPECT_TRUE(spec.byz.empty());
  EXPECT_EQ(spec.byz_arm_count(), 1u);
  EXPECT_FALSE(spec.byz_arm(0).byzantine());
  // 2 topologies x 2 mixes x 2 faults x 1 zone x 1 drift x 1 byz x 2 seeds.
  EXPECT_EQ(expand(spec).size(), 16u);
}

TEST(CampaignSpecByz, ByzIsTheInnermostCellAxis) {
  const CampaignSpec spec = parse(
      std::string(kMinimalSpec) + "byz none\nbyz lie-const f=1 mag=0.01\n");
  const std::vector<TaskSpec> tasks = expand(spec);
  ASSERT_EQ(tasks.size(), 32u);
  // Seeds cycle fastest, then byz, then drift (absent), then faults.
  EXPECT_EQ(tasks[0].byz_id, 0u);
  EXPECT_EQ(tasks[1].byz_id, 0u);
  EXPECT_EQ(tasks[2].byz_id, 1u);
  EXPECT_EQ(tasks[2].drift_id, tasks[0].drift_id);
  EXPECT_EQ(tasks[2].fault_id, tasks[0].fault_id);
  EXPECT_EQ(tasks[4].fault_id, 1u);
  for (const TaskSpec& t : tasks) EXPECT_EQ(t.cell_id(spec), t.index / 2);
}

TEST(CampaignSpecByz, MalformedByzLinesAreDiagnosed) {
  const std::string base(kMinimalSpec);
  EXPECT_NE(expect_error(base + "byz banana f=1 mag=0.1\n").find("line 14"),
            std::string::npos);
  expect_error(base + "byz\n");                              // no behavior
  expect_error(base + "byz none extra\n");
  expect_error(base + "byz lie-const mag=0.1\n");            // no f
  expect_error(base + "byz lie-const f=0 mag=0.1\n");        // f must be >= 1
  expect_error(base + "byz lie-const f=1\n");                // no mag
  expect_error(base + "byz lie-const f=1 mag=-0.1\n");       // bad magnitude
  expect_error(base + "byz lie-const f=1 0.1\n");            // not key=value
  expect_error(base + "byz lie-const f=1 mag=0.1 est=median\n");
  expect_error(base + "byz lie-const f=1 mag=0.1 tol=0\n");
  expect_error(base + "byz lie-const f=1 mag=0.1 window=2\n");
}

TEST(CampaignSpecByz, ByzPresetsPitNaiveAgainstQuorum) {
  // "byz" leaves the adversary undefended and must fail --check; the
  // quorum preset runs the identical arms defended and must pass.
  const CampaignSpec naive = preset_campaign("byz");
  EXPECT_EQ(naive.topologies.size(), 2u);
  ASSERT_EQ(naive.byz.size(), 2u);
  for (const ByzAxisSpec& b : naive.byz) {
    EXPECT_EQ(b.kind, "equivocate");
    EXPECT_TRUE(b.byzantine());
    EXPECT_EQ(b.estimator, "naive");
    EXPECT_GT(b.magnitude, 0.0);
  }
  EXPECT_EQ(naive.byz[0].f, 1u);
  EXPECT_EQ(naive.byz[1].f, 2u);

  const CampaignSpec quorum = preset_campaign("byz-quorum");
  // Clique only: the chorded ring's path diversity is too thin against
  // adjacent equivocators for the quorum majority (see preset comment).
  EXPECT_EQ(quorum.topologies.size(), 1u);
  ASSERT_EQ(quorum.byz.size(), 2u);
  for (const ByzAxisSpec& b : quorum.byz) {
    EXPECT_EQ(b.estimator, "quorum");
    EXPECT_GT(b.quorum_tolerance, 0.0);
  }
  // Same adversary, same seeds — only the defense differs.
  EXPECT_EQ(quorum.seed, naive.seed);
  EXPECT_DOUBLE_EQ(quorum.byz[0].magnitude, naive.byz[0].magnitude);
}

}  // namespace
}  // namespace cs::lab
