// Equivalence of the incremental, instrumented epoch pipeline with the
// from-scratch oracle (ISSUE 1 tentpole): incremental APSP + warm-started
// Howard must reproduce the from-scratch results to 1e-12 across randomized
// epoch sequences with single-edge perturbations, including perturbations
// that flip a link from bounded to unbounded (§4's A^max = ∞ case, where
// the finiteness components split).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/epochs.hpp"
#include "core/incremental.hpp"
#include "core/shifts.hpp"
#include "graph/incremental_apsp.hpp"
#include "graph/johnson.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

constexpr double kTol = 1e-12;

void expect_shifts_match(const ShiftsResult& got, const ShiftsResult& want,
                         const std::string& context) {
  ASSERT_EQ(got.corrections.size(), want.corrections.size()) << context;
  EXPECT_EQ(got.a_max.is_finite(), want.a_max.is_finite()) << context;
  if (got.a_max.is_finite() && want.a_max.is_finite()) {
    EXPECT_NEAR(got.a_max.finite(), want.a_max.finite(), kTol) << context;
  }
  ASSERT_EQ(got.components.component_count, want.components.component_count)
      << context;
  EXPECT_EQ(got.components.component, want.components.component) << context;
  for (std::size_t c = 0; c < got.component_a_max.size(); ++c)
    EXPECT_NEAR(got.component_a_max[c], want.component_a_max[c], kTol)
        << context << " component " << c;
  for (std::size_t p = 0; p < got.corrections.size(); ++p)
    EXPECT_NEAR(got.corrections[p], want.corrections[p], kTol)
        << context << " processor " << p;
}

/// 200 randomized epoch sequences at the m̃s level: per epoch one edge of
/// the m̃ls graph is perturbed (tightened, loosened, dropped to +inf, or
/// re-added), the incremental closure feeds compute_shifts with Howard
/// warm-started from the previous epoch, and the result must match the
/// from-scratch Johnson + cold-start pipeline.
TEST(IncrementalPipelineProperty, TwoHundredPerturbedEpochSequences) {
  std::size_t unbounded_epochs_seen = 0;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    Rng rng(5000 + seq);
    const std::size_t n = 4 + rng.uniform_int(10);

    // Bidirectional ring of m̃ls entries plus chords — shaped like real
    // shift-estimate graphs (both directions present, small positive
    // weights), with enough randomness to move the critical cycle around.
    struct E {
      NodeId a, b;
      double w;
      bool alive;
    };
    std::vector<E> edges;
    for (NodeId v = 0; v < n; ++v) {
      const NodeId u = static_cast<NodeId>((v + 1) % n);
      edges.push_back({v, u, rng.uniform(0.05, 0.5), true});
      edges.push_back({u, v, rng.uniform(0.05, 0.5), true});
    }
    const std::size_t chords = rng.uniform_int(n);
    for (std::size_t c = 0; c < chords; ++c) {
      const NodeId a = static_cast<NodeId>(rng.uniform_int(n));
      const NodeId b = static_cast<NodeId>(rng.uniform_int(n));
      if (a != b) edges.push_back({a, b, rng.uniform(0.05, 0.5), true});
    }

    auto build = [&] {
      Digraph g(n);
      for (const E& e : edges)
        if (e.alive) g.add_edge(e.a, e.b, e.w);
      return g;
    };

    IncrementalApsp inc;
    std::vector<NodeId> warm_policy;

    const std::size_t epochs = 6;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
      if (epoch > 0) {
        // Single-edge perturbation per epoch.
        E& e = edges[rng.uniform_int(edges.size())];
        switch (rng.uniform_int(4)) {
          case 0:
            e.w *= rng.uniform(0.5, 1.0);  // tighten (the realistic delta)
            break;
          case 1:
            e.w *= rng.uniform(1.0, 2.0);  // loosen
            break;
          case 2:
            e.alive = false;  // bounded -> unbounded flip
            break;
          default:
            e.alive = true;  // (re)appears
            break;
        }
      }
      const Digraph mls = build();
      const std::string context =
          "seq " + std::to_string(seq) + " epoch " + std::to_string(epoch);

      // From-scratch oracle: full Johnson closure + cold Howard.
      const auto oracle_ms = johnson(mls);
      ASSERT_TRUE(oracle_ms.has_value()) << context;
      const ShiftsResult oracle =
          compute_shifts(*oracle_ms, 0, CycleMeanAlgorithm::kHoward);

      // Incremental path: delta-updated closure + warm-started Howard.
      ASSERT_TRUE(inc.update(mls)) << context;
      ShiftsOptions options;
      options.algorithm = CycleMeanAlgorithm::kHoward;
      if (!warm_policy.empty()) options.warm_policy = &warm_policy;
      const ShiftsResult incremental =
          compute_shifts(inc.distances(), options);
      warm_policy = incremental.policy;

      expect_shifts_match(incremental, oracle, context);
      if (!oracle.a_max.is_finite()) ++unbounded_epochs_seen;

      // Cross-check against the paper's prescribed algorithm too.
      const ShiftsResult karp =
          compute_shifts(*oracle_ms, 0, CycleMeanAlgorithm::kKarp);
      EXPECT_EQ(karp.a_max.is_finite(), incremental.a_max.is_finite())
          << context;
      if (karp.a_max.is_finite() && incremental.a_max.is_finite()) {
        EXPECT_NEAR(karp.a_max.finite(), incremental.a_max.finite(), 1e-9)
            << context;
      }
    }
  }
  // The perturbation mix must actually exercise the component-split path.
  EXPECT_GT(unbounded_epochs_seen, 20u);
}

/// End-to-end equivalence on simulated traffic: the incremental epoch
/// driver must reproduce epochal_synchronize() on growing view prefixes.
TEST(IncrementalPipeline, EpochalDriverMatchesFromScratch) {
  for (std::uint64_t seed : {3u, 17u, 42u}) {
    SystemModel model = test::bounded_model(make_ring(6), 0.005, 0.02);
    Rng rng(seed);
    SimOptions opts;
    opts.start_offsets = random_start_offsets(6, 0.3, rng);
    opts.seed = seed;
    PingPongParams params;
    params.warmup = Duration{0.4};
    params.spacing = Duration{0.4};
    params.rounds = 8;
    const SimResult sim = simulate(model, make_ping_pong(params), opts);
    const auto views = sim.execution.views();

    const std::vector<ClockTime> boundaries{
        ClockTime{0.01}, ClockTime{1.0}, ClockTime{1.5}, ClockTime{2.0},
        ClockTime{2.5},  ClockTime{3.0}, ClockTime{10.0}};

    EpochOptions options;
    options.sync.cycle_mean = CycleMeanAlgorithm::kHoward;
    Metrics metrics;
    EpochOptions inc_options = options;
    inc_options.sync.metrics = &metrics;

    const auto scratch =
        epochal_synchronize(model, views, boundaries, options);
    const auto incremental = epochal_synchronize_incremental(
        model, views, boundaries, inc_options);

    ASSERT_EQ(scratch.size(), incremental.size());
    for (std::size_t k = 0; k < scratch.size(); ++k) {
      const SyncOutcome& a = scratch[k].sync;
      const SyncOutcome& b = incremental[k].sync;
      EXPECT_EQ(a.bounded(), b.bounded()) << "epoch " << k;
      if (a.bounded() && b.bounded()) {
        EXPECT_NEAR(a.optimal_precision.finite(),
                    b.optimal_precision.finite(), kTol)
            << "epoch " << k;
      }
      ASSERT_EQ(a.corrections.size(), b.corrections.size());
      for (std::size_t p = 0; p < a.corrections.size(); ++p)
        EXPECT_NEAR(a.corrections[p], b.corrections[p], kTol)
            << "epoch " << k << " processor " << p;
    }

    // The instrumentation saw every epoch, and later epochs (same node set,
    // small m̃ls delta) actually took the incremental path.
    EXPECT_EQ(metrics.counter("pipeline.epochs"), boundaries.size());
    EXPECT_GE(metrics.counter("apsp.incremental_updates"), 1u);
    EXPECT_NE(metrics.series("stage.global_estimates_seconds"), nullptr);
    EXPECT_NE(metrics.series("stage.shifts_seconds"), nullptr);
  }
}

/// The incremental synchronizer honors the synchronize() error contract and
/// recovers after an inadmissible epoch.
TEST(IncrementalPipeline, MalformedViewsRejected) {
  SystemModel model = test::bounded_model(make_line(2), 0.01, 0.05);
  const SimResult sim = test::run_ping_pong(model, 9, 0.1);
  auto views = sim.execution.views();

  IncrementalSynchronizer sync(model);
  std::vector<View> swapped{views[1], views[0]};
  EXPECT_THROW((void)sync.step(swapped), InvalidExecution);
  EXPECT_NO_THROW((void)sync.step(views));
}

}  // namespace
}  // namespace cs
