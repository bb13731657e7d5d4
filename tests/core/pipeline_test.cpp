// local_estimates + global_estimates on hand-built executions, checking the
// §5/§6 plumbing end to end against closed-form expectations.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "core/global_estimates.hpp"
#include "core/local_estimates.hpp"
#include "core/shifts.hpp"
#include "core/synchronizer.hpp"
#include "graph/cycle_mean.hpp"
#include "lab/topo.hpp"
#include "support/builders.hpp"

namespace cs {
namespace {

double edge_weight(const Digraph& g, NodeId from, NodeId to) {
  for (EdgeId e : g.out_edges(from))
    if (g.edge(e).to == to) return g.edge(e).weight;
  return kInfDist;
}

TEST(LocalEstimates, TwoNodeBoundsFormula) {
  const double lb = 0.1, ub = 0.6;
  const double s0 = 1.0, s1 = 2.0;
  const Execution e = test::two_node_execution(s0, s1, {0.2, 0.4}, {0.5});
  SystemModel model = test::bounded_model(make_line(2), lb, ub);
  const auto views = e.views();
  const Digraph mls = local_shift_estimates(model, views);

  // m̃ls(0,1) = min(ub - d̃max(1,0), d̃min(0,1) - lb)
  // d̃(0->1) = d + s0 - s1 = d - 1; d̃(1->0) = d + 1.
  const double mls01 = std::min(ub - (0.5 + 1.0), (0.2 - 1.0) - lb);
  const double mls10 = std::min(ub - (0.4 - 1.0), (0.5 + 1.0) - lb);
  EXPECT_NEAR(edge_weight(mls, 0, 1), mls01, 1e-12);
  EXPECT_NEAR(edge_weight(mls, 1, 0), mls10, 1e-12);
}

TEST(LocalEstimates, ActualVsEstimatedDifferByStartSkew) {
  // m̃ls(p,q) = mls(p,q) + S_p - S_q (definition in §5.3).
  const double s0 = 0.5, s1 = 2.5;
  const Execution e = test::two_node_execution(s0, s1, {0.3, 0.7}, {0.4});
  SystemModel model = test::bounded_model(make_line(2), 0.1, 1.0);
  const auto views = e.views();
  const Digraph est = local_shift_estimates(model, views);
  const Digraph act = local_shifts_actual(model, e);
  EXPECT_NEAR(edge_weight(est, 0, 1), edge_weight(act, 0, 1) + s0 - s1,
              1e-12);
  EXPECT_NEAR(edge_weight(est, 1, 0), edge_weight(act, 1, 0) + s1 - s0,
              1e-12);
}

TEST(GlobalEstimates, PathSumsOnALine) {
  // On a 3-node line the only route 0 -> 2 is through 1; Thm 5.5 says
  // m̃s(0,2) = m̃ls(0,1) + m̃ls(1,2).
  SystemModel model = test::bounded_model(make_line(3), 0.01, 0.05);
  const SimResult r = test::run_ping_pong(model, 21, 0.4);
  const auto views = r.execution.views();
  const Digraph mls = local_shift_estimates(model, views);
  const DistanceMatrix ms = global_shift_estimates(mls);
  EXPECT_NEAR(ms.at(0, 2),
              edge_weight(mls, 0, 1) + edge_weight(mls, 1, 2), 1e-9);
  EXPECT_NEAR(ms.at(2, 0),
              edge_weight(mls, 2, 1) + edge_weight(mls, 1, 0), 1e-9);
}

TEST(GlobalEstimates, JohnsonAndFloydAgree) {
  SystemModel model = test::bounded_model(make_ring(6), 0.01, 0.05);
  const SimResult r = test::run_ping_pong(model, 22, 0.4);
  const auto views = r.execution.views();
  const Digraph mls = local_shift_estimates(model, views);
  const DistanceMatrix a =
      global_shift_estimates(mls, ApspAlgorithm::kJohnson);
  const DistanceMatrix b =
      global_shift_estimates(mls, ApspAlgorithm::kFloydWarshall);
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < a.size(); ++j)
      EXPECT_NEAR(a.at(i, j), b.at(i, j), 1e-9);
}

TEST(GlobalEstimates, InconsistentViewsThrow) {
  // An execution violating the declared bounds produces a negative m̃ls
  // cycle, which GLOBAL ESTIMATES must reject.
  const Execution e = test::two_node_execution(0.0, 0.0, {0.9}, {0.9});
  SystemModel model = test::bounded_model(make_line(2), 0.1, 0.3);
  const auto views = e.views();
  const Digraph mls = local_shift_estimates(model, views);
  EXPECT_THROW(global_shift_estimates(mls), InvalidAssumption);
}

TEST(Synchronizer, TwoNodeAnalyticPrecision) {
  // Single message each way under [lb, ub]: the optimal precision is
  //   ( min(ub - d2, d1 - lb) + min(ub - d1, d2 - lb) ) / 2.
  const double lb = 0.1, ub = 0.6, d1 = 0.2, d2 = 0.5;
  const Execution e = test::two_node_execution(1.3, 0.4, {d1}, {d2});
  SystemModel model = test::bounded_model(make_line(2), lb, ub);
  const auto views = e.views();
  const SyncOutcome out = synchronize(model, views);
  const double expected =
      (std::min(ub - d2, d1 - lb) + std::min(ub - d1, d2 - lb)) / 2.0;
  EXPECT_NEAR(out.optimal_precision.finite(), expected, 1e-12);
}

TEST(Synchronizer, TwoNodeBiasAnalyticPrecision) {
  // Bias model: mls(p,q) = min(dmin(p,q), (b + dmin(p,q) - dmax(q,p))/2).
  const double b = 0.2, d1 = 0.5, d2 = 0.6;
  const Execution e = test::two_node_execution(2.0, 0.0, {d1}, {d2});
  SystemModel model = test::bias_model(make_line(2), b);
  const auto views = e.views();
  const SyncOutcome out = synchronize(model, views);
  const double mls01 = std::min(d1, (b + d1 - d2) / 2.0);
  const double mls10 = std::min(d2, (b + d2 - d1) / 2.0);
  EXPECT_NEAR(out.optimal_precision.finite(), (mls01 + mls10) / 2.0, 1e-9);
}

TEST(Synchronizer, AlgorithmChoicesAgree) {
  // Karp/Howard x Johnson/Floyd-Warshall must agree within DESIGN.md's
  // tolerance contract.  Karp and Howard are different float computations
  // and routinely differ in the last bits, so the check is 1e-9, not ==.
  Rng topo_rng(55);
  SystemModel model = test::bounded_model(
      make_connected_gnp(8, 0.35, topo_rng), 0.005, 0.03);
  const SimResult sim = test::run_ping_pong(model, 17, 0.25);
  const auto views = sim.execution.views();

  std::vector<SyncOutcome> outs;
  for (auto apsp : {ApspAlgorithm::kJohnson, ApspAlgorithm::kFloydWarshall})
    for (auto cm : {CycleMeanAlgorithm::kKarp, CycleMeanAlgorithm::kHoward}) {
      SyncOptions opt;
      opt.apsp = apsp;
      opt.cycle_mean = cm;
      outs.push_back(synchronize(model, views, opt));
    }
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_NEAR(outs[i].optimal_precision.finite(),
                outs[0].optimal_precision.finite(), 1e-9);
    for (std::size_t p = 0; p < outs[0].corrections.size(); ++p)
      EXPECT_NEAR(outs[i].corrections[p], outs[0].corrections[p], 1e-9);
  }
}

TEST(Synchronizer, ValidatesViewOrder) {
  SystemModel model = test::bounded_model(make_line(2), 0.0, 1.0);
  const Execution e = test::two_node_execution(0.0, 0.0, {0.5}, {0.5});
  auto views = e.views();
  std::swap(views[0], views[1]);
  EXPECT_THROW(synchronize(model, views), InvalidExecution);
  views.pop_back();
  std::vector<View> one{views[0]};
  EXPECT_THROW(synchronize(model, one), InvalidExecution);
}

TEST(Synchronizer, OneWayTrafficBoundsVsLowerBoundOnly) {
  // Same one-directional traffic; finite upper bounds keep the instance
  // bounded, lower-bound-only assumptions do not.
  const Execution e = test::two_node_execution(0.3, 0.9, {0.2, 0.3}, {});
  const auto views = e.views();

  SystemModel bounded = test::bounded_model(make_line(2), 0.1, 0.5);
  const SyncOutcome a = synchronize(bounded, views);
  EXPECT_TRUE(a.bounded());

  SystemModel lower_only = test::lower_bound_model(make_line(2), 0.1);
  const SyncOutcome b = synchronize(lower_only, views);
  EXPECT_FALSE(b.bounded());
  EXPECT_EQ(b.components.component_count, 2u);
}

TEST(Shifts, FabricKarpBitEqualToGraphOracle) {
  // The dense Karp kernel SHIFTS runs, on the m̃s matrix of a real
  // 302-agent datacenter fabric (dc 2 12 24, the repository benchmark's
  // shape): Ã^max must carry the very bits of the Digraph Karp oracle on
  // the same complete graph, and the corrections must not depend on the
  // thread count.
  SystemModel model =
      test::bounded_model(lab::make_datacenter(2, 12, 24), 0.002, 0.008);
  const SimResult sim = test::run_ping_pong(model, 1, 0.2);
  const DistanceMatrix ms = global_shift_estimates(
      local_shift_estimates(model, sim.execution.views()));
  const std::size_t n = ms.size();
  ASSERT_EQ(n, 302u);

  Digraph complete(n);
  for (NodeId p = 0; p < n; ++p)
    for (NodeId q = 0; q < n; ++q)
      if (p != q) complete.add_edge(p, q, ms.at(p, q));
  const auto oracle = max_cycle_mean_karp(complete);
  ASSERT_TRUE(oracle.has_value());

  ShiftsOptions serial;
  serial.algorithm = CycleMeanAlgorithm::kKarp;
  const ShiftsResult one = compute_shifts(ms, serial);
  ASSERT_TRUE(one.bounded());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(one.a_max.finite()),
            std::bit_cast<std::uint64_t>(*oracle));

  ShiftsOptions par = serial;
  par.threads = 4;
  const ShiftsResult four = compute_shifts(ms, par);
  ASSERT_TRUE(four.bounded());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(four.a_max.finite()),
            std::bit_cast<std::uint64_t>(*oracle));
  ASSERT_EQ(one.corrections.size(), four.corrections.size());
  EXPECT_EQ(std::memcmp(one.corrections.data(), four.corrections.data(),
                        n * sizeof(double)),
            0);
}

}  // namespace
}  // namespace cs
