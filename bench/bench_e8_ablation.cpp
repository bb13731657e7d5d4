// E8 — Design-choice ablations.
//
// (a) Cycle mean: Karp's exact O(nm) algorithm (the paper's choice; the
//     graph oracle and the dense kernel SHIFTS runs) vs Howard's policy
//     iteration (dense kernel) vs a Lawler-style binary search on
//     negative-cycle detection.  Expected: all agree to tolerance; the two
//     Karps bit for bit, Karp and Howard to rounding, bsearch to its 1e-9
//     stopping width.
// (b) APSP for GLOBAL ESTIMATES: Johnson vs Floyd-Warshall.  Expected:
//     identical matrices; Johnson wins on sparse network graphs, loses or
//     ties on dense ones.
// (c) Probe cost vs precision (the §7 message-traffic consideration): how
//     much precision each extra probe round buys, and at what message
//     cost.  Expected: diminishing returns — steep improvement for the
//     first few rounds, then a plateau governed by lb-edge proximity.

#include <chrono>
#include <cmath>

#include "graph/arena.hpp"
#include "support.hpp"

namespace {

using Clock = std::chrono::steady_clock;

template <typename F>
double time_us(F&& f, int reps) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) f();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / reps;
}

}  // namespace

int main() {
  using namespace cs;
  using namespace cs::bench;

  // ---- (a) Karp vs binary-search cycle mean ------------------------------
  print_header("E8a", "cycle mean: Karp vs Howard vs binary search");
  {
    Table table({"n", "Karp (us)", "Karp dense (us)", "Howard (us)",
                 "bsearch (us)", "max |Karp-Howard|", "max |Karp-bsearch|"});
    for (const std::size_t n : {8u, 16u, 32u, 64u}) {
      Rng rng(n);
      Digraph g(n);
      // Dense Karp and Howard run as SHIFTS runs them: on the same
      // weights as a row-major matrix (diagonal unused).
      std::vector<double> w(n * n, 0.0);
      for (NodeId p = 0; p < n; ++p)
        for (NodeId q = 0; q < n; ++q)
          if (p != q) {
            w[p * n + q] = rng.uniform(-1.0, 1.0);
            g.add_edge(p, q, w[p * n + q]);
          }
      EpochArena arena;
      std::vector<NodeId> policy(n);
      const auto howard = [&] {
        arena.reset();
        return max_cycle_mean_howard_dense(w.data(), n, {}, policy, arena,
                                           nullptr)
            .mean;
      };
      const auto karp_dense = [&] {
        arena.reset();
        return max_cycle_mean_karp_dense(w.data(), n, arena);
      };
      const double karp_us =
          time_us([&] { (void)max_cycle_mean_karp(g); }, 20);
      const double dense_us = time_us([&] { (void)karp_dense(); }, 20);
      const double how_us = time_us([&] { (void)howard(); }, 20);
      const double bs_us =
          time_us([&] { (void)max_cycle_mean_bsearch(g, 1e-9); }, 5);
      const double karp = *max_cycle_mean_karp(g);
      const double diff_h = std::fabs(karp - howard());
      const double diff_b =
          std::fabs(karp - *max_cycle_mean_bsearch(g, 1e-9));
      table.add_row({std::to_string(n), Table::num(karp_us),
                     Table::num(dense_us), Table::num(how_us),
                     Table::num(bs_us), Table::num(diff_h, 2),
                     Table::num(diff_b, 2)});
    }
    table.print(std::cout);
  }

  // ---- (b) Johnson vs Floyd-Warshall -------------------------------------
  print_header("E8b", "GLOBAL ESTIMATES APSP: Johnson vs Floyd-Warshall");
  {
    Table table({"graph", "Johnson (us)", "Floyd-Warshall (us)",
                 "matrices equal"});
    struct Case {
      std::string name;
      Digraph g;
    };
    std::vector<Case> cases;
    {
      Rng rng(3);
      Digraph ring(96);
      for (NodeId v = 0; v < 96; ++v) {
        ring.add_edge(v, (v + 1) % 96, rng.uniform(0.0, 1.0));
        ring.add_edge((v + 1) % 96, v, rng.uniform(0.0, 1.0));
      }
      cases.push_back({"ring n=96 (sparse)", std::move(ring)});
      Digraph dense(48);
      for (NodeId p = 0; p < 48; ++p)
        for (NodeId q = 0; q < 48; ++q)
          if (p != q) dense.add_edge(p, q, rng.uniform(0.0, 1.0));
      cases.push_back({"complete n=48 (dense)", std::move(dense)});
    }
    for (const Case& c : cases) {
      const double j_us = time_us([&] { (void)johnson(c.g); }, 5);
      const double f_us = time_us([&] { (void)floyd_warshall(c.g); }, 5);
      const auto a = johnson(c.g);
      const auto b = floyd_warshall(c.g);
      double max_diff = 0.0;
      for (std::size_t i = 0; i < a->size(); ++i)
        for (std::size_t k = 0; k < a->size(); ++k)
          max_diff =
              std::max(max_diff, std::fabs(a->at(i, k) - b->at(i, k)));
      table.add_row({c.name, Table::num(j_us), Table::num(f_us),
                     max_diff < 1e-9 ? "yes" : "NO"});
    }
    table.print(std::cout);
  }

  // ---- (c) probe rounds vs precision vs message cost ---------------------
  print_header("E8c", "probe cost vs precision (ring of 8, bounds model)");
  {
    Table table({"rounds", "messages", "A^max mean (ms)",
                 "improvement vs 1 round"});
    constexpr int kSeeds = 12;
    double base = 0.0;
    for (const std::size_t rounds : {1u, 2u, 4u, 8u, 16u}) {
      Accumulator a_acc;
      std::size_t messages = 0;
      for (int seed = 1; seed <= kSeeds; ++seed) {
        SystemModel model = bounded_model(make_ring(8), 0.002, 0.012);
        const Instance inst =
            probe(model, static_cast<std::uint64_t>(seed) * 41, 0.2, rounds);
        messages = inst.sim.delivered_messages;
        a_acc.add(
            synchronize(model, inst.views).optimal_precision.finite() * 1e3);
      }
      if (rounds == 1) base = a_acc.mean();
      table.add_row({std::to_string(rounds), std::to_string(messages),
                     Table::num(a_acc.mean()),
                     Table::num(base / a_acc.mean(), 3) + "x"});
    }
    table.print(std::cout);
    std::cout << "\nexpected: diminishing returns per extra probe round\n";
  }
  return 0;
}
