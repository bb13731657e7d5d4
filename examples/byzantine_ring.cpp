// Byzantine walkthrough: two equivocators on a chorded 9-ring.
//
// Nine agents on a circulant graph (ring plus stride-2/3 chords, so every
// node has six neighbours) probe each other with ping-pong while two of
// them equivocate: each liar feeds clockwise neighbours one story and
// counter-clockwise neighbours the opposite one, at per-peer magnitudes
// drawn inside [3/8, 1/2] of mag — the sign-coordinated adversary of
// docs/BYZ.md, shaped to bias the m̃ls estimates without immediately
// tripping the negative-cycle detector.
//
//   1. run the naive pipeline against the attack: every re-sync epoch the
//      lies force GLOBAL ESTIMATES into a negative m̃ls cycle and the
//      epoch is a *detection outage* — loud, nobody is handed a bound,
//      but nobody is synchronized either;
//   2. run the identical attack against quorum validation: each m̃ls edge
//      must be corroborated by a majority of interior-disjoint 2-hop
//      routes, the equivocators' edges fail the vote and are dropped, and
//      the surviving honest subgraph synchronizes soundly — the honest
//      agents' realized spread stays inside the published bound;
//   3. print the per-epoch scorecard of both arms.
//
// Build & run:  ./build/examples/byzantine_ring
// CLI twin:     ./build/tools/cs_lab run --preset byz-quorum --check

#include <cstdio>

#include "lab/trial.hpp"

int main() {
  using namespace cs;

  // The byz presets' 9-node circulant: connectivity 6, so with f = 2 the
  // honest majority still owns most (though not all) 2-hop routes.
  static constexpr std::size_t kStrides[] = {1, 2, 3};
  SystemModel model(make_circulant(9, kStrides));
  for (auto [a, b] : model.topology().links)
    model.set_constraint(make_bounds(a, b, 0.001, 0.101));

  // One shared trial shape: 3 re-sync epochs over a 32 s horizon, delays
  // sampled from the middle quarter of the declared band so honest epochs
  // carry slack — the regime where a sub-threshold lie is even possible.
  lab::TrialConfig base;
  base.horizon = 32.0;
  base.interval = 8.0;
  base.skew = 0.25;
  base.sample_lo = 0.001 + 0.375 * 0.1;
  base.sample_hi = 0.001 + 0.625 * 0.1;
  base.sim_seed = 11;
  {
    Rng rng(23);
    for (std::size_t i = 0; i < 9; ++i)
      base.start_offsets.push_back(Duration{base.skew * rng.uniform01()});
  }
  base.plan.behavior = byz::Behavior::kEquivocate;
  base.plan.f = 2;
  base.plan.magnitude = 0.10;
  base.plan.seed = 0xB12A;

  const auto score = [](const char* arm, const lab::TrialResult& r) {
    std::printf("\n%s:\n", arm);
    std::printf("  %-8s %-10s %-10s %-10s %-8s\n", "epoch", "verdict",
                "claimed", "realized", "qdrop");
    for (const lab::TrialEpochRow& row : r.rows)
      std::printf("  t=%-6.0f %-10s %-10.4f %-10.4f %-8zu\n", row.boundary,
                  row.detected ? "DETECTED" : (row.sound ? "sound" : "VIOLATED"),
                  row.claimed, row.realized,
                  row.quorum_dropped);
    std::printf("  epochs %zu, detected %zu, violations %zu, lied stamps "
                "%zu\n",
                r.epochs, r.detected_epochs, r.violations, r.lied_stamps);
  };

  // 1. Undefended: the coordinated lies contradict each other across the
  //    chords and every epoch collapses into a detection outage.
  lab::TrialConfig naive = base;
  const lab::TrialResult undefended = lab::run_trial(model, naive);
  if (!undefended.ok) {
    std::printf("naive trial failed: %s\n", undefended.failure.c_str());
    return 1;
  }
  score("naive estimator, f=2 equivocators", undefended);

  // 2. Defended: quorum-validate each m̃ls edge against a majority of
  //    interior-disjoint routes; the equivocators lose the vote.
  lab::TrialConfig defended = base;
  defended.epoch.sync.robust.quorum = 3;
  defended.epoch.sync.robust.quorum_tolerance = 0.002;
  const lab::TrialResult quorum = lab::run_trial(model, defended);
  if (!quorum.ok) {
    std::printf("quorum trial failed: %s\n", quorum.failure.c_str());
    return 1;
  }
  score("quorum-validated estimator, same adversary", quorum);

  // 3. The contract this example exists to show.
  const bool naive_loud = undefended.detected_epochs == undefended.epochs;
  const bool quorum_clean =
      quorum.detected_epochs == 0 && quorum.violations == 0 && quorum.sound;
  std::printf("\nnaive arm all-outage: %s;  quorum arm sound: %s\n",
              naive_loud ? "yes" : "NO", quorum_clean ? "yes" : "NO");
  return naive_loud && quorum_clean ? 0 : 1;
}
