// Reference cycle-mean algorithms: the oracles SHIFTS is checked against.
//
// SHIFTS itself runs one solver, Howard's policy iteration
// (graph/cycle_mean.hpp), whose policy also names the critical cycle.
// The paper prescribes Karp's O(nm) characterization [Karp, Disc. Math. 23
// (1978)]; it lives here with a binary-search (Lawler-style) alternative
// and an exhaustive enumerator, as independent references for the tests
// and the E7/E8 benches.  No test-framework dependency: the benches link
// this library too.
#pragma once

#include <cstddef>
#include <optional>

#include "graph/digraph.hpp"
#include "graph/floyd_warshall.hpp"

namespace cs {

class EpochArena;

/// Maximum cycle mean over all directed cycles; std::nullopt if acyclic.
/// Decomposes by SCC internally, so the graph need not be strongly
/// connected.  Exact up to float rounding.
std::optional<double> max_cycle_mean_karp(const Digraph& g);

/// max_cycle_mean_karp over the graph of the finite off-diagonal entries of
/// an m̃s matrix: the Karp value of SHIFTS' Ã^max on a bounded instance.
std::optional<double> max_cycle_mean_karp(const DistanceMatrix& ms);

/// Minimum cycle mean, by negation.
std::optional<double> min_cycle_mean_karp(const Digraph& g);

/// Binary search on mu using positive-cycle detection: mu* is the largest mu
/// such that weights (w - mu) still admit a non-negative cycle.  Converges
/// to `tolerance`; ablation comparator for Karp (bench E8).
std::optional<double> max_cycle_mean_bsearch(const Digraph& g,
                                             double tolerance = 1e-9);

/// Exhaustive enumeration of simple cycles (exponential, keep node_count
/// small).
std::optional<double> max_cycle_mean_brute(const Digraph& g);

/// Karp's maximum cycle mean of the complete graph on k >= 2 nodes with
/// arc weights w[i*k + j] (i != j), straight off the row-major matrix with
/// the walk table in `arena`.  Equals max_cycle_mean_karp(complete graph)
/// BIT FOR BIT: its walk table is a min-fold that visits each column's
/// candidates in the same ascending-source order with the same strict `<`.
/// The fold is register-blocked, four source rows per pass, so each
/// walk-table entry is loaded and stored once per four rows and the column
/// loop vectorizes.  docs/PERF.md §1 gives the bit-identity argument.
double max_cycle_mean_karp_dense(const double* w, std::size_t k,
                                 EpochArena& arena);

}  // namespace cs
