// Statistical aggregation of campaign results.
//
// Aggregates per-task results into per-cell statistics — realized-vs-
// claimed precision ratios, optimality-gap quantiles (p50/p95/p99 via a
// streaming reservoir), Theorem 4.6 residuals, throughput and failure
// counts — and renders them as JSON, CSV and a stdout table.
//
// Output determinism: aggregation walks results in task-index order with a
// reservoir seeded from (campaign seed, cell id), so every deterministic
// field is byte-identical across thread counts.  Wall-clock-derived fields
// (events/s, seconds) live exclusively in the JSON "timing" object, which
// `include_timing = false` omits; the CSV carries deterministic columns
// only.  docs/LAB.md documents both schemas.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/stats.hpp"
#include "lab/campaign.hpp"

namespace cs::lab {

/// Streaming quantile estimator: algorithm-R reservoir sampling with a
/// deterministic Rng, exact while count <= capacity (the common per-cell
/// case), a uniform sample beyond.  quantile() copies and sorts.
class ReservoirQuantiles {
 public:
  explicit ReservoirQuantiles(std::size_t capacity = 1024,
                              std::uint64_t seed = 1);

  void add(double x);
  std::size_t count() const { return seen_; }
  bool exact() const { return seen_ <= capacity_; }

  /// Quantile over the reservoir at the Hazen plotting position
  /// (pos = q*m - 0.5, linear interpolation, clamped to the observed
  /// range), q in [0, 1]; 0 when empty.  Tail quantiles the sample cannot
  /// resolve clamp to the extreme order statistic: p95 of fewer than 10
  /// samples and p99 of fewer than 50 report the observed max rather than
  /// interpolating below it.
  double quantile(double q) const;

 private:
  Rng rng_;
  std::size_t capacity_{0};
  std::size_t seen_{0};
  std::vector<double> sample_;
};

/// Distribution summary of one per-cell series.
struct SeriesStats {
  Accumulator acc;
  ReservoirQuantiles quantiles;

  explicit SeriesStats(std::uint64_t seed) : quantiles(1024, seed) {}
  void add(double x) {
    acc.add(x);
    quantiles.add(x);
  }
};

/// Aggregated statistics of one campaign cell
/// (topology x mix x faults x zones x drift x byz).
struct CellStats {
  std::size_t cell{0};
  std::string topology;
  std::string mix;
  std::string faults;
  std::string zones;     ///< zones-axis arm ("none" on dense arms)
  std::string drift;     ///< drift-axis arm ("none" on drift-free arms)
  std::string byz;       ///< byz-axis arm ("none" on honest arms)
  bool faulty{false};
  bool zoned{false};     ///< zone-hierarchical arm (Thm 5.5/5.6 composition)
  bool drifting{false};  ///< drifting-oscillator arm (src/drift)
  bool byzantine{false}; ///< Byzantine-adversary arm (src/byz)
  std::size_t nodes{0};

  std::size_t tasks{0};
  std::size_t failures{0};
  std::size_t bounded{0};
  std::size_t soundness_violations{0};
  double thm46_max_gap{0.0};

  SeriesStats claimed;        ///< Ã^max over bounded tasks
  SeriesStats ratio;          ///< realized / claimed (bounded, claimed > 0)
  SeriesStats optimality_gap; ///< claimed - realized (bounded tasks)
  double realized_max{0.0};

  // Zones-axis columns (zero on dense arms).
  std::size_t zone_count{0};        ///< max zone count over the cell's tasks
  std::size_t zone_max_size{0};     ///< largest zone seen
  double zone_a_max_max{0.0};       ///< max per-zone Ã^max_Z
  double realized_intra_max{0.0};   ///< max within-zone realized discrepancy
  double realized_cross_max{0.0};   ///< max cross-zone realized discrepancy

  // Drift-axis columns (zero on drift-free arms).  On a drifting arm the
  // soundness gate compares realized against drift_bound_max rather than
  // claimed alone; see campaign.hpp's TaskResult drift block.
  std::size_t drift_epochs{0};      ///< max re-sync epochs over tasks
  double drift_window_max{0.0};     ///< max effective estimation window W
  double drift_bound_max{0.0};      ///< max drift-adjusted bound over tasks
  double drift_slope_max{0.0};      ///< max fitted |rate difference| seen

  // Byz-axis columns (zero on honest arms).  Soundness is scored over the
  // honest subgraph (campaign.hpp's TaskResult byz block); byz_detected
  // epochs — on any trial arm, drift-only ones included — are
  // synchronization outages and fail report_ok like violations.
  std::size_t byz_epochs{0};          ///< total epochs over the cell's tasks
  std::size_t byz_detected{0};        ///< total detection outages (any arm)
  std::size_t byz_violations{0};      ///< total unsound honest-claim epochs
  std::size_t byz_lied_stamps{0};     ///< total corrupted timestamps
  std::size_t byz_quorum_dropped{0};  ///< max quorum-removed edges per epoch

  std::size_t events{0};
  std::size_t delivered{0};
  std::size_t dropped{0};
  double cpu_seconds{0.0};    ///< timing-only

  explicit CellStats(std::uint64_t seed)
      : claimed(seed), ratio(seed ^ 1), optimality_gap(seed ^ 2) {}
};

struct CampaignReport {
  CampaignSpec spec;
  std::vector<CellStats> cells;

  std::size_t tasks{0};
  std::size_t failures{0};
  std::size_t bounded{0};
  std::size_t soundness_violations{0};
  double thm46_max_gap{0.0};        ///< over fault-free cells
  std::size_t events{0};

  std::size_t threads{1};           ///< timing-only
  double wall_seconds{0.0};         ///< timing-only
  double cpu_seconds{0.0};          ///< timing-only
};

/// Folds per-task results into per-cell statistics (task-index order).
CampaignReport aggregate(const CampaignResult& result);

/// True iff the campaign validates: no failed tasks, no soundness
/// violations anywhere, no detection outages on any drift or Byzantine
/// arm (a detected epoch means honest agents got no corrections), and
/// Theorem 4.6 equality
/// within `tolerance` on every bounded task of every fault-free cell.
bool report_ok(const CampaignReport& report,
               double tolerance = kThm46Tolerance);

/// JSON report; `include_timing = false` omits every wall-clock-derived
/// field for byte-identical output across thread counts.
void write_report_json(std::ostream& os, const CampaignReport& report,
                       bool include_timing = true);

/// CSV report: one row per cell, deterministic columns only.  String
/// columns (topology, mix, faults) are RFC 4180 fields: always quoted,
/// embedded double quotes doubled, so commas or quotes in a describe()
/// string survive a round-trip through standard CSV parsers.
void write_report_csv(std::ostream& os, const CampaignReport& report);

/// Human-readable stdout summary table.
void print_report(std::ostream& os, const CampaignReport& report,
                  bool include_timing = true);

}  // namespace cs::lab
