#include "lab/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/table.hpp"

namespace cs::lab {
namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// JSON string literal: quotes, with the characters JSON cannot carry raw
/// escaped.  Spec describe() strings are plain ASCII today, so this changes
/// no existing bytes — it keeps the output well-formed if they ever grow
/// quotes or backslashes.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out += ch; break;
    }
  }
  out += '"';
  return out;
}

/// RFC 4180 CSV field: always quoted (these columns were always quoted),
/// embedded double quotes doubled.  Commas and newlines are then safe
/// inside the field.
std::string csv_field(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    out += ch;
    if (ch == '"') out += '"';
  }
  out += '"';
  return out;
}

void series_json(std::ostream& os, const char* indent, const char* name,
                 const SeriesStats& s) {
  os << indent << quoted(name) << ": {"
     << "\"count\": " << s.acc.count() << ", \"mean\": "
     << fmt(s.acc.count() == 0 ? 0.0 : s.acc.mean())
     << ", \"min\": " << fmt(s.acc.count() == 0 ? 0.0 : s.acc.min())
     << ", \"max\": " << fmt(s.acc.count() == 0 ? 0.0 : s.acc.max())
     << ", \"p50\": " << fmt(s.quantiles.quantile(0.50))
     << ", \"p95\": " << fmt(s.quantiles.quantile(0.95))
     << ", \"p99\": " << fmt(s.quantiles.quantile(0.99)) << "}";
}

}  // namespace

ReservoirQuantiles::ReservoirQuantiles(std::size_t capacity,
                                       std::uint64_t seed)
    : rng_(seed), capacity_(capacity == 0 ? 1 : capacity) {
  sample_.reserve(capacity_);
}

void ReservoirQuantiles::add(double x) {
  ++seen_;
  if (sample_.size() < capacity_) {
    sample_.push_back(x);
    return;
  }
  // Algorithm R: the new element replaces a uniformly random slot with
  // probability capacity / seen (one draw per element, always taken, so the
  // stream position of an element alone decides the RNG state).
  const std::uint64_t j = rng_.uniform_int(seen_);
  if (j < sample_.size()) sample_[j] = x;
}

double ReservoirQuantiles::quantile(double q) const {
  if (sample_.empty()) return 0.0;
  std::vector<double> v(sample_.begin(), sample_.end());
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size();
  if (m == 1) return v.front();
  // Hazen plotting position: pos = q*m - 0.5, clamped to the sample range.
  // Unlike the pos = q*(m-1) convention, tail quantiles saturate at the
  // extreme order statistics once the sample is too small to resolve them:
  // p95 of fewer than 10 samples and p99 of fewer than 50 report the max
  // observed instead of interpolating below a value that was actually seen.
  const double pos = q * static_cast<double>(m) - 0.5;
  if (pos <= 0.0) return v.front();
  if (pos >= static_cast<double>(m - 1)) return v.back();
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return v[i] * (1.0 - frac) + v[i + 1] * frac;
}

CampaignReport aggregate(const CampaignResult& result) {
  CampaignReport report;
  report.spec = result.spec;
  report.threads = result.threads;
  report.wall_seconds = result.wall_seconds;

  const CampaignSpec& spec = result.spec;
  report.cells.reserve(spec.cell_count());
  for (std::size_t t = 0; t < spec.topologies.size(); ++t)
    for (std::size_t m = 0; m < spec.mixes.size(); ++m)
      for (std::size_t f = 0; f < spec.faults.size(); ++f)
        for (std::size_t z = 0; z < spec.zone_arm_count(); ++z)
          for (std::size_t d = 0; d < spec.drift_arm_count(); ++d)
            for (std::size_t b = 0; b < spec.byz_arm_count(); ++b) {
              const std::size_t id = report.cells.size();
              CellStats cell(derive_task_seed(spec.seed, 0x9e1lu + id));
              cell.cell = id;
              cell.topology = spec.topologies[t].describe();
              cell.nodes = spec.topologies[t].node_count();
              cell.mix = spec.mixes[m].describe();
              cell.faults = spec.faults[f].describe();
              cell.faulty = spec.faults[f].faulty();
              cell.zones = spec.zone_arm(z).describe();
              cell.zoned = spec.zone_arm(z).zoned();
              cell.drift = spec.drift_arm(d).describe();
              cell.drifting = spec.drift_arm(d).drifting();
              cell.byz = spec.byz_arm(b).describe();
              cell.byzantine = spec.byz_arm(b).byzantine();
              report.cells.push_back(std::move(cell));
            }

  for (std::size_t i = 0; i < result.tasks.size(); ++i) {
    const TaskSpec& task = result.tasks[i];
    const TaskResult& r = result.results[i];
    CellStats& cell = report.cells.at(task.cell_id(spec));
    ++cell.tasks;
    ++report.tasks;
    cell.cpu_seconds += r.seconds;
    report.cpu_seconds += r.seconds;
    if (!r.ok) {
      ++cell.failures;
      ++report.failures;
      continue;
    }
    cell.events += r.events;
    cell.delivered += r.delivered;
    cell.dropped += r.dropped;
    report.events += r.events;
    cell.realized_max = std::max(cell.realized_max, r.realized);
    if (r.drifting) {
      cell.drift_epochs = std::max(cell.drift_epochs, r.drift_epochs);
      cell.drift_window_max = std::max(cell.drift_window_max, r.drift_window);
      cell.drift_bound_max = std::max(cell.drift_bound_max, r.drift_bound);
      cell.drift_slope_max = std::max(cell.drift_slope_max, r.drift_slope);
    }
    // Detected epochs fail report_ok on every trial arm, drift-only ones
    // included: a guard too thin for the drift is an outage like a liar.
    cell.byz_detected += r.byz_detected;
    if (r.byzantine) {
      cell.byz_epochs += r.byz_epochs;
      cell.byz_violations += r.byz_violations;
      cell.byz_lied_stamps += r.byz_lied_stamps;
      cell.byz_quorum_dropped =
          std::max(cell.byz_quorum_dropped, r.byz_quorum_dropped);
    }
    if (r.zoned) {
      cell.zone_count = std::max(cell.zone_count, r.zone_count);
      cell.zone_max_size = std::max(cell.zone_max_size, r.zone_max_size);
      cell.zone_a_max_max = std::max(cell.zone_a_max_max, r.zone_a_max_max);
      cell.realized_intra_max =
          std::max(cell.realized_intra_max, r.realized_intra);
      cell.realized_cross_max =
          std::max(cell.realized_cross_max, r.realized_cross);
    }
    if (r.bounded) {
      ++cell.bounded;
      ++report.bounded;
      cell.claimed.add(r.claimed);
      cell.optimality_gap.add(r.claimed - r.realized);
      if (r.claimed > 0.0) cell.ratio.add(r.realized / r.claimed);
      cell.thm46_max_gap = std::max(cell.thm46_max_gap, r.thm46_gap);
      if (!cell.faulty)
        report.thm46_max_gap =
            std::max(report.thm46_max_gap, r.thm46_gap);
      if (!r.sound) {
        ++cell.soundness_violations;
        ++report.soundness_violations;
      }
    }
  }
  return report;
}

bool report_ok(const CampaignReport& report, double tolerance) {
  if (report.failures != 0 || report.soundness_violations != 0) return false;
  for (const CellStats& cell : report.cells) {
    if (!cell.faulty && cell.thm46_max_gap > tolerance) return false;
    // A detected epoch (a liar, or a drift guard too thin) is an outage:
    // the pipeline (correctly) refused to certify, but the honest agents
    // got no corrections.  An arm only validates when its estimator rode
    // out every epoch.
    if (cell.byz_detected != 0) return false;
  }
  return true;
}

void write_report_json(std::ostream& os, const CampaignReport& report,
                       bool include_timing) {
  const CampaignSpec& spec = report.spec;
  os << "{\n  \"schema_version\": 1,\n  \"tool\": \"cs_lab\",\n"
     << "  \"campaign\": {\n"
     << "    \"name\": " << quoted(spec.name) << ",\n"
     << "    \"seed\": " << spec.seed << ",\n"
     << "    \"seeds_per_cell\": " << spec.seeds_per_cell << ",\n"
     << "    \"protocol\": " << quoted(spec.protocol.describe()) << ",\n"
     << "    \"skew\": " << fmt(spec.skew) << ",\n"
     << "    \"delay_scale\": " << fmt(spec.delay_scale) << ",\n"
     << "    \"cells\": " << report.cells.size() << ",\n"
     << "    \"tasks\": " << report.tasks << "\n  },\n"
     << "  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const CellStats& c = report.cells[i];
    os << "    {\n      \"cell\": " << c.cell << ",\n"
       << "      \"topology\": " << quoted(c.topology) << ",\n"
       << "      \"nodes\": " << c.nodes << ",\n"
       << "      \"mix\": " << quoted(c.mix) << ",\n"
       << "      \"faults\": " << quoted(c.faults) << ",\n"
       << "      \"zones\": " << quoted(c.zones) << ",\n"
       << "      \"zoned\": " << (c.zoned ? "true" : "false") << ",\n"
       << "      \"drift\": " << quoted(c.drift) << ",\n"
       << "      \"drifting\": " << (c.drifting ? "true" : "false") << ",\n"
       << "      \"tasks\": " << c.tasks << ",\n"
       << "      \"failures\": " << c.failures << ",\n"
       << "      \"bounded\": " << c.bounded << ",\n"
       << "      \"soundness_violations\": " << c.soundness_violations
       << ",\n"
       << "      \"thm46_max_gap\": " << fmt(c.thm46_max_gap) << ",\n";
    series_json(os, "      ", "claimed_precision", c.claimed);
    os << ",\n";
    series_json(os, "      ", "realized_over_claimed", c.ratio);
    os << ",\n";
    series_json(os, "      ", "optimality_gap", c.optimality_gap);
    os << ",\n      \"realized_max\": " << fmt(c.realized_max) << ",\n"
       << "      \"zone_count\": " << c.zone_count << ",\n"
       << "      \"zone_max_size\": " << c.zone_max_size << ",\n"
       << "      \"zone_a_max_max\": " << fmt(c.zone_a_max_max) << ",\n"
       << "      \"realized_intra_max\": " << fmt(c.realized_intra_max)
       << ",\n"
       << "      \"realized_cross_max\": " << fmt(c.realized_cross_max)
       << ",\n"
       << "      \"drift_epochs\": " << c.drift_epochs << ",\n"
       << "      \"drift_window_max\": " << fmt(c.drift_window_max) << ",\n"
       << "      \"drift_bound_max\": " << fmt(c.drift_bound_max) << ",\n"
       << "      \"drift_slope_max\": " << fmt(c.drift_slope_max) << ",\n"
       << "      \"byz\": " << quoted(c.byz) << ",\n"
       << "      \"byzantine\": " << (c.byzantine ? "true" : "false")
       << ",\n"
       << "      \"byz_epochs\": " << c.byz_epochs << ",\n"
       << "      \"byz_detected\": " << c.byz_detected << ",\n"
       << "      \"byz_violations\": " << c.byz_violations << ",\n"
       << "      \"byz_lied_stamps\": " << c.byz_lied_stamps << ",\n"
       << "      \"byz_quorum_dropped\": " << c.byz_quorum_dropped << ",\n"
       << "      \"events\": " << c.events << ",\n"
       << "      \"delivered\": " << c.delivered << ",\n"
       << "      \"dropped\": " << c.dropped << "\n    }"
       << (i + 1 < report.cells.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"totals\": {\n"
     << "    \"tasks\": " << report.tasks << ",\n"
     << "    \"failures\": " << report.failures << ",\n"
     << "    \"bounded\": " << report.bounded << ",\n"
     << "    \"soundness_violations\": " << report.soundness_violations
     << ",\n"
     << "    \"thm46_max_gap\": " << fmt(report.thm46_max_gap) << ",\n"
     << "    \"events\": " << report.events << "\n  }";
  if (include_timing) {
    os << ",\n  \"timing\": {\n"
       << "    \"threads\": " << report.threads << ",\n"
       << "    \"wall_seconds\": " << fmt(report.wall_seconds) << ",\n"
       << "    \"cpu_seconds\": " << fmt(report.cpu_seconds) << ",\n"
       << "    \"tasks_per_second\": "
       << fmt(report.wall_seconds > 0.0
                  ? static_cast<double>(report.tasks) / report.wall_seconds
                  : 0.0)
       << ",\n    \"events_per_second\": "
       << fmt(report.wall_seconds > 0.0
                  ? static_cast<double>(report.events) / report.wall_seconds
                  : 0.0)
       << ",\n    \"parallel_efficiency\": "
       << fmt(report.wall_seconds > 0.0 && report.threads > 0
                  ? report.cpu_seconds /
                        (report.wall_seconds *
                         static_cast<double>(report.threads))
                  : 0.0)
       << "\n  }";
  }
  os << "\n}\n";
}

void write_report_csv(std::ostream& os, const CampaignReport& report) {
  // Axis columns append at the end (zones, then drift): the first six
  // columns are a pinned interface consumed by downstream tooling (and the
  // format tests).
  os << "cell,topology,nodes,mix,faults,tasks,failures,bounded,"
        "soundness_violations,thm46_max_gap,claimed_mean,claimed_p50,"
        "claimed_p95,claimed_p99,ratio_mean,ratio_p95,gap_p50,gap_p95,"
        "gap_p99,realized_max,events,delivered,dropped,zones,zone_count,"
        "zone_max_size,zone_a_max_max,realized_intra_max,"
        "realized_cross_max,drift,drift_epochs,drift_window_max,"
        "drift_bound_max,drift_slope_max,byz,byz_epochs,byz_detected,"
        "byz_violations,byz_lied_stamps,byz_quorum_dropped\n";
  for (const CellStats& c : report.cells) {
    os << c.cell << ',' << csv_field(c.topology) << ',' << c.nodes << ','
       << csv_field(c.mix) << ',' << csv_field(c.faults) << ',' << c.tasks
       << ','
       << c.failures << ',' << c.bounded << ',' << c.soundness_violations
       << ',' << fmt(c.thm46_max_gap) << ','
       << fmt(c.claimed.acc.count() == 0 ? 0.0 : c.claimed.acc.mean()) << ','
       << fmt(c.claimed.quantiles.quantile(0.50)) << ','
       << fmt(c.claimed.quantiles.quantile(0.95)) << ','
       << fmt(c.claimed.quantiles.quantile(0.99)) << ','
       << fmt(c.ratio.acc.count() == 0 ? 0.0 : c.ratio.acc.mean()) << ','
       << fmt(c.ratio.quantiles.quantile(0.95)) << ','
       << fmt(c.optimality_gap.quantiles.quantile(0.50)) << ','
       << fmt(c.optimality_gap.quantiles.quantile(0.95)) << ','
       << fmt(c.optimality_gap.quantiles.quantile(0.99)) << ','
       << fmt(c.realized_max) << ',' << c.events << ',' << c.delivered << ','
       << c.dropped << ',' << csv_field(c.zones) << ',' << c.zone_count
       << ',' << c.zone_max_size << ',' << fmt(c.zone_a_max_max) << ','
       << fmt(c.realized_intra_max) << ',' << fmt(c.realized_cross_max)
       << ',' << csv_field(c.drift) << ',' << c.drift_epochs << ','
       << fmt(c.drift_window_max) << ',' << fmt(c.drift_bound_max) << ','
       << fmt(c.drift_slope_max) << ',' << csv_field(c.byz) << ','
       << c.byz_epochs << ',' << c.byz_detected << ',' << c.byz_violations
       << ',' << c.byz_lied_stamps << ',' << c.byz_quorum_dropped << '\n';
  }
}

void print_report(std::ostream& os, const CampaignReport& report,
                  bool include_timing) {
  Table table({"cell", "topology", "mix", "faults", "zones", "drift", "byz",
               "tasks", "fail", "bounded", "A^max p50", "ratio p95",
               "thm4.6 gap"});
  for (const CellStats& c : report.cells)
    table.add_row({std::to_string(c.cell), c.topology, c.mix, c.faults,
                   c.zones, c.drift, c.byz, std::to_string(c.tasks),
                   std::to_string(c.failures), std::to_string(c.bounded),
                   Table::num(c.claimed.quantiles.quantile(0.50), 6),
                   Table::num(c.ratio.quantiles.quantile(0.95), 3),
                   Table::num(c.thm46_max_gap, 12)});
  table.print(os);
  os << "\ncampaign '" << report.spec.name << "': " << report.tasks
     << " tasks, " << report.failures << " failures, "
     << report.soundness_violations << " soundness violations, "
     << "max Thm 4.6 gap " << fmt(report.thm46_max_gap)
     << " (fault-free cells)\n";
  if (include_timing)
    os << "threads " << report.threads << ", wall "
       << Table::num(report.wall_seconds, 2) << " s, cpu "
       << Table::num(report.cpu_seconds, 2) << " s, "
       << Table::num(report.wall_seconds > 0.0
                         ? static_cast<double>(report.events) /
                               report.wall_seconds
                         : 0.0,
                     0)
       << " events/s, parallel efficiency "
       << Table::num(report.wall_seconds > 0.0 && report.threads > 0
                         ? report.cpu_seconds /
                               (report.wall_seconds *
                                static_cast<double>(report.threads))
                         : 0.0,
                     2)
       << "\n";
}

}  // namespace cs::lab
