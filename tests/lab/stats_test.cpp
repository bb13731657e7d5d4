// Aggregation and reporting: streaming quantiles, per-cell folds, the
// report_ok validation gate, and the byte-identical-output regression — a
// campaign aggregated after a serial run and after a parallel run must
// render the exact same bytes of (timing-free) JSON and CSV.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lab/stats.hpp"

namespace cs::lab {
namespace {

CampaignSpec two_cell_campaign() {
  std::istringstream is(
      "chronosync-campaign v1\n"
      "name stats\n"
      "seed 31\n"
      "seeds 3\n"
      "protocol pingpong 3\n"
      "skew 0.2\n"
      "delay-scale 0.05\n"
      "topology ring 4\n"
      "mix bounds 0.002 0.008\n"
      "faults none\n"
      "faults drop 0.3\n");
  return load_campaign(is);
}

TEST(Reservoir, ExactUnderCapacity) {
  ReservoirQuantiles q(8, 1);
  for (const double x : {5.0, 1.0, 3.0, 2.0, 4.0}) q.add(x);
  EXPECT_TRUE(q.exact());
  EXPECT_EQ(q.count(), 5u);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 5.0);
}

TEST(Reservoir, EmptyQuantileIsZero) {
  const ReservoirQuantiles q(8, 1);
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 0.0);
}

TEST(Reservoir, SampledBeyondCapacityStaysInRange) {
  ReservoirQuantiles q(32, 7);
  for (int i = 0; i < 10000; ++i) q.add(static_cast<double>(i % 100));
  EXPECT_FALSE(q.exact());
  EXPECT_EQ(q.count(), 10000u);
  EXPECT_GE(q.quantile(0.0), 0.0);
  EXPECT_LE(q.quantile(1.0), 99.0);
  // A uniform 0..99 stream should put the median loosely near 50.
  EXPECT_GT(q.quantile(0.5), 20.0);
  EXPECT_LT(q.quantile(0.5), 80.0);
}

TEST(Reservoir, DeterministicForEqualSeeds) {
  ReservoirQuantiles a(16, 3), b(16, 3);
  for (int i = 0; i < 5000; ++i) {
    a.add(static_cast<double>(i));
    b.add(static_cast<double>(i));
  }
  for (const double q : {0.1, 0.5, 0.9})
    EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q));
}

TEST(Reservoir, SingleSampleIsEveryQuantile) {
  ReservoirQuantiles q(8, 1);
  q.add(7.25);
  for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(q.quantile(p), 7.25);
}

TEST(Reservoir, TailQuantilesClampToMaxWhenSampleIsSmall) {
  // p95 with fewer than 10 samples (and p99 with fewer than 50) cannot be
  // resolved by interpolation; they must report the max observed, never a
  // value below something actually seen.
  ReservoirQuantiles five(1024, 1);
  for (const double x : {5.0, 1.0, 3.0, 2.0, 4.0}) five.add(x);
  EXPECT_DOUBLE_EQ(five.quantile(0.95), 5.0);
  EXPECT_DOUBLE_EQ(five.quantile(0.99), 5.0);

  ReservoirQuantiles fifty(1024, 1);
  for (int i = 1; i <= 50; ++i) fifty.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(fifty.quantile(0.99), 50.0);
  // With 10+ samples p95 starts interpolating strictly inside the range.
  EXPECT_LT(fifty.quantile(0.95), 50.0);
  EXPECT_GT(fifty.quantile(0.95), 47.0);
}

TEST(Reservoir, FewerSamplesThanCapacityMatchesDirectQuantiles) {
  // n < k (reservoir never sampled): quantiles are exact over the inputs.
  ReservoirQuantiles q(1024, 9);
  for (int i = 1; i <= 20; ++i) q.add(static_cast<double>(i));
  EXPECT_TRUE(q.exact());
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 10.5);  // Hazen: (v[9]+v[10])/2
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 20.0);
}

/// Minimal RFC 4180 line parser: splits on unquoted commas, strips field
/// quotes, un-doubles embedded quotes.
std::vector<std::string> parse_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += ch;
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  fields.push_back(cur);
  return fields;
}

TEST(Reports, CsvRoundTripsCommasAndQuotesInSpecStrings) {
  // Hand-built report whose describe() strings carry every character CSV
  // treats specially; the row must parse back field-for-field.
  CampaignReport report;
  CellStats cell(1);
  cell.cell = 0;
  cell.topology = "ring, 5 \"wide\"";
  cell.mix = "bounds 0.002,0.008";
  cell.faults = "say \"hi\", twice";
  cell.nodes = 5;
  cell.tasks = 3;
  report.cells.push_back(std::move(cell));

  std::ostringstream os;
  write_report_csv(os, report);
  std::istringstream is(os.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row));

  const std::vector<std::string> head = parse_csv_line(header);
  const std::vector<std::string> fields = parse_csv_line(row);
  ASSERT_EQ(fields.size(), head.size());
  EXPECT_EQ(fields[0], "0");
  EXPECT_EQ(fields[1], "ring, 5 \"wide\"");
  EXPECT_EQ(fields[2], "5");
  EXPECT_EQ(fields[3], "bounds 0.002,0.008");
  EXPECT_EQ(fields[4], "say \"hi\", twice");
  EXPECT_EQ(fields[5], "3");
}

TEST(Aggregate, FoldsTasksIntoDeclaredCells) {
  const CampaignSpec spec = two_cell_campaign();
  const CampaignResult result = run_campaign(spec, {});
  const CampaignReport report = aggregate(result);
  ASSERT_EQ(report.cells.size(), 2u);
  EXPECT_EQ(report.tasks, 6u);
  EXPECT_EQ(report.cells[0].tasks, 3u);
  EXPECT_EQ(report.cells[1].tasks, 3u);
  EXPECT_FALSE(report.cells[0].faulty);
  EXPECT_TRUE(report.cells[1].faulty);
  EXPECT_EQ(report.cells[0].dropped, 0u);
  EXPECT_GT(report.cells[1].dropped, 0u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_TRUE(report_ok(report));
}

TEST(Aggregate, ReportOkGates) {
  const CampaignSpec spec = two_cell_campaign();
  CampaignReport report = aggregate(run_campaign(spec, {}));
  EXPECT_TRUE(report_ok(report));

  CampaignReport failed = report;
  failed.failures = 1;
  EXPECT_FALSE(report_ok(failed));

  CampaignReport unsound = report;
  unsound.soundness_violations = 1;
  EXPECT_FALSE(report_ok(unsound));

  CampaignReport gapped = report;
  gapped.cells[0].thm46_max_gap = 1e-3;  // fault-free cell: gate trips
  EXPECT_FALSE(report_ok(gapped));
  gapped.cells[0].thm46_max_gap = 0.0;
  gapped.cells[1].thm46_max_gap = 1e-3;  // faulty cell: exempt
  EXPECT_TRUE(report_ok(gapped));
}

TEST(Reports, JsonAndCsvAreByteIdenticalAcrossThreadCounts) {
  // Satellite regression for the determinism contract: aggregate a serial
  // and a 4-thread run of the same campaign and byte-compare the rendered
  // timing-free JSON and the CSV.
  const CampaignSpec spec = two_cell_campaign();
  RunOptions serial;
  serial.threads = 1;
  RunOptions parallel;
  parallel.threads = 4;
  const CampaignReport a = aggregate(run_campaign(spec, serial));
  const CampaignReport b = aggregate(run_campaign(spec, parallel));

  std::ostringstream ja, jb, ca, cb;
  write_report_json(ja, a, /*include_timing=*/false);
  write_report_json(jb, b, /*include_timing=*/false);
  EXPECT_EQ(ja.str(), jb.str());
  write_report_csv(ca, a);
  write_report_csv(cb, b);
  EXPECT_EQ(ca.str(), cb.str());
}

TEST(Reports, TimingSectionOnlyWhenRequested) {
  const CampaignReport report =
      aggregate(run_campaign(two_cell_campaign(), {}));
  std::ostringstream with, without;
  write_report_json(with, report, /*include_timing=*/true);
  write_report_json(without, report, /*include_timing=*/false);
  EXPECT_NE(with.str().find("\"timing\""), std::string::npos);
  EXPECT_EQ(without.str().find("\"timing\""), std::string::npos);
  EXPECT_EQ(without.str().find("seconds"), std::string::npos);
}

TEST(Reports, CsvHasOneRowPerCellAndStableHeader) {
  const CampaignReport report =
      aggregate(run_campaign(two_cell_campaign(), {}));
  std::ostringstream os;
  write_report_csv(os, report);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line.rfind("cell,topology,nodes,mix,faults,tasks", 0), 0u);
  std::size_t rows = 0;
  while (std::getline(is, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, report.cells.size());
}

TEST(Reports, PrintReportMentionsTheSummaryLine) {
  const CampaignReport report =
      aggregate(run_campaign(two_cell_campaign(), {}));
  std::ostringstream os;
  print_report(os, report, /*include_timing=*/false);
  EXPECT_NE(os.str().find("campaign 'stats'"), std::string::npos);
  EXPECT_NE(os.str().find("Thm 4.6 gap"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Zones axis

CampaignSpec zoned_cells_campaign() {
  std::istringstream is(
      "chronosync-campaign v1\n"
      "name zstats\n"
      "seed 41\n"
      "seeds 2\n"
      "protocol pingpong 3\n"
      "skew 0.2\n"
      "delay-scale 0.05\n"
      "topology dc 1 2 3\n"
      "mix bounds 0.002 0.008\n"
      "faults none\n"
      "zones none\n"
      "zones natural\n");
  return load_campaign(is);
}

TEST(AggregateZones, CellsSplitByZoneArmInOdometerOrder) {
  const CampaignSpec spec = zoned_cells_campaign();
  const CampaignReport report = aggregate(run_campaign(spec, {}));
  ASSERT_EQ(report.cells.size(), 2u);
  EXPECT_EQ(report.cells[0].zones, "none");
  EXPECT_FALSE(report.cells[0].zoned);
  EXPECT_EQ(report.cells[0].zone_count, 0u);
  EXPECT_EQ(report.cells[1].zones, "natural");
  EXPECT_TRUE(report.cells[1].zoned);
  EXPECT_GT(report.cells[1].zone_count, 1u);
  EXPECT_GT(report.cells[1].zone_max_size, 0u);
  EXPECT_EQ(report.cells[0].tasks, 2u);
  EXPECT_EQ(report.cells[1].tasks, 2u);
  // The zoned arm's per-zone Thm 4.6 equality feeds the standard gate.
  EXPECT_TRUE(report_ok(report));
}

TEST(AggregateZones, ZoneColumnsAppendAfterThePinnedPrefix) {
  const CampaignReport report =
      aggregate(run_campaign(zoned_cells_campaign(), {}));
  std::ostringstream os;
  write_report_csv(os, report);
  std::istringstream is(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  // The pinned downstream interface stays put; zone columns go at the end.
  EXPECT_EQ(header.rfind("cell,topology,nodes,mix,faults,tasks", 0), 0u);
  EXPECT_NE(header.find(",zones,zone_count,zone_max_size,zone_a_max_max,"
                        "realized_intra_max,realized_cross_max"),
            std::string::npos);
  const std::vector<std::string> head = parse_csv_line(header);
  std::string row;
  while (std::getline(is, row)) {
    if (row.empty()) continue;
    EXPECT_EQ(parse_csv_line(row).size(), head.size());
  }

  std::ostringstream js;
  write_report_json(js, report, /*include_timing=*/false);
  EXPECT_NE(js.str().find("\"zones\": \"natural\""), std::string::npos);
  EXPECT_NE(js.str().find("\"realized_cross_max\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Byzantine axis

CampaignSpec byz_cells_campaign() {
  // A consistent lie-const liar is gauge-equivalent to an honest agent
  // whose clock started earlier (Lemma 4.1), so the adversarial cell stays
  // clean — the test exercises the byz bookkeeping, not detection.
  std::istringstream is(
      "chronosync-campaign v1\n"
      "name bstats\n"
      "seed 46\n"
      "seeds 2\n"
      "protocol pingpong 3\n"
      "skew 0.25\n"
      "delay-scale 0.05\n"
      "topology complete 4\n"
      "mix bounds 0.001 0.101\n"
      "faults none\n"
      "byz none\n"
      "byz lie-const f=1 mag=0.01\n");
  return load_campaign(is);
}

TEST(AggregateByz, CellsSplitByByzArmInOdometerOrder) {
  const CampaignSpec spec = byz_cells_campaign();
  const CampaignReport report = aggregate(run_campaign(spec, {}));
  ASSERT_EQ(report.cells.size(), 2u);
  EXPECT_EQ(report.cells[0].byz, "none");
  EXPECT_FALSE(report.cells[0].byzantine);
  EXPECT_EQ(report.cells[0].byz_epochs, 0u);
  EXPECT_EQ(report.cells[0].byz_lied_stamps, 0u);
  EXPECT_TRUE(report.cells[1].byzantine);
  EXPECT_EQ(report.cells[1].tasks, 2u);
  // Trial schedule: 3 epoch boundaries per task, summed over the cell.
  EXPECT_EQ(report.cells[1].byz_epochs, 6u);
  EXPECT_GT(report.cells[1].byz_lied_stamps, 0u);
}

TEST(AggregateByz, ByzColumnsAppendAfterTheDriftBlock) {
  const CampaignReport report =
      aggregate(run_campaign(byz_cells_campaign(), {}));
  std::ostringstream os;
  write_report_csv(os, report);
  std::istringstream is(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  // The pinned downstream interface stays put; byz columns go at the end.
  EXPECT_EQ(header.rfind("cell,topology,nodes,mix,faults,tasks", 0), 0u);
  EXPECT_NE(header.find(",byz,byz_epochs,byz_detected,byz_violations,"
                        "byz_lied_stamps,byz_quorum_dropped"),
            std::string::npos);
  const std::vector<std::string> head = parse_csv_line(header);
  std::string row;
  while (std::getline(is, row)) {
    if (row.empty()) continue;
    EXPECT_EQ(parse_csv_line(row).size(), head.size());
  }

  std::ostringstream js;
  write_report_json(js, report, /*include_timing=*/false);
  EXPECT_NE(js.str().find("\"byzantine\": true"), std::string::npos);
  EXPECT_NE(js.str().find("\"byz_lied_stamps\""), std::string::npos);
}

}  // namespace
}  // namespace cs::lab
