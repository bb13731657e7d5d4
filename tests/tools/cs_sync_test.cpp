// End-to-end tests of the cs_sync binary (and of cs_syncd's error exits):
// the CLI must agree bit-for-bit with the in-process library on the same
// inputs, and its exit codes must follow the documented contract (0 ok, 1
// divergence, 2 usage, 3 error).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/synchronizer.hpp"
#include "io/views_io.hpp"
#include "support/builders.hpp"

#ifndef CS_SYNC_BIN
#error "CS_SYNC_BIN must point at the cs_sync executable"
#endif
#ifndef CS_SYNCD_BIN
#error "CS_SYNCD_BIN must point at the cs_syncd executable"
#endif
#ifndef CS_TEST_DATA_DIR
#error "CS_TEST_DATA_DIR must point at tests/data"
#endif

namespace cs {
namespace {

struct RunResult {
  int exit_code{-1};
  std::string output;
};

RunResult run_binary(const std::string& bin, const std::string& args) {
  const std::string cmd = bin + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunResult r;
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

RunResult run(const std::string& args) { return run_binary(CS_SYNC_BIN, args); }

std::string golden(const std::string& name) {
  return std::string(CS_TEST_DATA_DIR) + "/" + name;
}

TEST(CsSyncCli, SyncMatchesInProcessBitForBit) {
  // The acceptance round-trip: save views + model to disk, run the binary,
  // parse its corrections back, and compare against synchronize() exactly.
  SystemModel model = test::bounded_model(make_complete(4), 0.005, 0.03);
  const SimResult sim = test::run_ping_pong(model, 11, 0.2);
  const std::vector<View> views = sim.execution.views();

  const std::string dir = ::testing::TempDir();
  const std::string views_path = dir + "/cs_sync_test.views";
  const std::string model_path = dir + "/cs_sync_test.model";
  save_views_file(views_path, views);
  save_model_file(model_path, model);

  const RunResult r = run("sync " + views_path + " " + model_path);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  const SyncOutcome expected = synchronize(model, views);

  std::vector<double> cli_corrections(4, 0.0);
  double cli_precision = -1.0;
  std::size_t seen = 0;
  std::istringstream lines(r.output);
  std::string line;
  while (std::getline(lines, line)) {
    unsigned pid = 0;
    char val[64];
    if (std::sscanf(line.c_str(), "correction %u %63s", &pid, val) == 2) {
      ASSERT_LT(pid, 4u);
      cli_corrections[pid] = std::strtod(val, nullptr);
      ++seen;
    } else if (std::sscanf(line.c_str(), "precision %63s", val) == 1) {
      cli_precision = std::strtod(val, nullptr);
    }
  }
  ASSERT_EQ(seen, 4u) << r.output;
  // %.17g round-trips doubles exactly: bitwise equality, not tolerance.
  EXPECT_EQ(cli_precision, expected.optimal_precision.value());
  for (std::size_t p = 0; p < 4; ++p)
    EXPECT_EQ(cli_corrections[p], expected.corrections[p]) << "pid " << p;
}

TEST(CsSyncCli, ReplayGoldenSucceeds) {
  const RunResult r = run("replay " + golden("golden_clean.trace"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("replay matches the recording"),
            std::string::npos)
      << r.output;
}

TEST(CsSyncCli, ReplayJsonReportsMatch) {
  const RunResult r =
      run("replay " + golden("golden_faulty.trace") + " --json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"match\": true"), std::string::npos) << r.output;
}

TEST(CsSyncCli, DiffIdenticalTracesExitsZero) {
  const std::string path = golden("golden_clean.trace");
  const RunResult r = run("diff " + path + " " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(CsSyncCli, DiffDifferentTracesExitsOne) {
  const RunResult r = run("diff " + golden("golden_clean.trace") + " " +
                          golden("golden_faulty.trace"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("diff:"), std::string::npos) << r.output;
}

TEST(CsSyncCli, RecordReplayRoundTripInTempDir) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/cs_sync_test.trace";
  const RunResult rec =
      run("simulate " + trace_path + " --seed 9 --skew 0.1 --n 4");
  ASSERT_EQ(rec.exit_code, 0) << rec.output;

  const RunResult rep = run("replay " + trace_path);
  EXPECT_EQ(rep.exit_code, 0) << rep.output;

  // Re-record the replayed outcomes; a clean replay must diff clean.
  const std::string again = dir + "/cs_sync_test2.trace";
  const RunResult rer =
      run("replay " + trace_path + " --rerecord " + again);
  ASSERT_EQ(rer.exit_code, 0) << rer.output;
  const RunResult diff = run("diff " + trace_path + " " + again);
  EXPECT_EQ(diff.exit_code, 0) << diff.output;
}

TEST(CsSyncCli, MetricsJsonIsWellFormedEnough) {
  const RunResult r =
      run("metrics " + golden("golden_faulty.trace") + " --json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"tallies\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"counters\""), std::string::npos) << r.output;
}

TEST(CsSyncCli, ExitCodeContract) {
  EXPECT_EQ(run("frobnicate").exit_code, 2);           // unknown subcommand
  EXPECT_EQ(run("sync only_one_arg").exit_code, 2);    // wrong arity
  EXPECT_EQ(run("replay /nonexistent.trace").exit_code, 3);  // runtime error
  EXPECT_EQ(run("help").exit_code, 0);
}

TEST(CsSyncCli, VersionPrintsBannerAndExitsZero) {
  for (const char* spelling : {"--version", "version"}) {
    const RunResult r = run(spelling);
    EXPECT_EQ(r.exit_code, 0) << spelling;
    EXPECT_NE(r.output.find("chronosync"), std::string::npos) << r.output;
    // A version number, not just a name.
    EXPECT_NE(r.output.find_first_of("0123456789"), std::string::npos);
  }
}

TEST(CsSyncCli, HelpAfterAnySubcommandExitsZero) {
  // `cs_sync <sub> --help` is a documentation request, not a flag error:
  // exit 0 with the usage text on stdout, uniformly across subcommands.
  for (const char* sub :
       {"simulate", "sync", "replay", "diff", "metrics", "live"}) {
    const RunResult r = run(std::string(sub) + " --help");
    EXPECT_EQ(r.exit_code, 0) << sub << ": " << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << sub;
  }
}

TEST(CsSyncCli, LiveLoopbackConvergesAndMatchesOffline) {
  const RunResult r =
      run("live --n 6 --epochs 2 --seed 4 --json");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"converged\": true"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"all_match\": true"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"matches_offline\": true"), std::string::npos)
      << r.output;
}

TEST(CsSyncCli, LiveRecordedTraceReplays) {
  const std::string trace_path = ::testing::TempDir() + "/cs_live.trace";
  const RunResult live =
      run("live --n 4 --seed 8 --trace " + trace_path);
  ASSERT_EQ(live.exit_code, 0) << live.output;
  const RunResult rep = run("replay " + trace_path);
  EXPECT_EQ(rep.exit_code, 0) << rep.output;
}

TEST(CsSyncCli, LiveRejectsBadTransport) {
  EXPECT_EQ(run("live --transport carrier-pigeon").exit_code, 2);
}

TEST(CsSyncdCli, NegativeOrNanGraceIsAnError) {
  // Either would fail the watchdog's `grace > 0` arming test and leave a
  // leader with a lost report waiting forever.
  for (const char* grace : {"-1", "nan"}) {
    const RunResult r =
        run_binary(CS_SYNCD_BIN, std::string("--n 3 --grace ") + grace);
    EXPECT_EQ(r.exit_code, 3) << grace << ": " << r.output;
    EXPECT_NE(r.output.find("grace"), std::string::npos) << r.output;
  }
}

}  // namespace
}  // namespace cs
