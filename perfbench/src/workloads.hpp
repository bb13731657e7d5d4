// The four workloads.  Each fills `values` with every end-to-end metric of
// BENCHMARK.json (untraced runs) or the per-layer metrics it exercises
// (traced runs); main.cpp emits them in BENCHMARK.json order and reports a
// per-layer metric of a layer the workload never calls as 0.
#pragma once

#include <map>
#include <string>

#include "cli.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

using Values = std::map<std::string, double>;

/// Worker threads handed to the pipeline (SyncOptions::threads) outside
/// serve; the measured machine has 4 cores.
inline constexpr std::size_t kSyncThreads = 4;

void run_fabric(const Options& options, Report& report, Tracer& tracer,
                Values& values);
void run_mesh(const Options& options, Report& report, Tracer& tracer,
              Values& values);
void run_resync(const Options& options, Report& report, Tracer& tracer,
                Values& values);
void run_serve(const Options& options, Report& report, Tracer& tracer,
               Values& values);

}  // namespace perfbench
