// The benchmark's workloads and the metric names they report. The names
// and units here are the ones BENCHMARK.json lists; main() refuses to print
// a result that misses one.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace grafbench {

/// End-to-end metrics (timed mode), name -> unit.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
/// Per-layer metrics (traced mode), name -> unit.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// Unit of a per-layer metric (throws on an unknown name).
std::string per_layer_unit(const std::string& name);

/// fleet_solve (steady = false) and fleet_steady (steady = true).
RunResult run_fleet(const Args& args, bool steady);
/// sim_surge.
RunResult run_surge(const Args& args);

}  // namespace grafbench
