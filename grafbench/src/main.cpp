// grafbench: the repository benchmark. Usage:
//
//   grafbench --workload <fleet_solve|fleet_steady|sim_surge> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints progress and operation accounting to stderr and, as the last line
// of stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes a span file). Exits non-zero on bad arguments or when any
// output check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "common/thread_pool.h"
#include "workloads.h"

namespace grafbench {

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m{
      {"setup_s", "s"},         {"updates_per_s", "1/s"},    {"step_p90_ms", "ms"},
      {"step_tail_ms", "ms"},   {"plan_cores", "cores"},     {"sim_s_per_wall_s", "s/s"},
      {"p99_ms", "ms"},         {"core_s", "core-s"},        {"peak_rss_mb", "MiB"}};
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m{
      {"nn.matmul_gflops", "GFLOP/s"},
      {"gnn.forward_us", "us"},
      {"gnn.rows_fwd_bwd_us", "us"},
      {"gnn.surrogate_forward_us", "us"},
      {"gnn.train_s", "s"},
      {"gnn.distill_s", "s"},
      {"core.solver_iterations_per_plan", "count"},
      {"core.solver_iter_us_p50", "us"},
      {"core.solve_batch_ms", "ms"},
      {"core.plan_us_p50", "us"},
      {"core.plan_cache_hit_ratio", "ratio"},
      {"core.plan_cache_hit_us", "us"},
      {"core.coast_ratio", "ratio"},
      {"core.surrogate_fast_hit_ratio", "ratio"},
      {"core.tiered_solve_ms", "ms"},
      {"core.control_s", "s"},
      {"core.solves", "count"},
      {"fleet.push_us", "us"},
      {"fleet.step_self_ms", "ms"},
      {"fleet.notifications", "count"},
      {"fleet.batched_tenants_per_group", "count"},
      {"forecast.gate_ns", "ns"},
      {"serve.publish_promote_ms", "ms"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.event_us_p50", "us"},
      {"sim.run_self_s", "s"},
      {"sim.instance_creations", "count"},
      {"setup.collect_s", "s"},
      {"trace.overhead_pct", "%"}};
  return m;
}

std::string per_layer_unit(const std::string& name) {
  for (const auto& [n, unit] : per_layer_metrics())
    if (n == name) return unit;
  throw std::logic_error("unknown per-layer metric " + name);
}

namespace {

Args parse(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || kv.size() != 4 || !kv.count("--workload") || !kv.count("--seed") ||
      !kv.count("--seconds") || !kv.count("--trace"))
    throw std::invalid_argument(
        "usage: grafbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  a.workload = kv["--workload"];
  a.seed = std::stoull(kv["--seed"]);
  a.seconds = std::stod(kv["--seconds"]);
  const std::string trace = kv["--trace"];
  if (trace != "0" && trace != "1") throw std::invalid_argument("--trace must be 0 or 1");
  a.trace = trace == "1";
  if (!(a.seconds > 0.0 && a.seconds <= 3600.0))
    throw std::invalid_argument("--seconds out of range");
  return a;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace grafbench

int main(int argc, char** argv) {
  using namespace grafbench;
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "grafbench: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "[grafbench] workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " threads=" << graf::configured_threads() << "\n";

  RunResult r;
  try {
    if (args.workload == "fleet_solve") {
      r = run_fleet(args, false);
    } else if (args.workload == "fleet_steady") {
      r = run_fleet(args, true);
    } else if (args.workload == "sim_surge") {
      r = run_surge(args);
    } else {
      std::cerr << "grafbench: unknown workload " << args.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "grafbench: run aborted: " << e.what() << "\n";
    return 1;
  }

  // Every metric of the selected mode, in the canonical order, each once.
  const auto& wanted = args.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string metrics;
  for (const auto& [name, unit] : wanted) {
    const Metric* found = nullptr;
    for (const Metric& m : r.metrics)
      if (m.name == name) found = &m;
    if (found == nullptr || found->unit != unit || !std::isfinite(found->value)) {
      r.violations.push_back("metric " + name + " missing, non-finite or mis-united");
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + json_number(found->value) +
               ", \"unit\": \"" + unit + "\"}";
  }
  if (r.metrics.size() != wanted.size())
    r.violations.push_back("unexpected extra metrics");
  if (r.attempted == 0) r.violations.push_back("no operation attempted");
  for (const std::string& v : r.violations) std::cerr << "CHECK FAILED: " << v << "\n";
  const bool correct = r.violations.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}
