// Shared pieces of the repository benchmark: arguments, timing, quantiles,
// the in-memory span recorder of the traced mode, result reporting, and the
// analytic latency surface the fleet tenants are trained on and checked
// against.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/topology.h"
#include "common/units.h"
#include "gnn/latency_model.h"

namespace grafbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (rank in [0, 100]) of an unsorted sample; the
/// benchmark's own sort, independent of the library's statistics.
double percentile(std::vector<double> values, double rank);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// One reported figure.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the metrics of the selected
/// mode, the operation accounting, and every output-check violation.
struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a check: a false `ok` is an output violation (exit non-zero).
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

/// Operation accounting printed to stderr on every run (the JSON carries
/// only attempted/failed): name -> count, in insertion order.
void print_accounting(const std::string& workload,
                      const std::vector<std::pair<std::string, double>>& rows);

// ---- tracing ---------------------------------------------------------------

/// In-memory spans recorded around the benchmark's calls into each layer.
/// Disabled (the timed mode) it records nothing and costs one branch.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the recorder was enabled
    double end = 0.0;
    int parent = -1;
    std::uint64_t round = 0;
  };

  void enable() {
    enabled_ = true;
    origin_ = now_s();
  }
  bool enabled() const { return enabled_; }
  void set_round(std::uint64_t round) { round_ = round; }

  int begin(const char* name);
  void end(int id);

  /// Durations of every span called `name`, seconds.
  std::vector<double> durations(const std::string& name) const;
  /// Write the spans as JSON lines; returns false on an I/O error.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  double origin_ = 0.0;
  std::uint64_t round_ = 0;
  std::vector<int> stack_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name)
      : rec_{rec}, id_{rec.enabled() ? rec.begin(name) : -1} {}
  ~ScopedSpan() {
    if (id_ >= 0) rec_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Where the traced mode writes its span file: the build directory the
/// runner uses (env GRAFBENCH_OUT), else the working directory.
std::string span_path(const Args& args);

// ---- the analytic latency surface ---------------------------------------------

/// latency(w, q) = sum_i demand_i * 1000 / q_i + 0.6 * mean_i w_i, with node
/// workloads w = fanout^T * api_qps. Fleet tenant models are fitted on it,
/// and every committed fleet plan is checked against it.
struct Surface {
  graf::apps::Topology topo;
  std::vector<std::vector<double>> fanout;
  std::vector<double> demand_ms;
  std::vector<graf::Millicores> lo;
  std::vector<graf::Millicores> hi;
  std::vector<graf::Millicores> unit;

  explicit Surface(graf::apps::Topology t);

  std::vector<double> node_workload(const std::vector<double>& api_qps) const;
  double latency(const std::vector<double>& w, const std::vector<double>& quota) const;
  /// Minimum total quota (millicores) meeting latency <= slo within
  /// [lo, hi], by the closed-form square-root allocation with clamping.
  /// Returns a negative value when even hi misses the SLO.
  double optimum_total(const std::vector<double>& w, double slo_ms) const;
};

/// Per-API rate range the tenant models are trained on. The rates the
/// benchmark pushes, and those a forecast gate boosts them to, stay inside
/// it, so no plan rests on an extrapolated model.
inline constexpr double kRateLo = 5.0;
inline constexpr double kRateHi = 40.0;

/// The small MPNN every benchmark model uses (embed 8, hidden 8, readout
/// 24, no dropout): cheap enough to train several times per run.
graf::gnn::MpnnConfig small_mpnn();

/// Fit a small MPNN on 1500 fixed-seed samples of the surface.
graf::gnn::LatencyModel train_on_surface(const Surface& s, std::uint64_t seed);

// ---- per-layer replays (traced mode) -------------------------------------------

/// Results of replayed calls land here so the compiler keeps the calls.
inline volatile double g_sink = 0.0;

/// nn::matmul at the readout shape of a `rows`-row descent through `model`.
double matmul_gflops(const graf::gnn::LatencyModel& model, std::size_t rows);
/// LatencyModel::predict, microseconds per call.
double forward_us(graf::gnn::LatencyModel& model, const std::vector<double>& w,
                  const std::vector<double>& q);
/// predict_var_rows forward + backward at `rows` rows, microseconds per row.
double rows_fwd_bwd_us(graf::gnn::LatencyModel& model, const std::vector<double>& w,
                       const std::vector<double>& q, std::size_t rows);

}  // namespace grafbench
