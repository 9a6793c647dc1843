#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>

#include "common/rng.h"
#include "nn/autodiff.h"
#include "nn/tensor.h"
#include "core/workload_analyzer.h"

namespace grafbench {

double percentile(std::vector<double> values, double rank) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::ceil(rank / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(pos, 1.0, static_cast<double>(values.size())));
  return values[idx - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void print_accounting(const std::string& workload,
                      const std::vector<std::pair<std::string, double>>& rows) {
  std::cerr << "[grafbench] " << workload << " accounting:" << std::setprecision(15);
  for (const auto& [name, value] : rows) std::cerr << ' ' << name << '=' << value;
  std::cerr << '\n';
}

// ---- tracing -----------------------------------------------------------------

int SpanRecorder::begin(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now_s() - origin_, 0.0,
                    stack_.empty() ? -1 : stack_.back(), round_});
  stack_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s() - origin_;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.end - s.start);
  return out;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream os{path};
  if (!os) return false;
  os.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start\":" << s.start
       << ",\"end\":" << s.end << ",\"parent\":" << s.parent
       << ",\"round\":" << s.round << "}\n";
  }
  return static_cast<bool>(os);
}

std::string span_path(const Args& args) {
  const char* dir = std::getenv("GRAFBENCH_OUT");
  std::string base = dir != nullptr ? std::string{dir} + "/" : std::string{};
  return base + "spans-" + args.workload + "-seed" + std::to_string(args.seed) +
         ".jsonl";
}

// ---- analytic surface ----------------------------------------------------------

Surface::Surface(graf::apps::Topology t)
    : topo{std::move(t)}, fanout{graf::core::expected_fanout(topo)} {
  for (const graf::sim::ServiceConfig& svc : topo.services) {
    demand_ms.push_back(svc.demand_mean_ms);
    // Floor above one unit keeps >= 2 replicas per tier; the ceiling is the
    // top of the trained quota region (examples/fleet_server.cpp).
    lo.push_back(1.1 * svc.unit_quota);
    hi.push_back(4.0 * svc.unit_quota);
    unit.push_back(svc.unit_quota);
  }
}

std::vector<double> Surface::node_workload(const std::vector<double>& api_qps) const {
  std::vector<double> w(demand_ms.size(), 0.0);
  for (std::size_t a = 0; a < api_qps.size(); ++a)
    for (std::size_t s = 0; s < w.size(); ++s) w[s] += api_qps[a] * fanout[a][s];
  return w;
}

double Surface::latency(const std::vector<double>& w,
                        const std::vector<double>& quota) const {
  double latency = 0.0;
  double mean_w = 0.0;
  for (std::size_t s = 0; s < demand_ms.size(); ++s) {
    latency += demand_ms[s] * 1000.0 / quota[s];
    mean_w += w[s] / static_cast<double>(demand_ms.size());
  }
  return latency + 0.6 * mean_w;
}

double Surface::optimum_total(const std::vector<double>& w, double slo_ms) const {
  // KKT: q_i = clamp(t * sqrt(a_i), lo_i, hi_i) with a_i = 1000 * demand_i;
  // latency falls monotonically in t, so bisect t onto the SLO.
  const auto alloc = [&](double t) {
    std::vector<double> q(demand_ms.size());
    for (std::size_t s = 0; s < q.size(); ++s)
      q[s] = std::clamp(t * std::sqrt(1000.0 * demand_ms[s]), lo[s], hi[s]);
    return q;
  };
  if (latency(w, hi) > slo_ms) return -1.0;
  double t_lo = 0.0;
  double t_hi = 1.0;
  while (latency(w, alloc(t_hi)) > slo_ms) t_hi *= 2.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (t_lo + t_hi);
    (latency(w, alloc(mid)) > slo_ms ? t_lo : t_hi) = mid;
  }
  double total = 0.0;
  for (double q : alloc(t_hi)) total += q;
  return total;
}

graf::gnn::MpnnConfig small_mpnn() {
  graf::gnn::MpnnConfig cfg;
  cfg.embed_dim = 8;
  cfg.mpnn_hidden = 8;
  cfg.readout_hidden = 24;
  cfg.dropout_p = 0.0;
  return cfg;
}

graf::gnn::LatencyModel train_on_surface(const Surface& s, std::uint64_t seed) {
  const std::size_t services = s.demand_ms.size();
  graf::gnn::LatencyModel m{graf::apps::make_dag(s.topo), small_mpnn(), seed};

  graf::Rng rng{seed + 100};
  graf::gnn::Dataset data;
  for (int i = 0; i < 1500; ++i) {
    std::vector<double> api(s.topo.apis.size());
    for (double& r : api) r = rng.uniform(kRateLo, kRateHi);
    graf::gnn::Sample sample;
    sample.workload = s.node_workload(api);
    sample.quota.resize(services);
    for (std::size_t sv = 0; sv < services; ++sv)
      sample.quota[sv] = rng.uniform(0.8 * s.unit[sv], s.hi[sv]);
    sample.latency_ms = s.latency(sample.workload, sample.quota);
    data.push_back(std::move(sample));
  }
  graf::gnn::TrainConfig tc;
  tc.iterations = 1200;
  tc.batch_size = 64;
  tc.lr = 2e-3;
  tc.lr_decay_every = 500;
  tc.eval_every = 0;
  tc.seed = seed;
  m.fit(data, {}, tc);
  return m;
}

// ---- replays -----------------------------------------------------------------

double matmul_gflops(const graf::gnn::LatencyModel& model, std::size_t rows) {
  const std::size_t inner = model.node_count() * model.mpnn_config().embed_dim;
  const std::size_t cols = model.mpnn_config().readout_hidden;
  graf::nn::Tensor a{rows, inner, 0.5};
  graf::nn::Tensor b{inner, cols, 0.25};
  double sink = 0.0;
  std::size_t calls = 0;
  const double t0 = now_s();
  while (now_s() - t0 < 0.1) {
    for (int i = 0; i < 256; ++i, ++calls) sink += graf::nn::matmul(a, b)(0, 0);
  }
  const double dt = now_s() - t0;
  g_sink = sink;
  return 2.0 * static_cast<double>(rows * inner * cols * calls) / dt / 1e9;
}

double forward_us(graf::gnn::LatencyModel& model, const std::vector<double>& w,
                  const std::vector<double>& q) {
  const int n = 400;
  const double t0 = now_s();
  double sink = 0.0;
  for (int i = 0; i < n; ++i) sink += model.predict(w, q);
  g_sink = sink;
  return (now_s() - t0) / n * 1e6;
}

double rows_fwd_bwd_us(graf::gnn::LatencyModel& model, const std::vector<double>& w,
                       const std::vector<double>& q, std::size_t rows) {
  const std::size_t n = model.node_count();
  graf::nn::Tensor wt{rows, n};
  graf::nn::Tensor qt{rows, n};
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < n; ++c) {
      wt(r, c) = w[c];
      qt(r, c) = q[c];
    }
  graf::nn::Param p{qt};
  graf::nn::Tape tape;
  const int reps = 300;
  const double t0 = now_s();
  for (int i = 0; i < reps; ++i) {
    tape.reset();
    tape.set_freeze_params(false);
    graf::nn::Var rv = tape.param(p);
    tape.set_freeze_params(true);
    tape.backward(graf::nn::sum_all(model.predict_var_rows(tape, wt, rv)));
  }
  return (now_s() - t0) / (reps * static_cast<double>(rows)) * 1e6;
}

}  // namespace grafbench
