// sim_surge: the Fig. 21/22 traffic surge at a reduced per-instance scale.
// A simulated Online Boutique cluster runs under closed-loop Locust-style
// users whose population doubles mid-run, with a forecast-gated
// GrafController in the loop. Its GNN is trained in set-up on a small
// fixed-seed dataset that core::SampleCollector gathers from the simulator.
// Each run repeats the whole scenario under seeds derived from --seed until
// the measuring time is spent.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/catalog.h"
#include "common/rng.h"
#include "core/configuration_solver.h"
#include "core/graf_controller.h"
#include "core/resource_controller.h"
#include "core/sample_collector.h"
#include "core/workload_analyzer.h"
#include "forecast/gate.h"
#include "gnn/latency_model.h"
#include "telemetry/metrics.h"
#include "workload/closed_loop.h"
#include "workloads.h"

namespace grafbench {
namespace {

using namespace graf;

constexpr double kUsersBefore = 200.0;  // Locust users; the surge doubles them
constexpr double kSurgeAt = 60.0;
constexpr double kEnd = 180.0;
constexpr double kInterval = 5.0;       // control interval = one round
constexpr double kSloMs = 150.0;
constexpr double kLittleFrom = kSurgeAt + 30.0;  // after the controller caught up
constexpr int kSetups = 3;

/// The trained control plane every scenario reuses (fixed seed: identical
/// on every run, whatever --seed says).
struct Stack {
  apps::Topology topo = apps::online_boutique();
  std::unique_ptr<gnn::LatencyModel> model;
  gnn::Dataset dataset;
  std::vector<std::vector<double>> fanout;
  std::vector<Millicores> lo, hi, unit;
  std::vector<int> max_instances;
  double collect_s = 0.0;
  double train_s = 0.0;
};

std::unique_ptr<Stack> build_stack() {
  auto st = std::make_unique<Stack>();
  for (const sim::ServiceConfig& svc : st->topo.services) {
    st->lo.push_back(svc.unit_quota);
    st->hi.push_back(4.0 * svc.unit_quota);
    st->unit.push_back(svc.unit_quota);
    st->max_instances.push_back(svc.max_instances);
  }
  // ~150 qps at the post-surge population; collect from 30% to 120% of it.
  std::vector<Qps> base;
  for (double w : st->topo.api_weights) base.push_back(150.0 * w);

  const double t0 = now_s();
  sim::Cluster cluster = apps::make_cluster(st->topo, {.seed = 5});
  core::WorkloadAnalyzer analyzer{cluster.api_count(), cluster.service_count()};
  core::SampleCollectorConfig cfg;
  cfg.warmup = 1.0;
  cfg.window = 3.0;
  cfg.flush = 0.5;
  cfg.closed_loop = true;
  cfg.seed = 7;
  core::SampleCollector collector{cluster, analyzer, cfg};
  st->dataset = collector.collect_sharded(160, {st->lo, st->hi}, base, 0.3, 1.2,
                                          apps::make_cluster_factory(st->topo, {.seed = 5}));
  st->fanout = analyzer.fanout();
  st->collect_s = now_s() - t0;

  const double t1 = now_s();
  st->model = std::make_unique<gnn::LatencyModel>(apps::make_dag(st->topo), small_mpnn(), 11);
  gnn::TrainConfig tc;
  tc.iterations = 1500;
  tc.batch_size = 64;
  tc.lr = 2e-3;
  tc.lr_decay_every = 500;
  tc.eval_every = 0;
  tc.seed = 11;
  st->model->fit(st->dataset, {}, tc);
  st->train_s = now_s() - t1;
  return st;
}

forecast::ForecastSpec forecast_spec() {
  forecast::ForecastSpec spec;
  spec.enabled = true;
  spec.kind = forecast::ForecastKind::kHoltWinters;
  spec.gate.horizon_steps = 2;  // 10 s lookahead covers the creation delay
  return spec;
}

/// One scenario's outcome.
struct Scenario {
  std::vector<double> round_ms;   // wall time per control interval
  double wall_s = 0.0;
  double sim_s = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t solves = 0;
  std::uint64_t plan_failures = 0;
  std::uint64_t degraded_plans = 0;
  std::vector<double> plan_cores;  // committed non-degraded plans
  double p99_ms = 0.0;             // requests completing after the surge
  double core_s = 0.0;
  std::uint64_t submitted = 0, completed = 0, failed = 0, inflight = 0;
  std::uint64_t events = 0;
  std::vector<std::vector<double>> observed_qps;  // per round, for replays
  // traced only
  double control_s = 0.0;
  double event_us_p50 = 0.0;
  double creations = 0.0;
  double iterations = 0.0;
  double cache_hits = 0.0, cache_misses = 0.0;
  std::vector<double> plan_us, iter_us;
};

Scenario run_scenario(Stack& st, std::uint64_t seed, RunResult& out, bool traced,
                      SpanRecorder& spans) {
  Scenario sc;
  sim::Cluster cluster = apps::make_cluster(st.topo, {.seed = derive_seed(seed, 1)});
  telemetry::MetricsRegistry reg;
  core::WorkloadAnalyzer analyzer{st.topo.apis.size(), st.topo.service_count()};
  analyzer.set_fanout(st.fanout);
  core::ConfigurationSolver solver{*st.model, {.max_iterations = 400}};
  core::ResourceController rc{*st.model, solver, analyzer, st.lo, st.hi, st.unit};
  rc.set_training_reference(st.dataset);
  rc.set_max_instances(st.max_instances);
  core::GrafController graf{rc, {.slo_ms = kSloMs, .control_interval = kInterval}};
  graf.enable_forecast(forecast_spec());
  if (traced) {
    cluster.set_metrics(&reg);
    graf.set_metrics(&reg);
  }
  graf.attach(cluster, kEnd);

  std::vector<double> post_latency;  // ms, completions after the surge
  std::uint64_t ok = 0, failed = 0;
  double little_latency_s = 0.0;
  std::uint64_t little_done = 0;
  workload::ClosedLoopConfig g;
  g.users = workload::Schedule::step(kUsersBefore, 2.0 * kUsersBefore, kSurgeAt);
  g.api_weights = st.topo.api_weights;
  g.seed = derive_seed(seed, 2);
  g.on_complete = [&](const trace::RequestTrace& t) {
    if (!t.ok) {
      ++failed;
      return;
    }
    ++ok;
    if (t.end >= kSurgeAt) post_latency.push_back(t.e2e_ms());
    if (t.end >= kLittleFrom) {
      little_latency_s += t.end - t.start;
      ++little_done;
    }
  };
  workload::ClosedLoopGenerator gen{cluster, g};
  gen.start(kEnd);

  double inflight_sum = 0.0;
  std::size_t inflight_samples = 0;
  // Most requests in flight before and after the surge: a closed-loop user
  // has at most one request out, so these may not exceed the user counts.
  std::uint64_t inflight_max_before = 0, inflight_max_after = 0;
  double quota_before = 0.0, quota_after = 0.0;
  std::uint64_t seen_solves = 0;
  for (double t = kInterval; t <= kEnd + 1e-9; t += kInterval) {
    spans.set_round(static_cast<std::uint64_t>(t / kInterval));
    const double t0 = now_s();
    ScopedSpan round_span{spans, "round"};
    // One control interval in 0.1 s steps: in-flight requests sampled every
    // step (Little's law), the ready quota every simulated second (core_s).
    const int first_step = static_cast<int>(std::lround((t - kInterval) * 10.0));
    for (int step = first_step + 1; step <= first_step + 50; ++step) {
      const double s = step / 10.0;
      {
        ScopedSpan run{spans, "sim.run_until"};
        cluster.run_until(s);
      }
      const std::uint64_t inflight = cluster.inflight();
      std::uint64_t& inflight_max = s < kSurgeAt ? inflight_max_before : inflight_max_after;
      inflight_max = std::max(inflight_max, inflight);
      if (s > kLittleFrom) {
        inflight_sum += static_cast<double>(inflight);
        ++inflight_samples;
      }
      if (step % 10 != 0) continue;
      sc.core_s += cluster.total_quota() / 1000.0;
      if (step == 10 * static_cast<int>(kSurgeAt)) quota_before = cluster.total_quota();
      // One control interval plus the ~5.5 s creation delay (and two queued
      // creations per node) after the surge.
      if (step == 10 * static_cast<int>(kSurgeAt + kInterval + 11.0))
        quota_after = cluster.total_quota();
    }
    const double ms = (now_s() - t0) * 1e3;
    sc.round_ms.push_back(ms);
    sc.wall_s += ms / 1e3;
    if (graf.solves() != seen_solves) {
      seen_solves = graf.solves();
      const core::AllocationPlan& plan = graf.last_plan();
      if (plan.degraded) {
        ++sc.degraded_plans;
      } else {
        double total = 0.0;
        for (double q : plan.quota) total += q;
        sc.plan_cores.push_back(total / 1000.0);
      }
    }
    std::vector<double> qps;
    for (std::size_t a = 0; a < cluster.api_count(); ++a)
      qps.push_back(cluster.api_qps(static_cast<int>(a), kInterval));
    sc.observed_qps.push_back(std::move(qps));
  }
  sc.sim_s = kEnd;
  sc.ticks = graf.ticks();
  sc.solves = graf.solves();
  sc.plan_failures = graf.plan_failures();
  sc.p99_ms = percentile(post_latency, 99);
  sc.submitted = gen.generated();
  sc.completed = cluster.completed();
  sc.failed = cluster.failed();
  sc.inflight = cluster.inflight();
  sc.events = cluster.events().processed();

  // ---- output checks ------------------------------------------------------
  // Conservation from the benchmark's own counts: requests the generator
  // submitted = completion callbacks (ok + failed) + requests still in flight.
  out.check(sc.submitted == ok + failed + sc.inflight,
            "requests not conserved: submitted " + std::to_string(sc.submitted) +
                " != completed " + std::to_string(ok) + " + failed " + std::to_string(failed) +
                " + in-flight " + std::to_string(sc.inflight));
  out.check(sc.submitted == cluster.submitted() && ok == sc.completed && failed == sc.failed,
            "the benchmark's request counts disagree with the cluster's counters");
  out.check(inflight_max_before <= static_cast<std::uint64_t>(kUsersBefore) &&
                inflight_max_after <= static_cast<std::uint64_t>(2.0 * kUsersBefore),
            "more requests in flight than closed-loop users: " +
                std::to_string(inflight_max_before) + " before the surge, " +
                std::to_string(inflight_max_after) + " after");
  const double window = kEnd - kLittleFrom;
  const double l = inflight_sum / static_cast<double>(inflight_samples);
  const double lambda_w = static_cast<double>(little_done) / window *
                          (little_done > 0 ? little_latency_s / little_done : 0.0);
  out.check(std::abs(l - lambda_w) <= 0.1 * l,
            "Little's law off by more than 10%: L=" + std::to_string(l) +
                " lambda*W=" + std::to_string(lambda_w));
  out.check(quota_after > quota_before,
            "ready quota did not rise within one interval plus the creation delay");
  out.check(!post_latency.empty(), "no request completed after the surge");

  if (traced) {
    const telemetry::RegistrySnapshot snap = reg.snapshot();
    for (const telemetry::MetricSnapshot& m : snap.metrics) {
      if (m.name == "sim.instance_creations") sc.creations += m.value;
      if (m.name == "core.solver_iterations_total") sc.iterations += m.value;
      if (m.name == "core.plan_cache.hits") sc.cache_hits += m.value;
      if (m.name == "core.plan_cache.misses") sc.cache_misses += m.value;
    }
    const telemetry::LogHistogram& plan_us = reg.histogram("core.plan_us");
    sc.control_s = plan_us.sum() / 1e6;
    if (plan_us.total() > 0) sc.plan_us.push_back(plan_us.percentile(50));
    const telemetry::LogHistogram& iter_us = reg.histogram("core.solver_iter_us");
    if (iter_us.total() > 0) sc.iter_us.push_back(iter_us.percentile(50));
    sc.event_us_p50 = reg.histogram("sim.event_us").percentile(50);
  }
  return sc;
}

}  // namespace

RunResult run_surge(const Args& args) {
  RunResult out;
  std::vector<double> setup_times;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetups; ++rep) {
    stack.reset();
    const double t0 = now_s();
    stack = build_stack();
    setup_times.push_back(now_s() - t0);
  }

  // Trace mode: the first half of the time runs plain, the second half
  // with spans and the program's own instruments attached.
  SpanRecorder spans;
  std::vector<Scenario> plain, traced;
  const double t_start = now_s();
  for (std::uint64_t n = 0; now_s() - t_start < args.seconds || plain.empty(); ++n) {
    const bool tr = args.trace && now_s() - t_start >= args.seconds / 2;
    if (tr && !spans.enabled()) spans.enable();
    (tr ? traced : plain)
        .push_back(run_scenario(*stack, derive_seed(args.seed, n), out, tr, spans));
  }
  std::vector<Scenario> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());

  std::vector<double> round_ms, plan_cores, p99, core_s;
  double wall = 0.0, sim = 0.0, ticks = 0.0;
  std::uint64_t submitted = 0, timed_out = 0, degraded = 0, thrown = 0, solves = 0;
  for (const Scenario& sc : all) {
    round_ms.insert(round_ms.end(), sc.round_ms.begin(), sc.round_ms.end());
    plan_cores.insert(plan_cores.end(), sc.plan_cores.begin(), sc.plan_cores.end());
    p99.push_back(sc.p99_ms);
    core_s.push_back(sc.core_s);
    wall += sc.wall_s;
    sim += sc.sim_s;
    ticks += static_cast<double>(sc.ticks);
    submitted += sc.submitted;
    timed_out += sc.failed;
    degraded += sc.degraded_plans;
    thrown += sc.plan_failures;
    solves += sc.solves;
  }
  out.attempted = submitted + solves;
  out.failed = timed_out + degraded + thrown;
  print_accounting(args.workload, {{"scenarios", static_cast<double>(all.size())},
                                   {"requests_submitted", static_cast<double>(submitted)},
                                   {"requests_timed_out", static_cast<double>(timed_out)},
                                   {"plans", static_cast<double>(solves)},
                                   {"plans_degraded", static_cast<double>(degraded)},
                                   {"plans_thrown", static_cast<double>(thrown)},
                                   {"control_ticks", ticks}});

  if (!args.trace) {
    out.add("setup_s", median(setup_times), "s");
    out.add("updates_per_s", ticks / wall, "1/s");
    out.add("step_p90_ms", percentile(round_ms, 90), "ms");
    out.add("step_tail_ms", percentile(round_ms, 99), "ms");
    out.add("plan_cores", mean(plan_cores), "cores");
    out.add("sim_s_per_wall_s", sim / wall, "s/s");
    out.add("p99_ms", median(p99), "ms");
    out.add("core_s", median(core_s), "core-s");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  // ---- per-layer figures (traced mode) -------------------------------------------
  out.check(!traced.empty(), "no traced scenario ran");
  const auto traced_mean = [&](auto field) {
    std::vector<double> v;
    for (const Scenario& sc : traced) v.push_back(field(sc));
    return mean(v);
  };
  std::vector<double> plan_us, iter_us;
  for (const Scenario& sc : traced) {
    plan_us.insert(plan_us.end(), sc.plan_us.begin(), sc.plan_us.end());
    iter_us.insert(iter_us.end(), sc.iter_us.begin(), sc.iter_us.end());
  }
  // Replays at a captured post-surge point.
  const Scenario& first = plain.front();
  core::WorkloadAnalyzer analyzer{stack->topo.apis.size(), stack->topo.service_count()};
  analyzer.set_fanout(stack->fanout);
  const std::vector<double> w = analyzer.distribute(first.observed_qps.back());
  std::vector<double> q = stack->hi;
  gnn::LatencyModel model = stack->model->clone();
  forecast::ForecastGate gate{forecast_spec()};
  const std::size_t gate_calls = 20000;
  const double g0 = now_s();
  for (std::size_t i = 0; i < gate_calls; ++i)
    gate.plan_qps(first.observed_qps[i % first.observed_qps.size()]);
  const double gate_ns = (now_s() - g0) / static_cast<double>(gate_calls) * 1e9;

  double plain_wall = 0.0, plain_sim = 0.0, plain_events = 0.0;
  for (const Scenario& sc : plain) {
    plain_wall += sc.wall_s;
    plain_sim += sc.sim_s;
    plain_events += static_cast<double>(sc.events);
  }
  const double traced_wall = traced_mean([](const Scenario& s) { return s.wall_s / s.sim_s; });
  const double solves_traced = traced_mean([](const Scenario& s) { return double(s.solves); });
  const double hits = traced_mean([](const Scenario& s) { return s.cache_hits; });
  const double misses = traced_mean([](const Scenario& s) { return s.cache_misses; });

  out.add("nn.matmul_gflops", matmul_gflops(model, 1), "GFLOP/s");
  out.add("gnn.forward_us", forward_us(model, w, q), "us");
  out.add("gnn.rows_fwd_bwd_us", rows_fwd_bwd_us(model, w, q, 1), "us");
  out.add("gnn.surrogate_forward_us", 0.0, "us");
  out.add("gnn.train_s", stack->train_s, "s");
  out.add("gnn.distill_s", 0.0, "s");
  out.add("core.solver_iterations_per_plan",
          traced_mean([](const Scenario& s) { return s.iterations; }) /
              std::max(1.0, solves_traced),
          "count");
  out.add("core.solver_iter_us_p50", median(iter_us), "us");
  out.add("core.solve_batch_ms", 0.0, "ms");
  out.add("core.plan_us_p50", median(plan_us), "us");
  out.add("core.plan_cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
          "ratio");
  out.add("core.plan_cache_hit_us", 0.0, "us");
  out.add("core.coast_ratio",
          1.0 - traced_mean([](const Scenario& s) {
                  return static_cast<double>(s.solves) / static_cast<double>(s.ticks);
                }),
          "ratio");
  out.add("core.surrogate_fast_hit_ratio", 0.0, "ratio");
  out.add("core.tiered_solve_ms", 0.0, "ms");
  out.add("core.control_s", traced_mean([](const Scenario& s) { return s.control_s; }), "s");
  out.add("core.solves", solves_traced, "count");
  for (const char* name : {"fleet.push_us", "fleet.step_self_ms", "fleet.notifications",
                           "fleet.batched_tenants_per_group"})
    out.add(name, 0.0, per_layer_unit(name));
  out.add("forecast.gate_ns", gate_ns, "ns");
  out.add("serve.publish_promote_ms", 0.0, "ms");
  out.add("sim.events", static_cast<double>(first.events), "count");
  out.add("sim.events_per_s", plain_events / plain_wall, "1/s");
  out.add("sim.event_us_p50", traced_mean([](const Scenario& s) { return s.event_us_p50; }),
          "us");
  out.add("sim.run_self_s",
          traced_mean([](const Scenario& s) { return s.wall_s - s.control_s; }), "s");
  out.add("sim.instance_creations",
          traced_mean([](const Scenario& s) { return s.creations; }), "count");
  out.add("setup.collect_s", stack->collect_s, "s");
  out.add("trace.overhead_pct", (traced_wall / (plain_wall / plain_sim) - 1.0) * 100.0, "%");
  out.check(spans.write(span_path(args)), "could not write the span file");
  return out;
}

}  // namespace grafbench
