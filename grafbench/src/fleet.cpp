// The two fleet workloads: fleet_solve (every update runs a descent) and
// fleet_steady (most updates coast or hit the plan cache). Both drive one
// fleet::FleetServer closed-loop from this thread: push one telemetry
// update per tenant, step(), and send the next round only after step()
// returns.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/catalog.h"
#include "common/rng.h"
#include "core/configuration_solver.h"
#include "core/resource_controller.h"
#include "core/tiered_planner.h"
#include "core/workload_analyzer.h"
#include "fleet/fleet_server.h"
#include "forecast/gate.h"
#include "gnn/batched_latency_model.h"
#include "telemetry/metrics.h"
#include "workload/azure_trace.h"
#include "workloads.h"

namespace grafbench {
namespace {

using namespace graf;

constexpr double kInterval = 5.0;    // telemetry seconds one round stands for
constexpr double kTol = 0.05;        // oracle tolerance
constexpr std::size_t kCoreRounds = 60;   // core_s integration window
constexpr std::size_t kSteadyCycle = 60;  // fleet_steady trace length, rounds
constexpr std::size_t kRepublishEvery = 16;  // fleet_steady registry writes
constexpr int kSetups = 3;
// step_tail_ms rank on fleet_solve: a run has ~250-300 rounds, so p95 is
// the highest percentile with ten or more rounds beyond it (p99 elsewhere).
constexpr double kSolveTailRank = 95;

enum class Kind { kSolve, kSteady };

struct TenantInfo {
  fleet::TenantId id;
  std::size_t topo = 0;
  double slo_ms = 0.0;
  bool surrogate = false;
  bool forecast = false;
  std::vector<std::vector<double>> levels;  // fleet_steady recurring vectors
  std::vector<std::size_t> trace;           // level index per cycle round
  std::vector<double> qps;                  // last pushed rates
  std::uint64_t other_version = 0;          // registry version to promote next
  // Change-only bookkeeping the benchmark keeps itself.
  std::uint64_t seen_plans = 0;
  std::uint64_t seen_misses = 0;
  std::vector<int> seen_instances;
  bool seen_degraded = false;
  bool seen_any = false;
};

struct Committed {
  std::size_t tenant = 0;
  std::vector<double> qps;
  core::AllocationPlan plan;
  bool fresh_solve = false;
};

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// SLO from a factor of the topology's summed demand plus the surface's
/// workload term at the top of the benchmark's rate range, so every rate
/// the workloads push stays feasible with room for the solver's margin.
double slo_for(const Surface& s, double factor) {
  std::vector<double> top(s.topo.apis.size(), 36.0);
  const std::vector<double> w = s.node_workload(top);
  return factor * sum(s.demand_ms) + 0.6 * sum(w) / static_cast<double>(w.size());
}

/// Everything one set-up builds; rebuilt kSetups times per run.
struct Fleet {
  std::vector<Surface> surfaces;
  std::vector<std::unique_ptr<gnn::LatencyModel>> models;
  std::unique_ptr<fleet::FleetServer> server;
  std::vector<TenantInfo> tenants;
  double train_s = 0.0;
  double distill_s = 0.0;  // admission of surrogate tenants
};

core::SolverConfig solver_config() {
  core::SolverConfig cfg;
  cfg.max_iterations = 600;
  return cfg;
}

core::TieredSpec tiered_spec() {
  core::TieredSpec spec;
  spec.enabled = true;
  spec.distill.base.samples = 1024;
  spec.distill.base.train.iterations = 800;
  spec.distill.rounds = 1;
  spec.distill.queries_per_round = 128;
  spec.distill.refine.iterations = 300;
  spec.planner.solver = solver_config();
  return spec;
}

forecast::ForecastSpec forecast_spec() {
  forecast::ForecastSpec spec;
  spec.enabled = true;
  spec.kind = forecast::ForecastKind::kHoltWinters;
  spec.gate.horizon_steps = 2;
  spec.gate.max_boost = 2.0;
  return spec;
}

/// Quantize a per-minute Azure-style series into `levels` recurring
/// indices by rank, so the same few rate vectors come back again and again.
std::vector<std::size_t> quantized_trace(std::uint64_t seed, std::size_t levels) {
  workload::AzureTraceConfig cfg;
  cfg.minutes = kSteadyCycle;
  cfg.seed = seed;
  const std::vector<double> series = workload::azure_invocation_series(cfg);
  std::vector<double> sorted = series;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> out;
  for (double v : series) {
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
    out.push_back(std::min(levels - 1, rank * levels / sorted.size()));
  }
  return out;
}

std::unique_ptr<Fleet> build_fleet(Kind kind, std::uint64_t seed) {
  auto f = std::make_unique<Fleet>();
  for (const apps::Topology& t : apps::all_applications()) f->surfaces.emplace_back(t);

  const double t0 = now_s();
  for (std::size_t i = 0; i < f->surfaces.size(); ++i)
    f->models.push_back(std::make_unique<gnn::LatencyModel>(
        train_on_surface(f->surfaces[i], 13 + i)));
  f->train_s = now_s() - t0;

  f->server = std::make_unique<fleet::FleetServer>(fleet::FleetConfig{.ingest_capacity = 256});
  const std::vector<double> factors = kind == Kind::kSolve
                                          ? std::vector<double>{0.45, 0.6}
                                          : std::vector<double>{0.40, 0.45, 0.50,
                                                                0.55, 0.60, 0.65};
  Rng rng{derive_seed(seed, 1)};
  for (std::size_t t = 0; t < f->surfaces.size(); ++t) {
    const Surface& s = f->surfaces[t];
    for (std::size_t j = 0; j < factors.size(); ++j) {
      TenantInfo info;
      info.topo = t;
      info.slo_ms = slo_for(s, factors[j]);
      fleet::TenantSpec spec;
      spec.application = s.topo.name;
      spec.slo_ms = info.slo_ms;
      spec.model = f->models[t].get();
      spec.fanout = s.fanout;
      spec.lo = s.lo;
      spec.hi = s.hi;
      spec.unit = s.unit;
      spec.solver = solver_config();
      if (kind == Kind::kSolve) {
        spec.plan_cache_capacity = 0;  // every update descends
      } else {
        // One surrogate-mode and one forecast-gated tenant per topology.
        info.surrogate = j == 0;
        info.forecast = j == factors.size() - 1;
        if (info.surrogate) spec.surrogate = tiered_spec();
        if (info.forecast) spec.forecast = forecast_spec();
        // Forecast-gated tenants plan for up to max_boost (2) times their
        // observed rate. Their top level, scale * 9 * 1.45^3 <= 0.72 * 27.4
        // = 19.8 qps, keeps the boosted rates inside the trained range
        // (<= kRateHi); the load loop checks the rates the gate planned on.
        const double scale = info.forecast ? rng.uniform(0.55, 0.72) : rng.uniform(0.9, 1.3);
        for (std::size_t l = 0; l < 4; ++l)
          info.levels.emplace_back(s.topo.apis.size(),
                                   scale * 9.0 * std::pow(1.45, static_cast<double>(l)));
        info.trace = quantized_trace(derive_seed(seed, 100 + f->tenants.size()), 4);
      }
      const double a0 = now_s();
      info.id = f->server->add_tenant(spec);
      if (info.surrogate) f->distill_s += now_s() - a0;
      f->tenants.push_back(std::move(info));
    }
  }
  return f;
}

/// Next rates for a fleet_solve tenant: fresh uniform draws in the trained
/// range, redrawn until some API moved by >= 15% (outside the 10%
/// hysteresis band), so every update runs a descent.
std::vector<double> fresh_rates(Rng& rng, const std::vector<double>& prev,
                                std::size_t apis) {
  for (;;) {
    std::vector<double> r(apis);
    for (double& v : r) v = rng.uniform(8.0, 36.0);
    if (prev.empty()) return r;
    double worst = 0.0;
    for (std::size_t a = 0; a < apis; ++a)
      worst = std::max(worst, std::abs(r[a] - prev[a]) / prev[a]);
    if (worst >= 0.15) return r;
  }
}

double counter(const telemetry::RegistrySnapshot& snap, const std::string& name) {
  const telemetry::MetricSnapshot* m = snap.find(name);
  return m != nullptr ? m->value : 0.0;
}

struct Totals {
  double pushes = 0, dropped = 0, stale = 0, hits = 0, misses = 0, notifications = 0,
         batched_groups = 0, batched_tenants = 0, fast_hits = 0, escalations = 0,
         iterations = 0;
};

Totals totals(fleet::FleetServer& server) {
  const telemetry::RegistrySnapshot snap = server.metrics_snapshot();
  Totals t;
  t.pushes = counter(snap, "fleet.ingest.pushes");
  t.dropped = counter(snap, "fleet.ingest.dropped");
  t.stale = counter(snap, "fleet.ingest.stale");
  t.hits = counter(snap, "fleet.plan_cache.hits");
  t.misses = counter(snap, "fleet.plan_cache.misses");
  t.notifications = counter(snap, "fleet.notifications");
  t.batched_groups = counter(snap, "fleet.batched_groups");
  t.batched_tenants = counter(snap, "fleet.batched_tenants");
  t.fast_hits = counter(snap, "core.surrogate.fast_hits");
  t.escalations = counter(snap, "core.surrogate.escalations");
  t.iterations = counter(snap, "core.solver_iterations_total");
  return t;
}

/// The closed load loop plus everything it observes.
struct LoadLoop {
  Fleet& f;
  Kind kind;
  Rng rng;
  SpanRecorder& spans;
  std::uint64_t round = 0;  // rounds driven so far (warm-up included)
  std::uint64_t notified = 0;       // subscriber callbacks
  std::uint64_t changes_seen = 0;   // plan changes the loop saw itself
  std::uint64_t republishes = 0;
  std::vector<double> round_ms;
  double step_self_ms = 0.0;  // summed over recorded rounds
  std::size_t drained = 0, coasted = 0, step_failures = 0;
  std::vector<Committed> committed;  // this round's, checked between rounds
  std::uint64_t committed_total = 0;
  std::vector<double> core_s_per_round;  // planned core-seconds, first kCoreRounds
  std::vector<double> current_cores;     // per tenant
  /// The first forecast-gated tenant's pushed rates (one trace cycle), the
  /// input of the forecast.gate_ns replay.
  std::size_t forecast_tenant;
  std::vector<std::vector<double>> forecast_inputs;
  /// Highest per-API rate a forecast gate planned on (observed x boost).
  double max_gated_rate = 0.0;

  LoadLoop(Fleet& fl, Kind k, std::uint64_t seed, SpanRecorder& sp)
      : f{fl}, kind{k}, rng{derive_seed(seed, 2)}, spans{sp},
        current_cores(fl.tenants.size(), 0.0), forecast_tenant{fl.tenants.size()} {
    for (std::size_t i = fl.tenants.size(); i-- > 0;)
      if (fl.tenants[i].forecast) forecast_tenant = i;
  }

  std::vector<double> rates_for(TenantInfo& t) {
    if (kind == Kind::kSolve)
      return fresh_rates(rng, t.qps, f.surfaces[t.topo].topo.apis.size());
    return t.levels[t.trace[round % t.trace.size()]];
  }

  /// One round; returns its wall time in ms. `record` keeps the committed
  /// plans and timings (false during warm-up).
  double run_round(bool record) {
    spans.set_round(round);
    committed.clear();
    std::vector<std::vector<double>> pushed(f.tenants.size());
    for (std::size_t i = 0; i < f.tenants.size(); ++i) pushed[i] = rates_for(f.tenants[i]);

    const double t0 = now_s();
    ScopedSpan round_span{spans, "round"};
    if (kind == Kind::kSteady && record && round % kRepublishEvery == 0) {
      // The registry's write side: re-publish one tenant's model and
      // promote it, which hot-swaps its handle and flushes its plan cache.
      // A tenant publishes once; later visits promote its previous version
      // back, because the registry keeps every published version in memory
      // and unbounded publishing would tie peak RSS to the run length.
      ScopedSpan s{spans, "serve.publish_promote"};
      TenantInfo& t = f.tenants[republishes % f.tenants.size()];
      fleet::Tenant* tenant = f.server->tenant(t.id);
      serve::ModelRegistry& registry = f.server->registry();
      const std::uint64_t active = registry.active_version(tenant->key());
      std::uint64_t next = t.other_version;
      if (next == 0)
        next = registry.publish(tenant->key(), *f.models[t.topo],
                                {.application = tenant->application(), .slo_ms = t.slo_ms});
      registry.promote(tenant->key(), next);
      t.other_version = active;
      ++republishes;
    }
    for (std::size_t i = 0; i < f.tenants.size(); ++i) {
      ScopedSpan s{spans, "fleet.push"};
      f.server->push({.tenant = f.tenants[i].id,
                      .now = kInterval * static_cast<double>(round + 1),
                      .api_qps = pushed[i],
                      .samples = {}});
    }
    fleet::FleetServer::StepStats st;
    const double s0 = now_s();
    {
      ScopedSpan s{spans, "fleet.step"};
      st = f.server->step();
    }
    const double t1 = now_s();
    const double ms = (t1 - t0) * 1e3;

    // Outside the timed window: what the round committed.
    double solve_s = 0.0;
    std::vector<double> seen_solve_s;
    double round_cores = 0.0;
    for (std::size_t i = 0; i < f.tenants.size(); ++i) {
      TenantInfo& info = f.tenants[i];
      info.qps = pushed[i];
      fleet::Tenant* t = f.server->tenant(info.id);
      const std::uint64_t misses = t->controller().plan_cache_misses();
      const bool fresh = misses != info.seen_misses;
      info.seen_misses = misses;
      if (t->plans() != info.seen_plans) {
        info.seen_plans = t->plans();
        const core::AllocationPlan& plan = t->last_plan();
        current_cores[i] = sum(plan.quota) / 1000.0;
        if (record) {
          committed.push_back({i, pushed[i], plan, fresh});
          ++committed_total;
        }
        // A batch stamps its shared wall time on every member: count each
        // distinct solve once.
        if (fresh && std::find(seen_solve_s.begin(), seen_solve_s.end(),
                               plan.solver.solve_seconds) == seen_solve_s.end()) {
          seen_solve_s.push_back(plan.solver.solve_seconds);
          solve_s += plan.solver.solve_seconds;
        }
      }
      if (t->has_plan()) {
        const bool changed = !info.seen_any ||
                             t->last_plan().instances != info.seen_instances ||
                             t->degraded() != info.seen_degraded;
        if (changed) {
          ++changes_seen;
          info.seen_any = true;
          info.seen_instances = t->last_plan().instances;
          info.seen_degraded = t->degraded();
        }
      }
      if (info.forecast) {
        const double boost = t->forecast_gate()->last_boost();
        max_gated_rate = std::max(
            max_gated_rate, boost * *std::max_element(pushed[i].begin(), pushed[i].end()));
      }
      round_cores += current_cores[i];
      if (i == forecast_tenant && forecast_inputs.size() < kSteadyCycle)
        forecast_inputs.push_back(pushed[i]);
    }
    if (record) {
      round_ms.push_back(ms);
      step_self_ms += std::max(0.0, (t1 - s0 - solve_s) * 1e3);
      drained += st.drained;
      coasted += st.coasted;
      step_failures += st.failures;
      if (core_s_per_round.size() < kCoreRounds)
        core_s_per_round.push_back(round_cores * kInterval);
    }
    ++round;
    return ms;
  }
};

// ---- per-layer replays (traced mode only) ---------------------------------------

void add_zero_sim_layers(RunResult& out) {
  for (const char* name : {"core.control_s", "core.solves", "sim.events", "sim.events_per_s",
                           "sim.event_us_p50", "sim.run_self_s", "sim.instance_creations",
                           "setup.collect_s"})
    out.add(name, 0.0, per_layer_unit(name));
}

/// The output checks every committed plan passes, run between rounds.
struct PlanChecker {
  Fleet& f;
  RunResult& out;
  std::vector<std::unique_ptr<core::WorkloadAnalyzer>> analyzers;
  std::size_t bit_checked = 0;
  std::size_t fresh_full_plans = 0;
  std::size_t degraded = 0;
  std::vector<double> plan_latency;
  double cores_sum = 0.0;
  std::size_t cores_n = 0;
  /// Last fresh full-GNN plan of each topology: the replays' inputs.
  std::vector<std::optional<Committed>> last_of;

  PlanChecker(Fleet& fl, RunResult& o) : f{fl}, out{o}, last_of(fl.surfaces.size()) {
    for (const Surface& s : f.surfaces) {
      analyzers.push_back(std::make_unique<core::WorkloadAnalyzer>(s.topo.apis.size(),
                                                                   s.demand_ms.size()));
      analyzers.back()->set_fanout(s.fanout);
    }
  }

  void check(const Committed& cp) {
    const TenantInfo& info = f.tenants[cp.tenant];
    const Surface& s = f.surfaces[info.topo];
    const core::AllocationPlan& plan = cp.plan;
    const std::string who = s.topo.name + "@" + std::to_string(info.slo_ms);
    if (plan.degraded) {  // counted as a failed operation
      ++degraded;
      return;
    }
    const std::vector<double> w = s.node_workload(cp.qps);
    const double lat = s.latency(w, plan.quota);
    const double total = sum(plan.quota);
    plan_latency.push_back(lat);
    cores_sum += total / 1000.0;
    ++cores_n;
    out.check(plan.feasible, who + ": committed plan not feasible");
    out.check(lat <= info.slo_ms * (1.0 + kTol),
              who + ": analytic latency " + std::to_string(lat) + " > SLO");
    const double opt = s.optimum_total(w, info.slo_ms);
    out.check(opt > 0.0 && total >= opt * (1.0 - kTol),
              who + ": total quota below the analytic optimum");
    out.check(total <= sum(s.hi) * plan.scale_factor * (1.0 + 1e-12),
              who + ": total quota above sum(hi) * k");
    bool eq7 = plan.instances.size() == plan.quota.size();
    for (std::size_t k = 0; eq7 && k < plan.quota.size(); ++k)
      eq7 = plan.instances[k] ==
            std::max(1, static_cast<int>(std::ceil(plan.quota[k] / s.unit[k])));
    out.check(eq7, who + ": instance counts disagree with Eq. 7");
    if (!cp.fresh_solve || info.surrogate || info.forecast) return;
    last_of[info.topo] = cp;
    // Bit-identity (§3.13): every 16th fresh full-GNN plan re-solved alone
    // through a fresh solver over a copy of the served model.
    if (fresh_full_plans++ % 16 != 0) return;
    fleet::Tenant* t = f.server->tenant(info.id);
    gnn::LatencyModel model = f.server->registry().active(t->key())->clone();
    core::ConfigurationSolver solo{model, solver_config()};
    const std::vector<double> nodes = analyzers[info.topo]->distribute(cp.qps);
    const core::SolverResult r = solo.solve(nodes, info.slo_ms, s.lo, s.hi);
    bool same = r.quota.size() == plan.solver.quota.size() &&
                std::bit_cast<std::uint64_t>(r.predicted_ms) ==
                    std::bit_cast<std::uint64_t>(plan.solver.predicted_ms);
    for (std::size_t k = 0; same && k < r.quota.size(); ++k)
      same = std::bit_cast<std::uint64_t>(r.quota[k]) ==
             std::bit_cast<std::uint64_t>(plan.solver.quota[k]);
    out.check(same, who + ": batched plan differs from a solo re-solve");
    ++bit_checked;
  }
};

}  // namespace

RunResult run_fleet(const Args& args, bool steady) {
  const Kind kind = steady ? Kind::kSteady : Kind::kSolve;
  RunResult out;
  SpanRecorder spans;

  // ---- set-up, several times; the last build is the one measured ---------
  std::vector<double> setup_times;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<LoadLoop> loop;
  fleet::SubscriptionToken token;
  for (int rep = 0; rep < kSetups; ++rep) {
    token = {};
    loop.reset();
    fleet.reset();
    const double t0 = now_s();
    fleet = build_fleet(kind, args.seed);
    loop = std::make_unique<LoadLoop>(*fleet, kind, args.seed, spans);
    token = fleet->server->subscribe([d = loop.get()](const fleet::PlanUpdate&) {
      ++d->notified;
    });
    // Warm-up: one full trace cycle fills every plan cache (fleet_steady);
    // fleet_solve needs one round for the first plans.
    const std::size_t warm = steady ? kSteadyCycle : 1;
    for (std::size_t r = 0; r < warm; ++r) loop->run_round(false);
    setup_times.push_back(now_s() - t0);
  }
  Fleet& f = *fleet;
  LoadLoop& d = *loop;
  const std::uint64_t notified0 = d.notified;
  const std::uint64_t changes0 = d.changes_seen;
  const Totals before = totals(*f.server);
  PlanChecker checker{f, out};

  // ---- measured phase (trace mode: first half plain, second half traced)
  const double t_start = now_s();
  double plain_ms = 0.0, traced_ms = 0.0;
  std::size_t plain_rounds = 0, traced_rounds = 0;
  while (now_s() - t_start < args.seconds) {
    if (args.trace && !spans.enabled() && now_s() - t_start >= args.seconds / 2) spans.enable();
    const double ms = d.run_round(true);
    for (const Committed& c : d.committed) checker.check(c);
    (spans.enabled() ? traced_ms : plain_ms) += ms;
    ++(spans.enabled() ? traced_rounds : plain_rounds);
  }
  const Totals after = totals(*f.server);
  const double notifications = static_cast<double>(d.notified - notified0);
  const double changes = static_cast<double>(d.changes_seen - changes0);

  // ---- output checks ---------------------------------------------------------
  out.check(d.round_ms.size() >= kCoreRounds,
            "run too short: fewer than " + std::to_string(kCoreRounds) + " rounds");
  out.check(notifications == changes,
            "notifications (" + std::to_string(notifications) +
                ") != plan changes seen (" + std::to_string(changes) + ")");
  out.check(after.notifications - before.notifications == notifications,
            "fleet.notifications disagrees with subscriber callbacks");
  out.check(checker.bit_checked > 0, "no plan was re-solved for the bit-identity check");
  out.check(d.max_gated_rate <= kRateHi,
            "a forecast gate planned on " + std::to_string(d.max_gated_rate) +
                " qps, outside the trained range");
  out.check(checker.cores_n > 0, "no plan committed");

  // ---- accounting --------------------------------------------------------------
  const double pushes = after.pushes - before.pushes;
  const double dropped = after.dropped - before.dropped;
  const double stale = after.stale - before.stale;
  const std::size_t degraded = checker.degraded;
  const double escalations = after.escalations - before.escalations;
  out.attempted = static_cast<std::uint64_t>(pushes);
  out.failed = static_cast<std::uint64_t>(dropped + stale) + degraded + d.step_failures;
  print_accounting(args.workload,
                   {{"rounds", static_cast<double>(d.round_ms.size())},
                    {"updates_pushed", pushes},
                    {"updates_dropped", dropped},
                    {"updates_stale", stale},
                    {"plans_committed", static_cast<double>(d.committed_total)},
                    {"plans_degraded", static_cast<double>(degraded)},
                    {"plans_thrown", static_cast<double>(d.step_failures)},
                    {"surrogate_escalations", escalations},
                    {"cache_hits", after.hits - before.hits},
                    {"cache_misses", after.misses - before.misses},
                    {"republishes", static_cast<double>(d.republishes)},
                    {"bit_identity_checked", static_cast<double>(checker.bit_checked)}});

  if (!args.trace) {
    const double busy_s = sum(d.round_ms) / 1e3;
    out.add("setup_s", median(setup_times), "s");
    out.add("updates_per_s", static_cast<double>(d.drained) / busy_s, "1/s");
    out.add("step_p90_ms", percentile(d.round_ms, 90), "ms");
    out.add("step_tail_ms", percentile(d.round_ms, steady ? 99 : kSolveTailRank), "ms");
    out.add("plan_cores", checker.cores_sum / static_cast<double>(checker.cores_n), "cores");
    out.add("sim_s_per_wall_s",
            kInterval * static_cast<double>(d.round_ms.size()) / busy_s, "s/s");
    out.add("p99_ms", percentile(checker.plan_latency, 99), "ms");
    out.add("core_s", sum(d.core_s_per_round), "core-s");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  // ---- per-layer figures (traced mode) ----------------------------------------------
  // Captured inputs: the last committed fresh full-GNN plan of each topology.
  const auto& last_of = checker.last_of;
  std::vector<double> fwd, fwd_bwd, iter_p50, plan_p50, batch_ms, hit_us;
  for (std::size_t t = 0; t < f.surfaces.size(); ++t) {
    if (!last_of[t]) continue;
    const Committed& c = *last_of[t];
    const Surface& s = f.surfaces[t];
    gnn::LatencyModel model = f.models[t]->clone();
    const std::vector<double> w = checker.analyzers[t]->distribute(c.qps);
    fwd.push_back(forward_us(model, w, c.plan.quota));
    fwd_bwd.push_back(rows_fwd_bwd_us(model, w, c.plan.quota, 2));
    // Solo solver and plan() with instruments attached.
    core::ConfigurationSolver solver{model, solver_config()};
    core::WorkloadAnalyzer analyzer{s.topo.apis.size(), s.demand_ms.size()};
    analyzer.set_fanout(s.fanout);
    core::ResourceController rc{model, solver, analyzer, s.lo, s.hi, s.unit};
    telemetry::MetricsRegistry reg;
    rc.set_metrics(&reg);
    const double slo = f.tenants[c.tenant].slo_ms;
    rc.set_plan_cache_capacity(0);
    for (int i = 0; i < 5; ++i) rc.plan(c.qps, slo);
    plan_p50.push_back(reg.histogram("core.plan_us").percentile(50));
    iter_p50.push_back(reg.histogram("core.solver_iter_us").percentile(50));
    // Cache hit: one miss fills the cache, the rest answer from it.
    rc.set_plan_cache_capacity(64);
    rc.plan(c.qps, slo);
    const int hits = 2000;
    const double h0 = now_s();
    for (int i = 0; i < hits; ++i) rc.plan(c.qps, slo);
    hit_us.push_back((now_s() - h0) / hits * 1e6);
    // solve_batch on two copies of the captured item (a two-tenant group).
    const double b0 = now_s();
    int calls = 0;
    while (calls < 3 || now_s() - b0 < 0.1) {
      gnn::BatchedLatencyModel batched{model, 1};
      std::vector<core::BatchItem> items(2, {w, slo, s.lo, s.hi});
      core::ConfigurationSolver::solve_batch(batched, solver_config(), items);
      ++calls;
    }
    batch_ms.push_back((now_s() - b0) / calls * 1e3);
  }
  const double solves = (after.misses - before.misses);
  out.add("nn.matmul_gflops", matmul_gflops(*f.models[0], 2), "GFLOP/s");
  out.add("gnn.forward_us", mean(fwd), "us");
  out.add("gnn.rows_fwd_bwd_us", mean(fwd_bwd), "us");

  std::vector<double> surrogate_us, tiered_ms;
  for (const TenantInfo& info : f.tenants) {
    if (!info.surrogate || !last_of[info.topo]) continue;
    core::TieredPlanner* planner = f.server->tenant(info.id)->tiered_planner();
    const Surface& s = f.surfaces[info.topo];
    const Committed& c = *last_of[info.topo];
    const std::vector<double> w = checker.analyzers[info.topo]->distribute(c.qps);
    gnn::SurrogateModel& sur = planner->active_surrogate();
    const int n = 2000;
    const double t0 = now_s();
    double sink = 0.0;
    for (int i = 0; i < n; ++i) sink += sur.predict(w, c.plan.quota);
    g_sink = sink;
    surrogate_us.push_back((now_s() - t0) / n * 1e6);
    core::TieredPlanner copy{std::make_shared<gnn::SurrogateModel>(sur.clone()),
                             planner->config()};
    gnn::LatencyModel model = f.models[info.topo]->clone();
    core::ConfigurationSolver full{model, solver_config()};
    const int m = 20;
    const double t1 = now_s();
    for (int i = 0; i < m; ++i) copy.solve(model, full, w, info.slo_ms, s.lo, s.hi);
    tiered_ms.push_back((now_s() - t1) / m * 1e3);
  }
  out.add("gnn.surrogate_forward_us", mean(surrogate_us), "us");
  out.add("gnn.train_s", f.train_s, "s");
  out.add("gnn.distill_s", f.distill_s, "s");
  out.add("core.solver_iterations_per_plan",
          solves > 0 ? (after.iterations - before.iterations) / solves : 0.0, "count");
  out.add("core.solver_iter_us_p50", mean(iter_p50), "us");
  out.add("core.solve_batch_ms", mean(batch_ms), "ms");
  out.add("core.plan_us_p50", mean(plan_p50), "us");
  const double lookups = (after.hits - before.hits) + (after.misses - before.misses);
  out.add("core.plan_cache_hit_ratio", lookups > 0 ? (after.hits - before.hits) / lookups : 0.0,
          "ratio");
  out.add("core.plan_cache_hit_us", mean(hit_us), "us");
  out.add("core.coast_ratio",
          d.drained > 0 ? static_cast<double>(d.coasted) / static_cast<double>(d.drained) : 0.0,
          "ratio");
  const double tier = (after.fast_hits - before.fast_hits) + escalations;
  out.add("core.surrogate_fast_hit_ratio",
          tier > 0 ? (after.fast_hits - before.fast_hits) / tier : 0.0, "ratio");
  out.add("core.tiered_solve_ms", mean(tiered_ms), "ms");
  out.add("fleet.push_us", mean(spans.durations("fleet.push")) * 1e6, "us");
  out.add("fleet.step_self_ms", d.step_self_ms / static_cast<double>(d.round_ms.size()), "ms");
  out.add("fleet.notifications", notifications, "count");
  const double groups = after.batched_groups - before.batched_groups;
  out.add("fleet.batched_tenants_per_group",
          groups > 0 ? (after.batched_tenants - before.batched_tenants) / groups : 0.0, "count");
  double gate_ns = 0.0;
  if (!d.forecast_inputs.empty()) {
    forecast::ForecastGate gate{forecast_spec()};
    const std::size_t n = std::max<std::size_t>(d.forecast_inputs.size(), 20000);
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i)
      gate.plan_qps(d.forecast_inputs[i % d.forecast_inputs.size()]);
    gate_ns = (now_s() - t0) / static_cast<double>(n) * 1e9;
  }
  out.add("forecast.gate_ns", gate_ns, "ns");
  out.add("serve.publish_promote_ms", mean(spans.durations("serve.publish_promote")) * 1e3,
          "ms");
  add_zero_sim_layers(out);
  const double plain = plain_rounds > 0 ? plain_ms / static_cast<double>(plain_rounds) : 0.0;
  const double traced = traced_rounds > 0 ? traced_ms / static_cast<double>(traced_rounds) : 0.0;
  out.add("trace.overhead_pct", plain > 0 ? (traced / plain - 1.0) * 100.0 : 0.0, "%");
  out.check(spans.write(span_path(args)), "could not write the span file");
  return out;
}

}  // namespace grafbench
