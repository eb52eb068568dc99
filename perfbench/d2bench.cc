// d2bench — driver for the perfbench workloads (see README.md).
//
//   d2bench run    --workload=W --seed=S [--arc-workers=N]
//       Calls the product entry point (core::*Experiment::run or
//       core::run_durability) with the parameters `d2sim` builds for the
//       workload, metrics and tracing off, and prints the simulated
//       results as one JSON line. run.py times the whole process.
//   d2bench setup  --workload=W --seed=S [--min-seconds=T]
//       Runs only the workload's set-up (everything before the replay
//       starts) through the same public calls, repeated until T host
//       seconds have passed (once at least), and prints the median time.
//   d2bench traced --workload=W --seed=S
//       Rebuilds the workload's replay from the layers' public calls,
//       times every call, reads counts from an obs::Registry, and prints
//       the simulated results (which must equal `run`'s) plus the
//       per-layer ledger.
//   d2bench check  --workload=W --seed=S
//       Recomputes, apart from the simulation, the quantities run.py's
//       correctness checks compare against (task count, per-group bytes).
//   d2bench host   --workload=W
//       Prints the build stamp and the workload's arc workers.
//
// Every mode refuses to run from a D2_PARANOID or unoptimized build.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/availability.h"
#include "core/balance.h"
#include "core/op_batch.h"
#include "core/performance.h"
#include "core/repair.h"
#include "core/replay.h"
#include "core/system.h"
#include "core/trial_runner.h"
#include "core/webcache.h"
#include "dht/router.h"
#include "net/latency.h"
#include "net/tcp_model.h"
#include "obs/metrics.h"
#include "sim/bandwidth.h"
#include "sim/failure.h"
#include "sim/simulator.h"
#include "store/lookup_cache.h"
#include "trace/harvard_gen.h"
#include "trace/tasks.h"
#include "trace/web_gen.h"

#ifndef D2BENCH_BUILD_TYPE
#define D2BENCH_BUILD_TYPE "unknown"
#endif
#ifndef D2BENCH_COMPILER
#define D2BENCH_COMPILER "unknown"
#endif

using namespace d2;

namespace {

// ---------------------------------------------------------------------------
// Workload definitions. Each mirrors the flags of the d2sim command named
// in README.md; `seed` is the benchmark seed.

constexpr const char* kWorkloads[] = {"avail-churn", "perf-lookup",
                                      "webcache-churn", "repair-ec"};

// avail-churn: d2sim availability --scheme=d2 --nodes=2000 --replicas=2
//   --users=2000 --days=2 --accesses=20 --arcs=64 --arc-workers=4 --seed=S
//   Two replicas, not three: with three, some seeds see a single failed
//   task, and the check that failures occur would depend on the seed.
constexpr int kAvailNodes = 2000;
constexpr int kAvailUsers = 2000;
constexpr int kAvailDays = 2;
constexpr int kAvailAccesses = 20;
constexpr int kAvailArcs = 64;
constexpr int kAvailWorkers = 4;

core::AvailabilityParams avail_params(std::uint64_t seed, int workers) {
  core::AvailabilityParams p;
  p.system.node_count = kAvailNodes;
  p.system.replicas = 2;
  // d2sim derives each trial's system seed from --seed and the trial index.
  p.system.seed = core::derive_trial_seed(seed, 0);
  p.system.arcs = kAvailArcs;
  p.system.arc_workers = workers;
  p.system.scheme = fs::KeyScheme::kD2;
  p.system.active_load_balance = true;
  p.workload.users = kAvailUsers;
  p.workload.days = kAvailDays;
  p.workload.target_active_bytes = mB(96);
  p.workload.seed = seed;
  p.workload.accesses_per_user_day = kAvailAccesses;
  p.failure.node_count = kAvailNodes;
  p.failure.duration = days(kAvailDays + 1);
  p.inter = seconds(5);
  p.warmup = days(1);
  return p;
}

// perf-lookup: d2sim performance --scheme=d2 --nodes=300 --users=200
//   --days=2 --kbps=1500 --windows=12 --seed=S  (seq groups, one arc,
//   one worker)
constexpr int kPerfNodes = 300;
constexpr int kPerfUsers = 200;
constexpr int kPerfDays = 2;
constexpr int kPerfKbps = 1500;

core::PerformanceParams perf_params(std::uint64_t seed) {
  core::PerformanceParams p;
  p.system.node_count = kPerfNodes;
  p.system.replicas = 4;
  p.system.seed = seed + 1000;
  p.system.scheme = fs::KeyScheme::kD2;
  p.system.active_load_balance = true;
  p.workload.users = kPerfUsers;
  p.workload.days = kPerfDays;
  p.workload.seed = seed;
  p.workload.target_active_bytes = mB(1) * kPerfNodes;
  p.warmup = hours(18);
  p.window_count = 12;
  p.node_bandwidth = kbps(kPerfKbps);
  p.parallel = false;
  return p;
}

// webcache-churn: d2sim balance --workload=webcache --scheme=d2
//   --nodes=1000 --users=150 --days=7 --seed=S
constexpr int kWebNodes = 1000;
constexpr int kWebClients = 150;
constexpr int kWebDays = 7;

core::BalanceParams web_params(std::uint64_t seed) {
  core::BalanceParams p;
  p.system.node_count = kWebNodes;
  p.system.replicas = 3;
  p.system.seed = seed + 1000;
  p.system.scheme = fs::KeyScheme::kD2;
  p.system.active_load_balance = true;
  p.workload = core::BalanceWorkload::kWebcache;
  p.web.clients = kWebClients;
  p.web.days = kWebDays;
  p.web.seed = seed;
  return p;
}

// repair-ec: d2sim repair --redundancy=rs-6-3 --nodes=300 --days=3
//   --blocks-per-node=25 --retry-mins=30 --seed=S, except that the failure
//   trace is the one --seed=1 draws (failure seed 43) for every S, so each
//   run replays the same correlated failures; S varies block keys,
//   placement, loss draws and the foreground writes. With the default
//   5-minute retries the retry count swings with the seed (README.md).
constexpr int kRepairNodes = 300;
constexpr int kRepairDays = 3;
constexpr std::uint64_t kRepairFailureSeed = 43;

core::DurabilityParams repair_params(std::uint64_t seed) {
  core::DurabilityParams p;
  p.repair.node_count = kRepairNodes;
  p.repair.erasure = true;
  p.repair.ec_data_fragments = 6;
  p.repair.ec_parity_fragments = 3;
  p.repair.block_size = kB(8);
  p.repair.repair_bandwidth = kbps(750);
  p.repair.detect_delay = minutes(10);
  p.repair.retry_delay = minutes(30);
  p.repair.data_loss_fraction = 0.5;
  p.repair.seed = seed + 2000;
  p.blocks_per_node = 25;
  p.writes_per_node_per_day = 24;
  p.failure.duration = days(kRepairDays);
  p.failure.mttf_hours = 120;
  p.failure.mttr_hours = 4;
  p.failure.correlated_events_per_day = 0.6;
  p.failure.correlated_fraction = 0.15;
  p.drain = hours(12);
  p.failure_seed = kRepairFailureSeed;
  return p;
}

// ---------------------------------------------------------------------------
// Output helpers: a flat JSON object built in insertion order.

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
std::string num(std::uint64_t v) { return std::to_string(v); }
std::string num(std::int64_t v) { return std::to_string(v); }

class Json {
 public:
  Json& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + value;
    return *this;
  }
  Json& f(const std::string& key, double v) { return raw(key, num(v)); }
  Json& u(const std::string& key, std::uint64_t v) { return raw(key, num(v)); }
  Json& i(const std::string& key, std::int64_t v) { return raw(key, num(v)); }
  Json& s(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Host-time ledger: named busy-time accumulators and counts. A disabled
// ledger runs the timed callables without reading the clock.

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled) {}

  template <class F>
  decltype(auto) time(const char* name, F&& f) {
    if (!enabled_) return f();
    struct Stop {
      Ledger* l;
      const char* name;
      Clock::time_point t0;
      ~Stop() { l->secs_[name] += since(t0); }
    } stop{this, name, Clock::now()};
    return f();
  }
  void add(const char* name, double v) { values_[name] += v; }
  double secs(const std::string& name) const {
    auto it = secs_.find(name);
    return it == secs_.end() ? 0.0 : it->second;
  }
  double value(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  double total_secs() const {
    double s = 0;
    for (const auto& [name, v] : secs_) s += v;
    return s;
  }

 private:
  bool enabled_;
  std::map<std::string, double> secs_;
  std::map<std::string, double> values_;
};

/// Resident set size of this process in MB (VmRSS), 0 when unreadable.
double rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// run_until split at failure-trace transition times, so node up/down
/// handling is timed apart from the rest of the event drain. A transition
/// time T is run as run_until(T - 1) (advance) then run_until(T)
/// (membership: node_up when an up transition falls at T, else node_down).
class Advancer {
 public:
  Advancer(sim::Simulator& sim, Ledger& ledger) : sim_(sim), ledger_(ledger) {}

  /// Registers the transitions of `trace` (node < node_count) at
  /// `offset + t`, as the experiment's attach_failure_trace schedules them.
  void add_transitions(const sim::FailureTrace& trace, SimTime offset,
                       int node_count) {
    std::map<SimTime, Mark> by_time;
    for (const sim::FailureTrace::Transition& t : trace.transitions()) {
      if (t.node >= node_count) continue;
      Mark& m = by_time[offset + t.time];
      (t.up ? m.ups : m.downs) += 1;
    }
    for (const auto& [when, m] : by_time) {
      marks_.push_back(Mark{when, m.ups, m.downs});
    }
  }

  void run_until(SimTime t) {
    while (next_ < marks_.size() && marks_[next_].when <= t) {
      const Mark& m = marks_[next_++];
      if (m.when < sim_.now()) continue;
      if (m.when > sim_.now()) {
        ledger_.time("sim.advance_s", [&] { sim_.run_until(m.when - 1); });
      }
      const char* bucket = m.ups > 0 ? "core.membership.node_up_s"
                                     : "core.membership.node_down_s";
      ledger_.time(bucket, [&] { sim_.run_until(m.when); });
      ledger_.add("core.membership.node_ups", m.ups);
      ledger_.add("core.membership.node_downs", m.downs);
    }
    ledger_.time("sim.advance_s", [&] { sim_.run_until(t); });
  }

 private:
  struct Mark {
    SimTime when = 0;
    int ups = 0;
    int downs = 0;
  };
  sim::Simulator& sim_;
  Ledger& ledger_;
  std::vector<Mark> marks_;
  std::size_t next_ = 0;
};

/// What a replay produced: the simulated results (compared across runs)
/// and, for traced runs, simulated facts only the rebuild sees.
struct Outcome {
  std::string sim;
  std::map<std::string, double> facts;
  double setup_s = 0;
  double rss_after_setup_mb = 0;
  double rss_after_replay_mb = 0;

  double fact(const std::string& name) const {
    auto it = facts.find(name);
    return it == facts.end() ? 0.0 : it->second;
  }
  std::string facts_json() const {
    Json j;
    for (const auto& [name, v] : facts) j.f(name, v);
    return j.str();
  }
};

// ---------------------------------------------------------------------------
// Simulated-result encoders, shared by the product run and the rebuild.

std::string encode(const core::AvailabilityResult& r) {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::uint64_t users_with_failures = 0;
  for (const auto& [user, u] : r.per_user_unavailability) {
    digest = fnv1a(digest, std::to_string(user) + ":" + num(u) + ";");
    if (u > 0) ++users_with_failures;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
  return Json()
      .u("tasks", r.tasks)
      .u("failed", r.failed_tasks)
      .f("mean_blocks_per_task", r.mean_blocks_per_task)
      .f("mean_files_per_task", r.mean_files_per_task)
      .f("mean_nodes_per_task", r.mean_nodes_per_task)
      .i("migration_bytes", r.migration_bytes)
      .i("lb_moves", r.lb_moves)
      .u("unknown_key_gets", r.unknown_key_gets)
      .u("users", r.per_user_unavailability.size())
      .u("users_with_failures", users_with_failures)
      .s("per_user_digest", hex)
      .str();
}

std::string encode(const core::PerformanceResult& r) {
  std::string groups = "[";
  for (std::size_t i = 0; i < r.groups.size(); ++i) {
    const core::GroupResult& g = r.groups[i];
    groups += (i == 0 ? "[" : ", [") + num(g.group_id) + ", " +
              std::to_string(g.user) + ", " + num(std::int64_t{g.latency}) +
              ", " + std::to_string(g.block_gets) + "]";
  }
  groups += "]";
  return Json()
      .u("nodes", kPerfNodes)
      .u("lookups", r.lookups)
      .u("lookup_messages", r.lookup_messages)
      .f("lookup_messages_per_node", r.lookup_messages_per_node)
      .u("cache_hits", r.cache_hits)
      .u("cache_misses", r.cache_misses)
      .f("mean_cache_miss_rate", r.mean_cache_miss_rate)
      .u("tcp_cold_starts", r.tcp_cold_starts)
      .u("tcp_transfers", r.tcp_transfers)
      .raw("groups", groups)
      .str();
}

std::string encode(const core::BalanceResult& r) {
  std::string days_json = "[";
  for (std::size_t i = 0; i < r.days.size(); ++i) {
    const core::DayStats& d = r.days[i];
    days_json += (i == 0 ? "[" : ", [") + num(std::int64_t{d.written}) + ", " +
                 num(std::int64_t{d.removed}) + ", " +
                 num(std::int64_t{d.migrated}) + ", " +
                 num(std::int64_t{d.total_at_start}) + "]";
  }
  days_json += "]";
  // Max/mean load is 0 while the DHT is empty (the first sample).
  double min_positive = std::numeric_limits<double>::infinity();
  std::uint64_t empty_samples = 0;
  for (double v : r.max_over_mean) {
    if (v > 0) {
      min_positive = std::min(min_positive, v);
    } else {
      ++empty_samples;
    }
  }
  return Json()
      .raw("days", days_json)
      .i("lb_moves", r.lb_moves)
      .u("samples", r.max_over_mean.size())
      .f("mean_imbalance", r.mean_imbalance())
      .f("mean_max_over_mean", r.mean_max_over_mean())
      .f("min_positive_max_over_mean",
         empty_samples == r.max_over_mean.size() ? 0.0 : min_positive)
      .u("empty_samples", empty_samples)
      .str();
}

std::string encode(const core::DurabilityResult& r) {
  const core::RepairStats& s = r.stats;
  return Json()
      .u("blocks", s.blocks)
      .u("blocks_lost", s.blocks_lost)
      .i("repair_bytes", s.repair_bytes)
      .i("user_write_bytes", s.user_write_bytes)
      .u("repairs_started", s.repairs_started)
      .u("repairs_completed", s.repairs_completed)
      .u("repair_retries", s.repair_retries)
      .u("verified_reconstructions", s.verified_reconstructions)
      .u("writes_failed", s.writes_failed)
      .u("mttr_episodes", s.mttr_episodes)
      .f("mttr_mean_s", s.mttr_mean_s)
      .f("mttr_p99_s", s.mttr_p99_s)
      .u("open_episodes", s.open_episodes)
      .u("events", r.events)
      .f("unrecoverable_fraction", r.unrecoverable_fraction)
      .f("l_over_w", r.l_over_w)
      .str();
}

// ---------------------------------------------------------------------------
// Product runs.

std::string run_product(const std::string& workload, std::uint64_t seed,
                        int workers) {
  if (workload == "avail-churn") {
    return encode(core::AvailabilityExperiment(avail_params(seed, workers)).run());
  }
  if (workload == "perf-lookup") {
    return encode(core::PerformanceExperiment(perf_params(seed)).run());
  }
  if (workload == "webcache-churn") {
    return encode(core::BalanceExperiment(web_params(seed)).run());
  }
  return encode(core::run_durability(repair_params(seed)));
}

// ---------------------------------------------------------------------------
// Rebuilt replays. Each follows its experiment's run() call for call; with
// `setup_only` it stops where the replay would start. `reg` is bound
// where the experiment binds its metrics sink.

Outcome replay_avail(const core::AvailabilityParams& p, obs::Registry* reg,
                     Ledger& L, bool setup_only) {
  const auto t0 = Clock::now();
  Outcome out;
  sim::Simulator sim(sim::ArcConfig{p.system.arcs, p.system.arc_workers, 0,
                                    p.system.scheduler});
  sim.bind_metrics(reg);
  core::System system(p.system, sim, reg);
  core::VolumeSet volumes(p.system.scheme);
  volumes.bind_metrics(reg);
  const trace::HarvardGenerator gen = L.time(
      "trace.gen_s", [&] { return trace::HarvardGenerator(p.workload); });
  core::OpBatchRunner batch(system, sim);
  Advancer adv(sim, L);

  std::vector<fs::StoreOp> ops;
  L.time("fs.apply_s", [&] { volumes.insert_initial(gen.initial_files(), 0, ops); });
  L.add("fs.store_ops", static_cast<double>(ops.size()));
  L.time("core.populate_s", [&] {
    for (const fs::StoreOp& op : ops) batch.add(op, 0);
    batch.flush();
  });
  L.time("core.warmup_s", [&] {
    system.start_load_balancing();
    sim.run_until(p.warmup);
  });

  const sim::FailureTrace failure_trace = L.time("trace.gen_s", [&] {
    Rng frng(p.failure_seed);
    return sim::FailureTrace::generate(p.failure, frng);
  });
  system.attach_failure_trace(&failure_trace, p.warmup);
  adv.add_transitions(failure_trace, p.warmup, p.system.node_count);

  const std::vector<trace::TraceRecord>& records = gen.records();
  L.add("trace.records", static_cast<double>(records.size()));
  std::vector<trace::Task> tasks;
  std::vector<std::int32_t> record_task(records.size(), -1);
  L.time("trace.segment_s", [&] {
    tasks = trace::segment_tasks(records, p.inter, p.task_cap);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      for (std::size_t i : tasks[t].record_indices) {
        record_task[i] = static_cast<std::int32_t>(t);
      }
    }
  });
  struct TaskAgg {
    bool failed = false;
    std::uint64_t blocks = 0;
    std::set<std::string_view> files;
    std::set<int> nodes;
  };
  std::vector<TaskAgg> agg(tasks.size());
  out.setup_s = since(t0);
  out.rss_after_setup_mb = rss_mb();
  if (setup_only) return out;

  core::AvailabilityResult result;
  std::uint64_t staged = 0;
  auto drain = [&] {
    if (!batch.empty()) L.add("core.batch.flushes", 1);
    L.time("core.batch.flush_s", [&] { batch.flush(); });
    L.time("core.tasks.aggregate_s", [&] {
      for (const core::OpBatchRunner::GetOutcome& g : batch.outcomes()) {
        TaskAgg& a = agg[static_cast<std::size_t>(g.tag)];
        ++a.blocks;
        if (!g.known) {
          ++result.unknown_key_gets;
          continue;
        }
        if (!g.available) {
          a.failed = true;
        } else if (g.serving >= 0) {
          a.nodes.insert(g.serving);
        }
      }
    });
  };
  std::vector<fs::StoreOp> rec_ops;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const trace::TraceRecord& r = records[i];
    const SimTime abs_t = p.warmup + r.time;
    if (batch.should_flush_before(abs_t)) drain();
    if (batch.empty() && sim.next_event_time() <= abs_t) adv.run_until(abs_t);
    rec_ops.clear();
    L.time("fs.apply_s", [&] { volumes.apply(r, abs_t, rec_ops); });
    L.add("fs.store_ops", static_cast<double>(rec_ops.size()));
    const std::int32_t ti = record_task[i];
    for (const fs::StoreOp& op : rec_ops) {
      if (op.kind != fs::StoreOp::Kind::kGet || ti >= 0) ++staged;
      batch.add(op, abs_t, ti);
    }
    if (ti >= 0) {
      L.time("core.tasks.aggregate_s", [&] {
        agg[static_cast<std::size_t>(ti)].files.insert(r.path);
      });
    }
  }
  drain();
  if (!records.empty()) adv.run_until(p.warmup + records.back().time);
  L.add("core.batch.staged_ops", static_cast<double>(staged));

  L.time("core.tasks.aggregate_s", [&] {
    std::map<int, std::pair<std::uint64_t, std::uint64_t>> per_user;
    double blocks_sum = 0, files_sum = 0, nodes_sum = 0;
    std::uint64_t counted = 0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const TaskAgg& a = agg[t];
      ++result.tasks;
      auto& [total, failed] = per_user[tasks[t].user];
      ++total;
      if (a.failed) {
        ++result.failed_tasks;
        ++failed;
      }
      if (a.blocks > 0) {
        ++counted;
        blocks_sum += static_cast<double>(a.blocks);
        files_sum += static_cast<double>(a.files.size());
        nodes_sum += static_cast<double>(a.nodes.size());
      }
    }
    if (counted > 0) {
      result.mean_blocks_per_task = blocks_sum / static_cast<double>(counted);
      result.mean_files_per_task = files_sum / static_cast<double>(counted);
      result.mean_nodes_per_task = nodes_sum / static_cast<double>(counted);
    }
    for (const auto& [user, counts] : per_user) {
      result.per_user_unavailability[user] =
          counts.first == 0 ? 0.0
                            : static_cast<double>(counts.second) /
                                  static_cast<double>(counts.first);
    }
  });
  result.migration_bytes = system.migration_bytes();
  result.lb_moves = system.lb_moves();
  sim.export_metrics();
  out.sim = encode(result);
  out.rss_after_replay_mb = rss_mb();
  return out;
}

Outcome replay_perf(const core::PerformanceParams& p, obs::Registry* reg,
                    Ledger& L, bool setup_only) {
  const auto t0 = Clock::now();
  Outcome out;
  sim::Simulator sim(sim::ArcConfig{p.system.arcs, p.system.arc_workers, 0,
                                    p.system.scheduler});
  sim.bind_metrics(reg);
  core::System system(p.system, sim, reg);
  core::VolumeSet volumes(p.system.scheme);
  volumes.bind_metrics(reg);
  const trace::HarvardGenerator gen = L.time(
      "trace.gen_s", [&] { return trace::HarvardGenerator(p.workload); });
  Rng rng(p.system.seed ^ 0x1234567);
  Advancer adv(sim, L);

  std::vector<fs::StoreOp> ops;
  L.time("fs.apply_s", [&] { volumes.insert_initial(gen.initial_files(), 0, ops); });
  L.add("fs.store_ops", static_cast<double>(ops.size()));
  L.time("core.populate_s", [&] {
    for (const fs::StoreOp& op : ops) {
      if (op.kind == fs::StoreOp::Kind::kPut) system.put(op.key, op.size);
    }
  });
  L.time("core.warmup_s", [&] {
    system.start_load_balancing();
    sim.run_until(p.warmup);
  });

  const int n = p.system.node_count;
  net::LatencyModel latency(n, rng, p.mean_rtt_ms);
  net::TcpModel tcp;
  std::vector<sim::BandwidthLink> uplinks;
  uplinks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    uplinks.emplace_back(p.node_bandwidth);
    uplinks.back().bind_metrics(reg, "net.uplink");
  }
  dht::Router router(system.ring(), rng);
  router.bind_metrics(reg);
  std::unordered_map<int, int> user_node;
  std::unordered_map<int, store::LookupCache> caches;
  auto cache_of = [&](int user) -> store::LookupCache& {
    auto it = caches.find(user);
    if (it == caches.end()) {
      it = caches.emplace(user, store::LookupCache(p.lookup_cache_ttl)).first;
      it->second.bind_metrics(reg);
    }
    return it->second;
  };
  auto node_of = [&](int user) -> int {
    auto it = user_node.find(user);
    if (it == user_node.end()) {
      it = user_node
               .emplace(user, static_cast<int>(rng.next_below(
                                  static_cast<std::uint64_t>(n))))
               .first;
    }
    return it->second;
  };

  const std::vector<trace::TraceRecord>& records = gen.records();
  L.add("trace.records", static_cast<double>(records.size()));
  std::vector<trace::AccessGroup> groups;
  std::vector<std::int32_t> record_group(records.size(), -1);
  std::vector<std::size_t> group_last_record;
  L.time("trace.segment_s", [&] {
    groups = trace::segment_access_groups(records);
    group_last_record.assign(groups.size(), 0);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (std::size_t i : groups[g].record_indices) {
        record_group[i] = static_cast<std::int32_t>(g);
        group_last_record[g] = std::max(group_last_record[g], i);
      }
    }
  });
  const std::vector<SimTime> windows =
      core::pick_performance_windows(p.workload, p.window_count, p.window_length);
  auto in_window = [&](SimTime t) {
    for (SimTime w : windows) {
      if (t >= w && t < w + p.window_length) return true;
    }
    return false;
  };
  out.setup_s = since(t0);
  out.rss_after_setup_mb = rss_mb();
  if (setup_only) return out;

  core::PerformanceResult result;
  auto simulate_get = [&](int user, Key key, Bytes size, SimTime start) {
    store::LookupCache& cache = cache_of(user);
    const int client = node_of(user);
    SimTime t = start;
    const int owner = system.owner_of(key);
    const std::optional<int> cached =
        L.time("store.lookup_cache.find_s", [&] { return cache.find(t, key); });
    if (cached && *cached == owner) {
      cache.record_hit();
      ++result.cache_hits;
    } else {
      if (cached) cache.invalidate(t, key);
      cache.record_miss();
      ++result.cache_misses;
      const dht::Router::LookupResult lr = L.time(
          "dht.router.lookup_s", [&] { return router.lookup(client, key); });
      ++result.lookups;
      result.lookup_messages += static_cast<std::uint64_t>(lr.messages);
      SimTime lookup_lat = 0;
      for (std::size_t h = 0; h + 1 < lr.path.size(); ++h) {
        lookup_lat += latency.one_way(lr.path[h], lr.path[h + 1]);
      }
      lookup_lat += latency.one_way(lr.owner, client);
      t += lookup_lat;
      const auto [arc_from, arc_to] = system.ring().owned_arc(lr.owner);
      L.time("store.lookup_cache.insert_s",
             [&] { cache.insert(t, lr.owner, arc_from, arc_to); });
    }
    const std::vector<int> replicas = system.replica_nodes(key);
    int server = owner;
    if (!replicas.empty()) {
      if (p.closest_replica) {
        server = replicas.front();
        for (const int candidate : replicas) {
          if (latency.rtt(client, candidate) < latency.rtt(client, server)) {
            server = candidate;
          }
        }
      } else {
        server = replicas[rng.next_below(replicas.size())];
      }
    }
    return L.time("net.get_s", [&] {
      const int rtts = tcp.transfer_rtts(client, server, t, size);
      const SimTime bw_done =
          uplinks[static_cast<std::size_t>(server)].enqueue(t, size);
      const SimTime finish = std::max(
          t + static_cast<SimTime>(rtts) * latency.rtt(client, server), bw_done);
      tcp.touch(client, server, finish);
      return finish;
    });
  };
  struct PendingGet {
    Key key;
    Bytes size;
  };
  auto simulate_group = [&](int user, const std::vector<PendingGet>& gets,
                            SimTime group_start) -> SimTime {
    if (gets.empty()) return 0;
    if (!p.parallel) {
      SimTime t = group_start;
      for (const PendingGet& g : gets) t = simulate_get(user, g.key, g.size, t);
      return t - group_start;
    }
    std::priority_queue<SimTime, std::vector<SimTime>, std::greater<>> active;
    std::size_t next = 0;
    SimTime last_finish = group_start;
    while (next < gets.size() &&
           static_cast<int>(active.size()) < p.max_concurrent_transfers) {
      const PendingGet& g = gets[next++];
      active.push(simulate_get(user, g.key, g.size, group_start));
    }
    while (!active.empty()) {
      const SimTime f = active.top();
      active.pop();
      last_finish = std::max(last_finish, f);
      if (next < gets.size()) {
        const PendingGet& g = gets[next++];
        active.push(simulate_get(user, g.key, g.size, f));
      }
    }
    return last_finish - group_start;
  };

  std::vector<std::vector<PendingGet>> group_gets(groups.size());
  std::vector<fs::StoreOp> rec_ops;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const trace::TraceRecord& r = records[i];
    const SimTime abs_t = p.warmup + r.time;
    adv.run_until(abs_t);
    rec_ops.clear();
    L.time("fs.apply_s", [&] { volumes.apply(r, abs_t, rec_ops); });
    L.add("fs.store_ops", static_cast<double>(rec_ops.size()));
    const bool windowed = in_window(r.time);
    for (const fs::StoreOp& op : rec_ops) {
      switch (op.kind) {
        case fs::StoreOp::Kind::kPut:
          L.time("core.system.put_s", [&] { system.put(op.key, op.size); });
          break;
        case fs::StoreOp::Kind::kRemove:
          L.time("core.system.remove_s", [&] { system.remove(op.key); });
          break;
        case fs::StoreOp::Kind::kGet:
          if (windowed && record_group[i] >= 0) {
            group_gets[static_cast<std::size_t>(record_group[i])].push_back(
                PendingGet{op.key, op.size});
          } else {
            const int owner = system.owner_of(op.key);
            const auto [arc_from, arc_to] = system.ring().owned_arc(owner);
            store::LookupCache& cache = cache_of(r.user);
            L.time("store.lookup_cache.insert_s",
                   [&] { cache.insert(abs_t, owner, arc_from, arc_to); });
          }
          break;
      }
    }
    const std::int32_t g = record_group[i];
    if (g >= 0 && group_last_record[static_cast<std::size_t>(g)] == i &&
        windowed && !group_gets[static_cast<std::size_t>(g)].empty()) {
      const auto gi = static_cast<std::size_t>(g);
      const SimTime lat = simulate_group(groups[gi].user, group_gets[gi],
                                         p.warmup + groups[gi].start);
      result.groups.push_back(core::GroupResult{
          groups[gi].user, static_cast<std::uint64_t>(g), lat,
          static_cast<int>(group_gets[gi].size())});
      group_gets[gi].clear();
      group_gets[gi].shrink_to_fit();
    }
  }

  result.lookup_messages_per_node = static_cast<double>(result.lookup_messages) / n;
  Stats miss_rates;
  for (const auto& [user, cache] : caches) {
    if (cache.hits() + cache.misses() > 0) miss_rates.add(cache.miss_rate());
  }
  if (!miss_rates.empty()) result.mean_cache_miss_rate = miss_rates.mean();
  result.tcp_cold_starts = tcp.cold_starts();
  result.tcp_transfers = tcp.transfers();
  sim.export_metrics();
  out.sim = encode(result);
  out.rss_after_replay_mb = rss_mb();
  return out;
}

/// The balance experiment's hourly imbalance sampler (a trivially
/// copyable functor, as the event queue's inline captures require).
struct ImbalanceSampler {
  sim::Simulator* sim;
  core::System* system;
  core::BalanceResult* result;
  SimTime workload_start;
  SimTime interval;

  void operator()() const {
    result->imbalance.emplace_back(sim->now() - workload_start,
                                   system->load_imbalance());
    result->max_over_mean.push_back(system->max_over_mean_load());
    sim->schedule_after(interval, *this);
  }
};

Outcome replay_web(const core::BalanceParams& p, obs::Registry* reg, Ledger& L,
                   bool setup_only) {
  const auto t0 = Clock::now();
  Outcome out;
  sim::Simulator sim(sim::ArcConfig{p.system.arcs, p.system.arc_workers, 0,
                                    p.system.scheduler});
  sim.bind_metrics(reg);
  core::System system(p.system, sim, reg);
  core::BalanceResult result;
  const SimTime workload_start = 0;
  const int trace_days = p.web.days;
  const ImbalanceSampler sample{&sim, &system, &result, workload_start,
                                p.sample_interval};
  std::vector<Bytes> w_marks, r_marks, l_marks, totals;
  auto day_mark = [&] {
    w_marks.push_back(system.user_write_bytes());
    r_marks.push_back(system.user_removed_bytes());
    l_marks.push_back(system.migration_bytes());
    totals.push_back(system.block_map().total_bytes());
  };
  core::WebCache cache(system, p.system.scheme);
  const trace::WebGenerator gen =
      L.time("trace.gen_s", [&] { return trace::WebGenerator(p.web); });
  L.time("core.warmup_s", [&] { system.start_load_balancing(); });
  sim.schedule_after(0, sample);
  Advancer adv(sim, L);
  L.add("trace.records", static_cast<double>(gen.records().size()));
  out.setup_s = since(t0);
  out.rss_after_setup_mb = rss_mb();
  if (setup_only) return out;

  std::uint64_t fresh_hits = 0;
  std::uint64_t past_last_day = 0;  // replayed, but in no day row
  int next_day = 0;
  for (const trace::TraceRecord& r : gen.records()) {
    while (next_day <= trace_days && r.time >= days(next_day)) {
      adv.run_until(days(next_day));
      day_mark();
      ++next_day;
    }
    adv.run_until(r.time);
    if (r.time >= days(trace_days)) ++past_last_day;
    const bool hit = L.time("core.webcache.request_s", [&] {
      return cache.request(r.path, std::max<Bytes>(r.length, 1));
    });
    if (hit) ++fresh_hits;
  }
  while (next_day <= trace_days) {
    adv.run_until(days(next_day));
    day_mark();
    ++next_day;
  }
  for (std::size_t i = 0; i + 1 < w_marks.size(); ++i) {
    core::DayStats d;
    d.written = w_marks[i + 1] - w_marks[i];
    d.removed = r_marks[i + 1] - r_marks[i];
    d.migrated = l_marks[i + 1] - l_marks[i];
    d.total_at_start = totals[i];
    result.days.push_back(d);
  }
  result.lb_moves = system.lb_moves();
  sim.export_metrics();
  out.sim = encode(result);
  out.rss_after_replay_mb = rss_mb();
  out.facts = {
      {"requests", static_cast<double>(gen.records().size())},
      {"fresh_hits", static_cast<double>(fresh_hits)},
      {"hits", static_cast<double>(cache.hits())},
      {"misses", static_cast<double>(cache.misses())},
      {"version_replacements", static_cast<double>(cache.version_replacements())},
      {"resident_bytes_last_boundary", static_cast<double>(totals.back())},
      {"requests_past_last_day", static_cast<double>(past_last_day)},
  };
  return out;
}

Outcome replay_repair(const core::DurabilityParams& p, obs::Registry* reg,
                      Ledger& L, bool setup_only) {
  const auto t0 = Clock::now();
  Outcome out;
  sim::ArcConfig ac;
  ac.arcs = p.repair.arcs;
  ac.workers = p.arc_workers;
  ac.lookahead = 0;
  ac.scheduler = p.repair.scheduler;
  sim::Simulator sim(ac);
  sim.bind_metrics(reg);
  core::RepairEngine engine(p.repair, sim);
  L.time("core.populate_s", [&] {
    engine.populate(static_cast<std::int64_t>(p.blocks_per_node) *
                    p.repair.node_count);
  });
  sim::FailureParams fp = p.failure;
  fp.node_count = p.repair.node_count;
  const sim::FailureTrace trace = L.time("trace.gen_s", [&] {
    Rng trace_rng(p.failure_seed);
    return sim::FailureTrace::generate(fp, trace_rng);
  });
  L.add("trace.records", static_cast<double>(trace.transitions().size()));
  engine.attach_failure_trace(trace);
  if (p.writes_per_node_per_day > 0) {
    engine.start_foreground_writes(p.writes_per_node_per_day, fp.duration);
  }
  Advancer adv(sim, L);
  adv.add_transitions(trace, 0, fp.node_count);
  out.setup_s = since(t0);
  out.rss_after_setup_mb = rss_mb();
  if (setup_only) return out;

  adv.run_until(fp.duration + p.drain);
  L.time("core.repair.audit_s", [&] { engine.check_invariants(); });
  core::DurabilityResult result;
  result.stats = engine.snapshot();
  result.events = sim.events_processed();
  result.unrecoverable_fraction =
      result.stats.blocks == 0
          ? 0.0
          : static_cast<double>(result.stats.blocks_lost) /
                static_cast<double>(result.stats.blocks);
  result.l_over_w =
      result.stats.user_write_bytes == 0
          ? 0.0
          : static_cast<double>(result.stats.repair_bytes) /
                static_cast<double>(result.stats.user_write_bytes);
  sim.export_metrics();
  out.sim = encode(result);
  out.rss_after_replay_mb = rss_mb();
  out.facts = {
      {"repairs_started", static_cast<double>(result.stats.repairs_started)},
      {"repairs_completed", static_cast<double>(result.stats.repairs_completed)},
      {"repair_retries", static_cast<double>(result.stats.repair_retries)},
      {"repair_bytes", static_cast<double>(result.stats.repair_bytes)},
  };
  return out;
}

Outcome replay(const std::string& workload, std::uint64_t seed,
               obs::Registry* reg, Ledger& L, bool setup_only) {
  if (workload == "avail-churn") {
    return replay_avail(avail_params(seed, kAvailWorkers), reg, L, setup_only);
  }
  if (workload == "perf-lookup") {
    return replay_perf(perf_params(seed), reg, L, setup_only);
  }
  if (workload == "webcache-churn") {
    return replay_web(web_params(seed), reg, L, setup_only);
  }
  return replay_repair(repair_params(seed), reg, L, setup_only);
}

// ---------------------------------------------------------------------------
// Per-layer report of a traced run.

double counter(const obs::Registry& reg, const std::string& name) {
  const obs::Counter* c = reg.find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}
double gauge(const obs::Registry& reg, const std::string& name) {
  const obs::Gauge* g = reg.find_gauge(name);
  return g == nullptr ? 0.0 : g->value();
}
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string layer_report(const obs::Registry& reg,
                         const Ledger& L, const Outcome& o, double total_s) {
  Json j;
  const auto t = [&](const char* name) { j.f(name, L.secs(name)); };
  t("trace.gen_s");
  t("trace.segment_s");
  j.f("trace.records", L.value("trace.records"));
  t("fs.apply_s");
  j.f("fs.store_ops", L.value("fs.store_ops"));
  j.f("fs.writeback.coalesced_ratio",
      ratio(counter(reg, "fs.writeback_cache.coalesced_puts"),
            counter(reg, "fs.writeback_cache.staged_puts")));
  t("core.populate_s");
  t("core.warmup_s");
  t("core.batch.flush_s");
  j.f("core.batch.flushes", L.value("core.batch.flushes"));
  j.f("core.batch.ops_per_flush",
      ratio(L.value("core.batch.staged_ops"), L.value("core.batch.flushes")));
  t("core.membership.node_up_s");
  j.f("core.membership.node_ups", L.value("core.membership.node_ups"));
  t("core.membership.node_down_s");
  j.f("core.membership.node_downs", L.value("core.membership.node_downs"));
  t("core.system.put_s");
  t("core.system.remove_s");
  t("core.webcache.request_s");
  j.f("core.webcache.hit_ratio", ratio(o.fact("fresh_hits"), o.fact("requests")));
  t("core.tasks.aggregate_s");
  t("core.repair.audit_s");
  j.f("core.repair.completed", o.fact("repairs_completed"));
  j.f("core.repair.retries", o.fact("repair_retries"));
  j.f("core.repair.retry_ratio",
      ratio(o.fact("repair_retries"), o.fact("repairs_started")));
  j.f("core.repair.bytes", o.fact("repair_bytes"));
  t("sim.advance_s");
  j.f("sim.events", counter(reg, "sim.events_processed"));
  j.f("sim.windows", gauge(reg, "sim.window.count"));
  j.f("sim.events_per_window", gauge(reg, "sim.window.events_mean"));
  j.f("sim.lane_busy_fraction", gauge(reg, "sim.window.lane_busy_fraction"));
  j.f("sim.migration.transfers", counter(reg, "sim.migration_link.transfers"));
  j.f("sim.migration.bytes", counter(reg, "sim.migration_link.queued_bytes"));
  const double probes = counter(reg, "dht.load_balancer.probes");
  const double moves = counter(reg, "system.lb_moves");
  j.f("dht.lb.probes", probes);
  j.f("dht.lb.moves", moves);
  j.f("dht.lb.move_ratio", ratio(moves, probes));
  t("dht.router.lookup_s");
  j.f("dht.router.lookups", counter(reg, "dht.router.lookups"));
  const obs::Histogram* hops = reg.find_histogram("dht.router.hops");
  const bool have_hops = hops != nullptr && hops->count() > 0;
  j.f("dht.router.hops_p50", have_hops ? hops->percentile(50) : 0.0);
  j.f("dht.router.hops_p99", have_hops ? hops->percentile(99) : 0.0);
  t("store.lookup_cache.find_s");
  t("store.lookup_cache.insert_s");
  const double hits = counter(reg, "store.lookup_cache.hits");
  j.f("store.lookup_cache.hit_ratio",
      ratio(hits, hits + counter(reg, "store.lookup_cache.misses")));
  j.f("store.lookup_cache.evictions", counter(reg, "store.lookup_cache.evictions"));
  j.f("store.replica_fetches", counter(reg, "system.replica_fetches"));
  j.f("store.pointer_promotions", counter(reg, "system.pointer_promotions"));
  t("net.get_s");
  j.f("net.tcp.cold_start_ratio", gauge(reg, "net.tcp.cold_start_rate"));
  j.f("net.uplink.transfers", counter(reg, "net.uplink.transfers"));
  j.f("mem.rss_after_setup_mb", o.rss_after_setup_mb);
  j.f("mem.rss_after_replay_mb", o.rss_after_replay_mb);
  j.f("bench.setup_s", o.setup_s);
  j.f("bench.traced_run_s", total_s);
  j.f("bench.unattributed_s", std::max(0.0, total_s - L.total_secs()));
  return j.str();
}

// ---------------------------------------------------------------------------
// Independent recomputation for run.py's checks.

/// Task count by the §8.1 rule (same-user accesses, gaps < inter, task
/// length <= cap), written apart from trace::segment_tasks.
std::uint64_t count_tasks(const std::vector<trace::TraceRecord>& records,
                          SimTime inter, SimTime cap) {
  struct Open {
    SimTime start;
    SimTime last;
  };
  std::map<int, Open> open;
  std::uint64_t tasks = 0;
  for (const trace::TraceRecord& r : records) {
    using Op = trace::TraceRecord::Op;
    if (r.op != Op::kRead && r.op != Op::kWrite && r.op != Op::kCreate) continue;
    auto it = open.find(r.user);
    if (it != open.end() && r.time - it->second.last < inter &&
        r.time - it->second.start <= cap) {
      it->second.last = r.time;
      continue;
    }
    ++tasks;
    open[r.user] = Open{r.time, r.time};
  }
  return tasks;
}

std::string run_check(const std::string& workload, std::uint64_t seed) {
  if (workload == "avail-churn") {
    const core::AvailabilityParams p = avail_params(seed, 1);
    const trace::HarvardGenerator gen(p.workload);
    // Largest number of nodes that fail at one instant inside the replay
    // (the correlated mass failure the workload must include).
    Rng frng(p.failure_seed);
    const sim::FailureTrace ft = sim::FailureTrace::generate(p.failure, frng);
    const SimTime end = gen.records().empty() ? 0 : gen.records().back().time;
    std::map<SimTime, int> downs;
    for (const sim::FailureTrace::Transition& t : ft.transitions()) {
      if (!t.up && t.node < p.system.node_count && t.time <= end) ++downs[t.time];
    }
    int mass = 0;
    for (const auto& [when, k] : downs) mass = std::max(mass, k);
    return Json()
        .u("tasks", count_tasks(gen.records(), p.inter, p.task_cap))
        .i("nodes", p.system.node_count)
        .i("mass_failure_nodes", mass)
        .str();
  }
  if (workload == "perf-lookup") {
    // Bytes and gets of every windowed access group, from the file layer
    // alone: group ids number per-user runs of accesses with gaps <= 1 s
    // in order of their first access.
    const core::PerformanceParams p = perf_params(seed);
    const trace::HarvardGenerator gen(p.workload);
    const std::vector<SimTime> windows = core::pick_performance_windows(
        p.workload, p.window_count, p.window_length);
    core::VolumeSet volumes(p.system.scheme);
    std::vector<fs::StoreOp> ops;
    volumes.insert_initial(gen.initial_files(), 0, ops);
    std::map<int, std::pair<std::int64_t, SimTime>> open;  // user -> (id, last)
    std::int64_t next_id = 0;
    std::map<std::int64_t, std::pair<std::int64_t, std::int64_t>> bytes;
    for (const trace::TraceRecord& r : gen.records()) {
      using Op = trace::TraceRecord::Op;
      std::int64_t gid = -1;
      if (r.op == Op::kRead || r.op == Op::kWrite || r.op == Op::kCreate) {
        auto it = open.find(r.user);
        if (it != open.end() && r.time - it->second.second <= seconds(1)) {
          it->second.second = r.time;
        } else {
          open[r.user] = {next_id++, r.time};
        }
        gid = open[r.user].first;
      }
      ops.clear();
      volumes.apply(r, p.warmup + r.time, ops);
      bool windowed = false;
      for (SimTime w : windows) {
        if (r.time >= w && r.time < w + p.window_length) windowed = true;
      }
      if (!windowed || gid < 0) continue;
      for (const fs::StoreOp& op : ops) {
        if (op.kind != fs::StoreOp::Kind::kGet) continue;
        auto& [b, g] = bytes[gid];
        b += op.size;
        g += 1;
      }
    }
    std::string list = "[";
    for (const auto& [gid, bg] : bytes) {
      list += (list.size() == 1 ? "[" : ", [") + num(gid) + ", " +
              num(bg.first) + ", " + num(bg.second) + "]";
    }
    list += "]";
    return Json()
        .u("records", gen.records().size())
        .raw("group_bytes", list)
        .u("uplink_bps", static_cast<std::uint64_t>(p.node_bandwidth))
        .str();
  }
  if (workload == "webcache-churn") {
    const trace::WebGenerator gen(web_params(seed).web);
    return Json().u("requests", gen.records().size()).str();
  }
  return "{}";
}

// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: d2bench <run|setup|traced|check|host> "
               "--workload=avail-churn|perf-lookup|webcache-churn|repair-ec "
               "--seed=N [--arc-workers=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t0 = Clock::now();
#if defined(D2_PARANOID) || !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "d2bench: refusing to time a paranoid or unoptimized build "
               "(build type %s)\n",
               D2BENCH_BUILD_TYPE);
  return 3;
#endif
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return usage();
    flags[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  const std::string workload = flags["workload"];
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), workload) ==
      std::end(kWorkloads)) {
    return usage();
  }
  if (mode == "host") {
    std::printf("%s\n", Json()
                            .s("build_type", D2BENCH_BUILD_TYPE)
                            .s("compiler", D2BENCH_COMPILER)
                            .raw("paranoid", "false")
                            .raw("optimized", "true")
                            .i("arc_workers", workload == "avail-churn"
                                                  ? kAvailWorkers
                                                  : 1)
                            .str()
                            .c_str());
    return 0;
  }
  if (flags.count("seed") == 0) return usage();
  const std::uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  try {
    if (mode == "run") {
      const int workers = flags.count("arc-workers") != 0
                              ? std::atoi(flags["arc-workers"].c_str())
                              : kAvailWorkers;
      const std::string sim = run_product(workload, seed, workers);
      std::printf("%s\n", Json().raw("sim", sim).str().c_str());
    } else if (mode == "setup") {
      const double min_seconds = std::strtod(flags["min-seconds"].c_str(), nullptr);
      std::vector<double> times;
      do {
        Ledger off(false);
        times.push_back(replay(workload, seed, nullptr, off, true).setup_s);
      } while (since(t0) < min_seconds);
      std::sort(times.begin(), times.end());
      const std::size_t mid = times.size() / 2;
      const double median = times.size() % 2 == 1
                                ? times[mid]
                                : (times[mid - 1] + times[mid]) / 2;
      std::printf("%s\n", Json()
                              .f("setup_s", median)
                              .u("setups", times.size())
                              .str()
                              .c_str());
    } else if (mode == "traced") {
      obs::Registry reg;
      Ledger ledger(true);
      const Outcome o = replay(workload, seed, &reg, ledger, false);
      const double total = since(t0);
      std::printf("%s\n",
                  Json()
                      .raw("sim", o.sim)
                      .raw("facts", o.facts_json())
                      .raw("layers", layer_report(reg, ledger, o, total))
                      .str()
                      .c_str());
    } else if (mode == "check") {
      std::printf("%s\n", run_check(workload, seed).c_str());
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "d2bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
