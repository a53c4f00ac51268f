// vltbench: end-to-end and per-layer host-time benchmark of vltsim.
//
//   vltbench --workload figures|vlt|scalar-threads --seed N --seconds S
//            --trace 0|1 [--out DIR] [--commit ID] [--source ID]
//   vltbench --list figures     (the figures cell keys, in pass order)
//
// A run sets the workload up several times, then runs closed-loop passes
// over its cells until S seconds have passed. --trace 0 reports the
// end-to-end metrics; --trace 1 alternates untraced and traced passes and
// reports the per-layer metrics, the per-layer self times and the tracing
// overhead. Every cell must be ok and verified and every pass must
// serialize byte-identical results. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; README.md defines
// every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "campaign/campaign.hpp"
#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "grids.hpp"
#include "machine/simulator.hpp"
#include "spans.hpp"

#ifndef VLTBENCH_BUILD_TYPE
#define VLTBENCH_BUILD_TYPE ""
#endif
#ifndef VLTBENCH_COMPILER
#define VLTBENCH_COMPILER ""
#endif

namespace {

namespace campaign = vlt::campaign;
namespace machine = vlt::machine;
namespace workloads = vlt::workloads;
using Clock = std::chrono::steady_clock;
using vltbench::Scope;
using vltbench::Span;
using vltbench::Tracer;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// The figures workload runs each driver grid at this many campaign
/// threads (capped at the host's core count): the drivers' default is one
/// per core, and a fixed count keeps runs on one host comparable.
constexpr unsigned kMaxCampaignThreads = 4;
/// Minimum set-up repetitions per run; setup_s is their median.
constexpr std::size_t kMinSetupReps = 9;

double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Continued fraction of the regularized incomplete beta function
/// (modified Lentz; Numerical Recipes' betacf).
double beta_cf(double a, double b, double x) {
  constexpr int kMaxIter = 1000;
  constexpr double kEps = 1e-14, kTiny = 1e-300;
  auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1.0, d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    if (std::fabs(d * c - 1.0) < kEps) break;
  }
  return h;
}

/// CDF of the Beta(a, b) distribution at x.
double beta_cdf(double x, double a, double b) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_cf(a, b, x) / a;
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

/// Harrell-Davis quantile (q in [0, 1]); 0 for an empty sample. A
/// beta-weighted mean of every order statistic rather than the one or two
/// next to rank q, so on a small sample (a serial pass has 15 cells) it
/// does not hang on a single cell's timing.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q <= 0.0) return v.front();
  if (q >= 1.0) return v.back();
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
  double sum = 0.0, below = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double upto = beta_cdf(static_cast<double>(i + 1) / n, a, b);
    sum += (upto - below) * v[i];
    below = upto;
  }
  return sum;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::uint64_t digest_of(const std::string& bytes) {
  vlt::Digest d;
  d.mix(bytes);
  return d.value();
}

// --------------------------------------------------------------------------
// Workloads

/// One benchmark workload after set-up: its cell groups and the campaign
/// that runs them.
struct Bench {
  /// figures: one spec per driver, each run by one Campaign::run. The
  /// serial workloads: one spec whose cells the benchmark runs itself.
  std::vector<campaign::SweepSpec> groups;
  bool uses_campaign = false;
  unsigned threads = 1;
  campaign::Campaign campaign;
  /// Every cell's key, in slot order (groups concatenated).
  std::vector<campaign::RunKey> keys;
};

bool known_workload(const std::string& name) {
  return name == "figures" || name == "vlt" || name == "scalar-threads";
}

Bench setup(const std::string& name, unsigned threads) {
  Bench b;
  if (name == "figures") {
    b.groups = vltbench::figures_specs();
    b.uses_campaign = true;
    b.threads = threads;
    campaign::CampaignOptions opts;
    opts.threads = threads;
    b.campaign = campaign::Campaign(opts);
  } else if (name == "vlt") {
    b.groups.push_back(vltbench::vlt_spec());
  } else {
    b.groups.push_back(vltbench::scalar_threads_spec());
  }
  for (const campaign::SweepSpec& spec : b.groups)
    for (const campaign::Cell& cell : spec.cells())
      b.keys.push_back(cell.key());
  return b;
}

/// Cells whose key already ran earlier in the same pass (figures: the
/// drivers share their base cells).
std::size_t repeat_cells(const std::vector<campaign::RunKey>& keys) {
  std::map<campaign::RunKey, int> seen;
  std::size_t repeats = 0;
  for (const campaign::RunKey& k : keys)
    if (seen[k]++ > 0) ++repeats;
  return repeats;
}

// --------------------------------------------------------------------------
// Tracing hooks

/// Delegates to a real workload and records spans around the two calls
/// Simulator::run makes into the workloads layer, so the traced run times
/// that work in place instead of repeating it.
class TimedWorkload final : public workloads::Workload {
 public:
  TimedWorkload(workloads::WorkloadPtr inner, Tracer& tracer, int parent,
                int cell)
      : inner_(std::move(inner)),
        tracer_(&tracer),
        parent_(parent),
        cell_(cell) {}

  std::string name() const override { return inner_->name(); }
  void init_memory(vlt::func::FuncMemory& mem) const override {
    Scope s(tracer_, "workloads.init_memory", parent_, cell_);
    inner_->init_memory(mem);
  }
  machine::ParallelProgram build(
      const workloads::Variant& variant) const override {
    return build(variant, vlt::IsaId::kVlt);
  }
  machine::ParallelProgram build(const workloads::Variant& variant,
                                 vlt::IsaId isa) const override {
    Scope s(tracer_, "workloads.build", parent_, cell_);
    return inner_->build(variant, isa);
  }
  bool supports_isa(vlt::IsaId isa) const override {
    return inner_->supports_isa(isa);
  }
  std::optional<std::string> verify(
      const vlt::func::FuncMemory& mem) const override {
    return inner_->verify(mem);
  }
  bool supports(workloads::Variant::Kind kind) const override {
    return inner_->supports(kind);
  }

 private:
  workloads::WorkloadPtr inner_;
  Tracer* tracer_;
  int parent_;
  int cell_;
};

/// Brackets figures cells from outside the campaign: a cell starts when a
/// worker calls its Cell::make and ends when CampaignOptions::progress
/// reports it. Each slot is touched by the one worker that runs it.
struct FiguresTrace {
  struct Open {
    int cell_id = -1;
    int cell_span = -1;
    int run_span = -1;
  };

  Tracer* tracer = nullptr;
  int group_span = -1;  // the open campaign.run span; -1 outside one
  std::size_t group_offset = 0;
  int cell_id_base = 0;
  std::vector<std::map<campaign::RunKey, std::size_t>> index;  // per group
  std::size_t group = 0;
  std::vector<Open> open;  // per slot

  workloads::WorkloadPtr make_cell(
      std::size_t slot, const std::function<workloads::WorkloadPtr()>& inner) {
    // SweepSpec::add also calls make once, for the cell's name.
    if (group_span < 0) return inner();
    Open& o = open[slot];
    o.cell_id = cell_id_base + static_cast<int>(slot);
    o.cell_span = tracer->open("cell", group_span, o.cell_id);
    workloads::WorkloadPtr w;
    {
      Scope make(tracer, "workloads.make", o.cell_span, o.cell_id);
      w = inner();
    }
    o.run_span = tracer->open("machine.run", o.cell_span, o.cell_id);
    return std::make_unique<TimedWorkload>(std::move(w), *tracer, o.run_span,
                                           o.cell_id);
  }

  void cell_done(const campaign::RunKey& key) {
    const Open& o = open[group_offset + index[group].at(key)];
    tracer->close(o.run_span);
    tracer->close(o.cell_span);
  }
};

// --------------------------------------------------------------------------
// Passes

struct CellRecord {
  double run_ms = 0.0;
  std::uint64_t cycles = 0;
  bool ok = false;
  std::uint64_t digest = 0;  // of RunResult::to_json() bytes
};

struct PassRecord {
  bool traced = false;
  double wall_s = 0.0;
  std::vector<CellRecord> cells;  // slot order
};

class Runner {
 public:
  Runner(const Bench& bench, std::uint64_t seed, Tracer* tracer)
      : bench_(bench), rng_(seed * 0x9E3779B97F4A7C15ull + 1) {
    first_results_.resize(bench.keys.size());
    if (tracer == nullptr || !bench.uses_campaign) return;
    fig_.tracer = tracer;
    fig_.open.resize(bench.keys.size());
    campaign::CampaignOptions opts;
    opts.threads = bench.threads;
    opts.progress = [this](std::size_t, std::size_t,
                           const campaign::RunKey& key,
                           bool) { fig_.cell_done(key); };
    traced_campaign_ = campaign::Campaign(opts);
    std::size_t offset = 0;
    for (const campaign::SweepSpec& spec : bench.groups) {
      campaign::SweepSpec traced;
      std::map<campaign::RunKey, std::size_t> index;
      for (std::size_t i = 0; i < spec.size(); ++i) {
        const campaign::Cell& cell = spec.cells()[i];
        std::function<workloads::WorkloadPtr()> inner =
            cell.make ? cell.make : [name = cell.workload] {
              return workloads::make_workload(name);
            };
        traced.add(
            cell.config,
            [this, slot = offset + i, inner] {
              return fig_.make_cell(slot, inner);
            },
            cell.variant);
        index.emplace(cell.key(), i);
      }
      traced_groups_.push_back(std::move(traced));
      fig_.index.push_back(std::move(index));
      offset += spec.size();
    }
  }
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// One pass over every cell; `tracer` (null for an untraced pass)
  /// records its spans.
  PassRecord run_pass(Tracer* tracer) {
    PassRecord pass;
    pass.traced = tracer != nullptr;
    pass.cells.resize(bench_.keys.size());
    const int cell_id_base =
        static_cast<int>(passes_ * bench_.keys.size());
    const auto t0 = Clock::now();
    {
      Scope pass_span(tracer, "pass", -1, -1);
      if (bench_.uses_campaign)
        run_campaign_pass(pass, tracer, pass_span.id(), cell_id_base);
      else
        run_serial_pass(pass, tracer, pass_span.id(), cell_id_base);
    }
    pass.wall_s = since_s(t0);
    ++passes_;
    return pass;
  }

  /// The first pass's full results, slot order (the source of the
  /// per-layer work counts; later passes must serialize identically).
  const std::vector<machine::RunResult>& first_results() const {
    return first_results_;
  }

 private:
  /// A fresh seeded cell order for each serial pass. figures keeps the
  /// drivers' order instead, because that is what users run.
  std::vector<std::size_t> permutation() {
    std::vector<std::size_t> order(bench_.keys.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng_.next_below(i)]);
    return order;
  }

  void run_serial_pass(PassRecord& pass, Tracer* tracer, int pass_span,
                       int cell_id_base) {
    const std::vector<campaign::Cell>& cells = bench_.groups[0].cells();
    for (std::size_t slot : permutation()) {
      const campaign::Cell& cell = cells[slot];
      const int cell_id = cell_id_base + static_cast<int>(slot);
      Scope cell_span(tracer, "cell", pass_span, cell_id);
      machine::RunResult res;
      try {
        workloads::WorkloadPtr w;
        {
          Scope make(tracer, "workloads.make", cell_span.id(), cell_id);
          w = workloads::make_workload(cell.workload);
        }
        Scope run(tracer, "machine.run", cell_span.id(), cell_id);
        if (tracer != nullptr)
          w = std::make_unique<TimedWorkload>(std::move(w), *tracer, run.id(),
                                              cell_id);
        res = machine::Simulator(cell.config).run(*w, cell.variant);
      } catch (const vlt::SimError& e) {
        res.status = machine::run_status_from_error(e.kind());
        res.error = e.what();
      }
      record(pass, slot, res, tracer, cell_span.id(), cell_id);
    }
  }

  void run_campaign_pass(PassRecord& pass, Tracer* tracer, int pass_span,
                         int cell_id_base) {
    std::size_t offset = 0;
    for (std::size_t g = 0; g < bench_.groups.size(); ++g) {
      campaign::RunSet set;
      {
        Scope run(tracer, "campaign.run", pass_span, -1);
        if (tracer != nullptr) {
          fig_.group_span = run.id();
          fig_.group_offset = offset;
          fig_.group = g;
          fig_.cell_id_base = cell_id_base;
          set = traced_campaign_.run(traced_groups_[g]);
          fig_.group_span = -1;
        } else {
          set = bench_.campaign.run(bench_.groups[g]);
        }
      }
      for (std::size_t i = 0; i < set.size(); ++i)
        record(pass, offset + i, set.at(i), tracer, pass_span,
               cell_id_base + static_cast<int>(offset + i));
      offset += set.size();
    }
  }

  void record(PassRecord& pass, std::size_t slot, const machine::RunResult& r,
              Tracer* tracer, int parent, int cell_id) {
    CellRecord& c = pass.cells[slot];
    {
      Scope s(tracer, "stats.to_json", parent, cell_id);
      c.digest = digest_of(r.to_json().dump());
    }
    c.run_ms = r.wall_ms;
    c.cycles = r.cycles;
    c.ok = r.ok() && r.verified;
    if (passes_ == 0) first_results_[slot] = r;
  }

  const Bench& bench_;
  vlt::Xorshift64 rng_;
  std::size_t passes_ = 0;
  std::vector<machine::RunResult> first_results_;
  FiguresTrace fig_;
  campaign::Campaign traced_campaign_;
  std::vector<campaign::SweepSpec> traced_groups_;
};

// --------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Sums counter `<family><N>.<leaf>` over every unit instance N, or the
/// single counter `leaf` when `family` is empty.
double unit_sum(const vlt::stats::Snapshot& snap, std::string_view family,
                std::string_view leaf) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : snap.counters) {
    std::string_view n = name;
    if (family.empty()) {
      if (n == leaf) sum += value;
      continue;
    }
    if (!n.starts_with(family)) continue;
    std::size_t i = family.size();
    const std::size_t digits = i;
    while (i < n.size() && n[i] >= '0' && n[i] <= '9') ++i;
    if (i == digits || i >= n.size() || n[i] != '.') continue;
    if (n.substr(i + 1) == leaf) sum += value;
  }
  return static_cast<double>(sum);
}

/// Simulated work of one pass, summed over its cells.
struct WorkCounts {
  double cycles = 0, ticks = 0, scans = 0, insts = 0;
  std::map<std::string, double> counters;
};

WorkCounts work_counts(const std::vector<machine::RunResult>& results) {
  struct Source {
    const char* metric;
    const char* family;
    const char* leaf;
  };
  static const Source kSources[] = {
      {"su.commit_scalar", "su", "commit_scalar"},
      {"su.commit_vector", "su", "commit_vector"},
      {"su.redirects", "su", "redirects"},
      {"su.bpred.mispredicts", "su", "bpred.mispredicts"},
      {"su.l1i.misses", "su", "l1i.misses"},
      {"vu.insts_issued", "", "vu.insts_issued"},
      {"lane.committed", "lane", "committed"},
      {"lane.icache.misses", "lane", "icache.misses"},
      {"lane.barriers", "lane", "barriers"},
      {"l1d.accesses", "su", "l1d.accesses"},
      {"l1d.misses", "su", "l1d.misses"},
      {"l2.accesses", "", "l2.accesses"},
      {"l2.misses", "", "l2.misses"},
      {"barrier.arrivals", "", "barrier.arrivals"},
      {"barrier.generations", "", "barrier.generations"},
  };
  WorkCounts w;
  for (const machine::RunResult& r : results) {
    w.cycles += static_cast<double>(r.cycles);
    w.ticks += static_cast<double>(r.ticks_executed);
    w.scans += static_cast<double>(r.scans);
    w.insts += static_cast<double>(r.scalar_insts + r.vector_insts);
    for (const Source& s : kSources)
      w.counters[s.metric] += unit_sum(r.stats, s.family, s.leaf);
    w.counters["vu.element_ops"] += static_cast<double>(r.element_ops);
    w.counters["vu.datapath.busy"] += static_cast<double>(r.util.busy);
    w.counters["vu.datapath.stalled"] += static_cast<double>(r.util.stalled);
    w.counters["vu.datapath.partly_idle"] +=
        static_cast<double>(r.util.partly_idle);
    w.counters["vu.datapath.all_idle"] +=
        static_cast<double>(r.util.all_idle);
  }
  return w;
}

/// Host speed on shared machines drifts by tens of percent over seconds
/// to minutes, and only ever slows a run down. So the timing metrics take
/// each cell's fastest run (README.md, "Host drift").
std::vector<Metric> end_to_end_metrics(const Bench& bench,
                                       const std::vector<PassRecord>& passes,
                                       const std::vector<double>& setups,
                                       double peak_rss_mib,
                                       std::string* samples) {
  std::vector<double> walls, loop_overheads;
  std::vector<double> best_ms(passes.front().cells.size(), HUGE_VAL);
  for (const PassRecord& p : passes) {
    if (p.traced) continue;
    walls.push_back(p.wall_s);
    double run_s = 0.0;
    for (std::size_t s = 0; s < p.cells.size(); ++s) {
      best_ms[s] = std::min(best_ms[s], p.cells[s].run_ms);
      run_s += p.cells[s].run_ms / 1e3;
    }
    loop_overheads.push_back(p.wall_s - run_s);
  }
  const std::vector<CellRecord>& cells = passes.front().cells;
  std::vector<double> ns_per_cycle;
  double cycles = 0.0, best_s = 0.0;
  for (std::size_t s = 0; s < cells.size(); ++s) {
    cycles += static_cast<double>(cells[s].cycles);
    best_s += best_ms[s] / 1e3;
    ns_per_cycle.push_back(
        ratio(best_ms[s] * 1e6, static_cast<double>(cells[s].cycles)));
  }
  // A campaign pass's makespan depends on how its cells pack onto the
  // threads, so figures reports its fastest observed pass. A serial pass
  // is its cells back to back plus the loop's own work, so it is rebuilt
  // from each cell's fastest run, which drifts less than any one pass.
  const double wall_s =
      bench.uses_campaign ? *std::min_element(walls.begin(), walls.end())
                          : best_s + median(loop_overheads);
  *samples = std::string(bench.uses_campaign
                             ? "wall_s: fastest of "
                             : "wall_s: cells at their fastest plus the "
                               "median loop overhead of ") +
             std::to_string(walls.size()) + " passes; cell rates: each of " +
             std::to_string(cells.size()) + " cells at its fastest of " +
             std::to_string(walls.size()) + " runs; setup_s: median of " +
             std::to_string(setups.size()) + " set-ups";
  return {
      {"setup_s", median(setups), "s"},
      {"wall_s", wall_s, "s"},
      {"sim_mcycles_per_s", ratio(cycles / 1e6, best_s), "Mcycles/s"},
      {"cell_ns_per_cycle_p50", quantile(ns_per_cycle, 0.5), "ns"},
      {"cell_ns_per_cycle_p90", quantile(ns_per_cycle, 0.9), "ns"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
  };
}

/// The span names of one cell run, outermost first.
const char* const kSpanNames[] = {
    "pass",           "campaign.run",         "cell",
    "workloads.make", "machine.run",          "workloads.init_memory",
    "workloads.build", "stats.to_json"};

std::vector<Metric> per_layer_metrics(const Bench& bench,
                                      const std::vector<PassRecord>& passes,
                                      const std::vector<Span>& spans,
                                      const WorkCounts& work,
                                      std::string* table) {
  std::vector<double> traced_walls, untraced_walls;
  for (const PassRecord& p : passes)
    (p.traced ? traced_walls : untraced_walls).push_back(p.wall_s);
  const double n = static_cast<double>(traced_walls.size());

  // Campaign: each campaign.run span and the cell spans it parents.
  std::vector<std::vector<const Span*>> cells_of(spans.size());
  for (const Span& s : spans)
    if (std::string_view(s.name) == "cell" && s.parent >= 0)
      cells_of[static_cast<std::size_t>(s.parent)].push_back(&s);
  double run_s = 0.0, busy_s = 0.0, tail_s = 0.0;
  std::vector<double> queue_wait_ms, machine_run_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& g = spans[i];
    if (std::string_view(g.name) == "machine.run")
      machine_run_ms.push_back(g.dur_us() / 1e3);
    if (std::string_view(g.name) != "campaign.run" || cells_of[i].empty())
      continue;
    run_s += g.dur_us() / 1e6;
    std::vector<double> ends;
    for (const Span* c : cells_of[i]) {
      busy_s += c->dur_us() / 1e6;
      queue_wait_ms.push_back((c->start_us - g.start_us) / 1e3);
      ends.push_back(c->end_us);
    }
    // Workers start idling once fewer cells remain than threads, i.e.
    // from the (cells - threads + 1)-th completion on.
    std::sort(ends.begin(), ends.end());
    const std::size_t k = std::min<std::size_t>(bench.threads, ends.size());
    tail_s += (g.end_us - ends[ends.size() - k]) / 1e6;
  }

  std::map<std::string, vltbench::LayerTime> layers =
      vltbench::layer_times(spans);
  auto total_ms = [&](const char* name) {
    return ratio(layers[name].total_us / 1e3, n);
  };
  const double machine_self_ns = layers["machine.run"].self_us * 1e3;
  // Fastest against fastest, for the drift reason end_to_end_metrics
  // gives.
  const double untraced =
      *std::min_element(untraced_walls.begin(), untraced_walls.end());
  const double traced =
      *std::min_element(traced_walls.begin(), traced_walls.end());
  const double overhead = traced - untraced;

  std::vector<Metric> m = {
      {"campaign.run_s", ratio(run_s, n), "s"},
      {"campaign.busy_s", ratio(busy_s, n), "s"},
      {"campaign.parallel_efficiency",
       ratio(busy_s, static_cast<double>(bench.threads) * run_s), "ratio"},
      {"campaign.queue_wait_ms_p50", quantile(queue_wait_ms, 0.5), "ms"},
      {"campaign.queue_wait_ms_p90", quantile(queue_wait_ms, 0.9), "ms"},
      {"campaign.tail_s", ratio(tail_s, n), "s"},
      {"campaign.repeat_cells",
       static_cast<double>(repeat_cells(bench.keys)), "count"},
      {"workloads.make_ms", total_ms("workloads.make"), "ms"},
      {"workloads.init_memory_ms", total_ms("workloads.init_memory"), "ms"},
      {"workloads.build_ms", total_ms("workloads.build"), "ms"},
      {"machine.run_ms_p50", quantile(machine_run_ms, 0.5), "ms"},
      {"machine.run_ms_p90", quantile(machine_run_ms, 0.9), "ms"},
      {"machine.run_ms_sum", total_ms("machine.run"), "ms"},
      {"machine.cycles", work.cycles, "count"},
      {"machine.ticks", work.ticks, "count"},
      {"machine.ticks_per_cycle", ratio(work.ticks, work.cycles), "ratio"},
      {"machine.scans", work.scans, "count"},
      {"machine.scans_per_tick", ratio(work.scans, work.ticks), "ratio"},
      {"machine.ns_per_tick", ratio(machine_self_ns, work.ticks * n), "ns"},
      {"machine.insts", work.insts, "count"},
      {"machine.ns_per_inst", ratio(machine_self_ns, work.insts * n), "ns"},
  };
  for (const auto& [name, value] : work.counters)
    m.push_back({name, value, "count"});
  m.push_back({"vu.elements_per_inst",
               ratio(work.counters.at("vu.element_ops"),
                     work.counters.at("vu.insts_issued")),
               "ratio"});
  m.push_back({"stats.to_json_ms", total_ms("stats.to_json"), "ms"});
  for (const char* name : kSpanNames)
    m.push_back({std::string("self.") + name + "_ms",
                 ratio(layers[name].self_us / 1e3, n), "ms"});
  m.push_back({"trace.overhead_s", overhead, "s"});
  m.push_back({"trace.overhead_pct", 100.0 * ratio(overhead, untraced), "%"});
  m.push_back({"trace.passes", n, "count"});

  char line[160];
  std::snprintf(line, sizeof(line),
                "# per-layer time per traced pass (%d traced, %zu untraced "
                "passes)\n# %-22s %8s %12s %12s %7s\n",
                static_cast<int>(n), untraced_walls.size(), "span",
                "calls", "total_ms", "self_ms", "self_%");
  *table = line;
  // Self times partition the host time spent on all threads, so each
  // layer's share is taken of their sum, not of the pass's wall time.
  double self_sum_us = 0.0;
  for (const char* name : kSpanNames) self_sum_us += layers[name].self_us;
  for (const char* name : kSpanNames) {
    const vltbench::LayerTime& t = layers[name];
    std::snprintf(line, sizeof(line), "# %-22s %8.0f %12.3f %12.3f %6.2f%%\n",
                  name, ratio(static_cast<double>(t.calls), n),
                  ratio(t.total_us / 1e3, n), ratio(t.self_us / 1e3, n),
                  100.0 * ratio(t.self_us, self_sum_us));
    *table += line;
  }
  std::snprintf(line, sizeof(line),
                "# tracing overhead: fastest traced pass %.4f s - fastest "
                "untraced pass %.4f s = %.4f s (%.2f%%)\n",
                traced, untraced, overhead,
                100.0 * ratio(overhead, untraced));
  *table += line;
  return m;
}

// --------------------------------------------------------------------------
// Run metadata

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();  // drop the NUL padding
    const std::size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

/// Peak resident set of this process image. VmHWM is per address space;
/// getrusage's ru_maxrss is kept across execve, so under a launcher it
/// would report the launcher's own peak when that is larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
  std::string commit = "unknown";
  std::string source = "unknown";
  bool list = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "vltbench: %s\nusage: vltbench --workload "
               "figures|vlt|scalar-threads --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--commit ID] [--source ID]\n       vltbench "
               "--list figures\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--list") {
      a.workload = value;
      a.list = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0))
        usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--out") {
      a.out_dir = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--source") {
      a.source = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!known_workload(a.workload)) usage("unknown workload '" + a.workload + "'");
  if (!a.list && (a.seconds <= 0.0 || a.trace < 0))
    usage("--seconds and --trace are required");
  return a;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.list) {
    for (const campaign::RunKey& k : setup(args.workload, 1).keys)
      std::printf("%s\n", k.to_string().c_str());
    return 0;
  }
  if (!kOptimized) {
    std::fprintf(stderr,
                 "vltbench: refusing to report numbers from an unoptimised "
                 "build (CMAKE_BUILD_TYPE '%s'); configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 VLTBENCH_BUILD_TYPE);
    return 3;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads =
      args.workload == "figures" ? std::min(kMaxCampaignThreads, hw) : 1;

  vlt::Json meta = vlt::Json::object();
  meta.set("workload", args.workload);
  meta.set("seed", args.seed);
  meta.set("seconds", args.seconds);
  meta.set("trace", args.trace);
  meta.set("cpu", cpu_model());
  meta.set("nproc", hw);
  meta.set("compiler", VLTBENCH_COMPILER);
  meta.set("build_type", VLTBENCH_BUILD_TYPE);
  meta.set("optimized", kOptimized);
  meta.set("campaign_threads", threads);
  meta.set("commit", args.commit);
  meta.set("source", args.source);
  std::printf("# meta %s\n", meta.dump().c_str());
  std::fflush(stdout);

  // Set-up: cell lists, workload factories, campaign construction. It is
  // repeated after every pass, so its median samples the whole run's host
  // drift rather than one moment of it.
  std::vector<double> setup_times;
  auto time_setup = [&] {
    const auto t0 = Clock::now();
    Bench b = setup(args.workload, threads);
    setup_times.push_back(since_s(t0));
    return b;
  };
  const Bench bench = time_setup();

  Tracer tracer;
  const bool traced_run = args.trace == 1;
  Runner runner(bench, args.seed, traced_run ? &tracer : nullptr);

  // Closed loop: the next pass starts when the previous one finished.
  // A traced run alternates untraced and traced passes so both see the
  // same host drift.
  std::vector<PassRecord> passes;
  const auto start = Clock::now();
  while (passes.size() < 2 || since_s(start) < args.seconds) {
    const bool traced = traced_run && passes.size() % 2 == 1;
    passes.push_back(runner.run_pass(traced ? &tracer : nullptr));
    time_setup();
  }
  while (setup_times.size() < kMinSetupReps) time_setup();

  // Correctness: every cell ok and verified, and every pass serializing
  // the same bytes per slot. Repeated keys (figures) must agree as well.
  std::size_t attempted = 0, failed = 0;
  const std::vector<CellRecord>& first = passes.front().cells;
  std::map<campaign::RunKey, std::uint64_t> by_key;
  bool consistent = true;
  for (std::size_t s = 0; s < first.size(); ++s) {
    auto [it, inserted] = by_key.emplace(bench.keys[s], first[s].digest);
    if (!inserted && it->second != first[s].digest) consistent = false;
  }
  for (const PassRecord& p : passes)
    for (std::size_t s = 0; s < p.cells.size(); ++s) {
      ++attempted;
      if (!p.cells[s].ok || p.cells[s].digest != first[s].digest) ++failed;
    }
  vlt::Digest workload_digest;
  for (const CellRecord& c : first) workload_digest.mix(c.digest);
  const bool correct = failed == 0 && consistent;
  for (std::size_t s = 0; s < first.size(); ++s)
    if (!first[s].ok) {
      const machine::RunResult& r = runner.first_results()[s];
      std::fprintf(stderr, "vltbench: cell %s failed [%s]: %s\n",
                   bench.keys[s].to_string().c_str(),
                   machine::run_status_name(r.status), r.error.c_str());
    }

  std::printf("# workload %s: %zu cells/pass, %zu passes, digest %s, "
              "%zu/%zu cell runs failed%s\n",
              args.workload.c_str(), first.size(), passes.size(),
              vlt::digest_hex(workload_digest.value()).c_str(), failed,
              attempted, consistent ? "" : ", repeated cells disagree");

  std::vector<Metric> metrics;
  std::string notes;
  if (traced_run) {
    const std::vector<Span> spans = tracer.spans();
    metrics = per_layer_metrics(bench, passes, spans,
                                work_counts(runner.first_results()), &notes);
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/trace-" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".json";
      if (write_file(path, vltbench::to_chrome_json(spans).dump()))
        notes += "# trace written to " + path + "\n";
    }
  } else {
    metrics =
        end_to_end_metrics(bench, passes, setup_times, peak_rss_mib(), &notes);
    notes = "# samples: " + notes + "\n";
  }
  std::printf("%s", notes.c_str());
  for (const Metric& m : metrics)
    std::printf("# %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());

  char head[128];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": ",
                correct ? "true" : "false", attempted, failed);
  const std::string result = head + metrics_json(metrics) + "}";
  if (!args.out_dir.empty()) {
    vlt::Json record = vlt::Json::object();
    record.set("meta", meta);
    record.set("digest", vlt::digest_hex(workload_digest.value()));
    record.set("passes", static_cast<std::uint64_t>(passes.size()));
    // Every pass's raw timings, so other estimators can be replayed.
    vlt::Json raw = vlt::Json::array();
    for (const PassRecord& p : passes) {
      vlt::Json pass = vlt::Json::object();
      pass.set("traced", p.traced);
      pass.set("wall_s", p.wall_s);
      vlt::Json run_ms = vlt::Json::array();
      for (const CellRecord& c : p.cells) run_ms.push_back(vlt::Json(c.run_ms));
      pass.set("run_ms", run_ms);
      raw.push_back(pass);
    }
    record.set("pass_samples", raw);
    vlt::Json cycles = vlt::Json::array();
    for (const CellRecord& c : first) cycles.push_back(vlt::Json(c.cycles));
    record.set("cell_cycles", cycles);
    record.set("result", vlt::Json::parse(result).value_or(vlt::Json()));
    write_file(args.out_dir + "/result-" + args.workload + "-seed" +
                   std::to_string(args.seed) + "-trace" +
                   std::to_string(args.trace) + ".json",
               record.dump(2) + "\n");
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
