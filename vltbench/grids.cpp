#include "grids.hpp"

#include <memory>
#include <string>

#include "workloads/all_workloads.hpp"

namespace vltbench {

using vlt::campaign::SweepSpec;
using vlt::machine::MachineConfig;
using vlt::workloads::Variant;
namespace workloads = vlt::workloads;

namespace {

Variant threads_variant(unsigned threads) {
  return threads == 1 ? Variant::base() : Variant::vector_threads(threads);
}

SweepSpec fig1() {
  SweepSpec spec;
  for (const std::string& app : workloads::workload_names())
    for (unsigned lanes : {1u, 2u, 4u, 8u})
      spec.add(MachineConfig::base(lanes), app, Variant::base());
  return spec;
}

SweepSpec fig3() {
  SweepSpec spec;
  spec.add_grid({MachineConfig::base()}, workloads::vector_thread_apps(),
                {Variant::base()});
  spec.add_grid({MachineConfig::v2_cmp()}, workloads::vector_thread_apps(),
                {Variant::vector_threads(2)});
  spec.add_grid({MachineConfig::v4_cmp()}, workloads::vector_thread_apps(),
                {Variant::vector_threads(4)});
  return spec;
}

SweepSpec fig4() {
  struct Point {
    const char* config;
    unsigned threads;
  };
  const Point points[] = {{"base", 1}, {"V2-CMP", 2}, {"V4-CMP", 4}};
  SweepSpec spec;
  for (const std::string& app : workloads::vector_thread_apps())
    for (const Point& pt : points)
      spec.add(MachineConfig::by_name(pt.config), app,
               threads_variant(pt.threads));
  return spec;
}

SweepSpec fig5() {
  struct Point {
    const char* config;
    unsigned threads;
  };
  const Point points[] = {{"base", 1},   {"V2-SMT", 2}, {"V2-CMP", 2},
                          {"V4-SMT", 4}, {"V4-CMT", 4}, {"V4-CMP", 4},
                          {"V4-CMP-h", 4}};
  SweepSpec spec;
  for (const std::string& app : workloads::vector_thread_apps())
    for (const Point& pt : points)
      spec.add(MachineConfig::by_name(pt.config), app,
               threads_variant(pt.threads));
  return spec;
}

SweepSpec fig6() {
  SweepSpec spec;
  for (const std::string& app : workloads::scalar_thread_apps()) {
    spec.add(MachineConfig::cmt(), app, Variant::su_threads(4));
    spec.add(MachineConfig::v4_cmt(), app, Variant::lane_threads(8));
  }
  return spec;
}

SweepSpec tab4() {
  SweepSpec spec;
  spec.add_grid({MachineConfig::base()}, workloads::workload_names(),
                {Variant::base()});
  return spec;
}

SweepSpec ablation_knobs() {
  SweepSpec spec;
  for (const std::string& app : workloads::vector_thread_apps())
    for (bool chain : {true, false}) {
      MachineConfig cfg = MachineConfig::base();
      cfg.vu.chaining = chain;
      cfg.name = chain ? "base-chain" : "base-nochain";
      spec.add(cfg, app, Variant::base());
    }
  for (const std::string& app : {std::string("trfd"), std::string("mxm")})
    for (unsigned banks : {1u, 4u, 16u, 32u}) {
      MachineConfig cfg = MachineConfig::base();
      cfg.l2.banks = banks;
      cfg.name = "base-l2b" + std::to_string(banks);
      spec.add(cfg, app, Variant::base());
    }
  for (unsigned depth : {4u, 8u, 24u}) {
    MachineConfig cfg = MachineConfig::v4_cmt();
    cfg.lane_core.max_outstanding = depth;
    cfg.name = "V4-CMT-lq" + std::to_string(depth);
    spec.add(cfg,
             [] { return std::make_unique<workloads::OceanWorkload>(64, 4); },
             Variant::lane_threads(8));
  }
  for (unsigned cpl : {1u, 2u, 4u, 8u}) {
    MachineConfig cfg = MachineConfig::base();
    cfg.mem_cycles_per_line = cpl;
    cfg.name = "base-membus" + std::to_string(cpl);
    spec.add(cfg, "mxm", Variant::base());
  }
  return spec;
}

SweepSpec ext_16_lanes() {
  MachineConfig sixteen = MachineConfig::base(16);
  sixteen.name = "V8-CMT-16L";
  vlt::su::SuParams smt2;
  smt2.smt_contexts = 2;
  sixteen.sus = {smt2, smt2, smt2, smt2};
  sixteen.max_vector_threads = 8;

  SweepSpec spec;
  for (const std::string& app : workloads::vector_thread_apps()) {
    for (unsigned lanes : {8u, 16u})
      spec.add(MachineConfig::base(lanes), app, Variant::base());
    for (unsigned threads : {4u, 8u}) {
      if (threads == 8 && (app == "mpenc" || app == "bt")) continue;
      spec.add(sixteen, app, Variant::vector_threads(threads));
    }
  }
  return spec;
}

}  // namespace

std::vector<SweepSpec> figures_specs() {
  return {fig1(), fig3(), fig4(),           fig5(),
          fig6(), tab4(), ablation_knobs(), ext_16_lanes()};
}

SweepSpec vlt_spec() {
  SweepSpec spec;
  spec.add_grid({MachineConfig::v2_cmp(), MachineConfig::v4_cmp(),
                 MachineConfig::v4_smt(), MachineConfig::v4_cmt()},
                workloads::vector_thread_apps(),
                {Variant::vector_threads(2), Variant::vector_threads(4)});
  return spec;
}

SweepSpec scalar_threads_spec() {
  SweepSpec spec;
  spec.add_grid(
      {MachineConfig::cmt(), MachineConfig::v4_cmp(), MachineConfig::v4_cmt()},
      workloads::scalar_thread_apps(),
      {Variant::su_threads(4), Variant::lane_threads(8)});
  return spec;
}

}  // namespace vltbench
