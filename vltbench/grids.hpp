// The cell lists of the three vltbench workloads (README.md explains why
// each was chosen).
#pragma once

#include <vector>

#include "campaign/campaign.hpp"

namespace vltbench {

/// The grids of the eight simulating paper drivers, one SweepSpec per
/// driver in the order fig1, fig3, fig4, fig5, fig6, tab4,
/// ablation_knobs, ext_16_lanes. Each is a copy of the driver's own spec
/// construction; tests/drift_check.py fails when a driver's grid no
/// longer matches.
std::vector<vlt::campaign::SweepSpec> figures_specs();

/// {mpenc, trfd, multprec, bt} x {V2-CMP, V4-CMP, V4-SMT, V4-CMT} x
/// {vlt2, vlt4}, pruned to the runnable cells.
vlt::campaign::SweepSpec vlt_spec();

/// {radix, ocean, barnes} x {CMT, V4-CMP, V4-CMT} x {su4, lanes8}, pruned
/// to the runnable cells.
vlt::campaign::SweepSpec scalar_threads_spec();

}  // namespace vltbench
