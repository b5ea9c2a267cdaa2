/**
 * @file
 * Umbrella header: include this to get the whole QPlacer public API.
 */

#ifndef QPLACER_QPLACER_HPP
#define QPLACER_QPLACER_HPP

#include "baseline/human_placer.hpp"
#include "circuits/benchmarks.hpp"
#include "circuits/mapper.hpp"
#include "circuits/scheduler.hpp"
#include "circuits/subsets.hpp"
#include "core/placer.hpp"
#include "eval/area.hpp"
#include "eval/crosscut.hpp"
#include "eval/evaluator.hpp"
#include "eval/fidelity.hpp"
#include "eval/hotspot.hpp"
#include "freq/assigner.hpp"
#include "freq/collision_map.hpp"
#include "io/layout_io.hpp"
#include "io/meander.hpp"
#include "io/svg.hpp"
#include "legal/legalizer.hpp"
#include "multidie/die_plan.hpp"
#include "netlist/builder.hpp"
#include "physics/boxmode.hpp"
#include "physics/capacitance.hpp"
#include "physics/coupling.hpp"
#include "physics/decoherence.hpp"
#include "physics/resonator.hpp"
#include "physics/transmon.hpp"
#include "pipeline/flow.hpp"
#include "pipeline/incremental.hpp"
#include "pipeline/overrides.hpp"
#include "pipeline/session.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "topology/factory.hpp"
#include "topology/generators.hpp"

#endif // QPLACER_QPLACER_HPP
