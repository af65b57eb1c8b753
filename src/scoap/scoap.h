#pragma once
// SCOAP testability measures (Goldstein & Thigpen, DAC 1980).
//
// Combinational controllability CC0/CC1 and observability CO per node,
// under the full-scan assumption: primary inputs and scan flip-flop outputs
// cost 1 to control; primary outputs, scan D pins and observation points
// cost 0 to observe. These are the [C0, C1, O] node attributes of the
// paper's GCN (Section 3.1), alongside the logic level LL.
//
// Values use saturating arithmetic so deep circuits cannot overflow.

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"

namespace gcnt {

/// Saturation ceiling for SCOAP values.
constexpr std::uint32_t kScoapInfinity = 1u << 24;

struct ScoapMeasures {
  std::vector<std::uint32_t> cc0;  ///< cost of setting the node's output to 0
  std::vector<std::uint32_t> cc1;  ///< cost of setting the node's output to 1
  std::vector<std::uint32_t> co;   ///< cost of observing the node's output
};

/// Saturating add capped at kScoapInfinity.
constexpr std::uint32_t scoap_add(std::uint32_t a, std::uint32_t b) noexcept {
  const std::uint64_t sum = static_cast<std::uint64_t>(a) + b;
  return sum >= kScoapInfinity ? kScoapInfinity
                               : static_cast<std::uint32_t>(sum);
}

/// Computes all three measures for every node.
ScoapMeasures compute_scoap(const Netlist& netlist);

/// Recomputes only controllability (topological pass).
void compute_controllability(const Netlist& netlist, ScoapMeasures& measures);

/// Recomputes only observability (reverse topological pass); requires
/// controllability to be up to date.
void compute_observability(const Netlist& netlist, ScoapMeasures& measures);

/// Incrementally repairs observability after insert_observe_point(target):
/// controllability is unaffected, and CO can only change inside the fan-in
/// cone of `target` (stopping at sources, as fanin_cone does). The cone is
/// updated in a cone-local reverse topological order, the reverse of an
/// iterative DFS post-order over fanins, so the cost is proportional to the
/// cone, not the netlist, and the result equals a full
/// compute_observability. Calls resize_for itself. Throws
/// std::runtime_error on a combinational cycle inside the cone.
///
/// Returns the walked cone without `target`: the same node set as
/// netlist.fanin_cone(target), in DFS post-order (fanins first), ready to
/// pass to append_observe_point as its refreshed rows.
std::vector<NodeId> update_observability_after_observe(
    const Netlist& netlist, NodeId target, ScoapMeasures& measures);

/// Extends the measure vectors for nodes appended since the last compute
/// (new OBSERVE nodes); new entries get neutral values.
void resize_for(const Netlist& netlist, ScoapMeasures& measures);

/// Observability cost of fanin slot `slot` of gate `g` given the gate's own
/// output observability `gate_co` (cost of sensitizing the path through g,
/// using the controllability in `measures`). Exposed for overlay-style
/// tentative evaluation (OP impact analysis).
std::uint32_t scoap_observe_through(const Netlist& netlist, NodeId g,
                                    std::size_t slot,
                                    const ScoapMeasures& measures,
                                    std::uint32_t gate_co);

}  // namespace gcnt
