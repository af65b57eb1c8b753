// SCOAP testability measures: hand-computed gate rules, saturation, and the
// incremental observability update property.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "scoap/scoap.h"

namespace gcnt {
namespace {

NodeId by_name(const Netlist& n, const std::string& name) {
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == name) return v;
  }
  ADD_FAILURE() << "node not found: " << name;
  return kInvalidNode;
}

/// The cone update_observability_after_observe returns must be the node
/// set of fanin_cone(target) (which excludes the target), in any order.
void expect_fanin_cone_set(const Netlist& n, NodeId target,
                           std::vector<NodeId> walked) {
  std::vector<NodeId> cone = n.fanin_cone(target);
  std::sort(cone.begin(), cone.end());
  std::sort(walked.begin(), walked.end());
  EXPECT_EQ(walked, cone) << "target " << n.node_name(target);
}

TEST(ScoapAdd, Saturates) {
  EXPECT_EQ(scoap_add(1, 2), 3u);
  EXPECT_EQ(scoap_add(kScoapInfinity, 5), kScoapInfinity);
  EXPECT_EQ(scoap_add(kScoapInfinity - 1, 1), kScoapInfinity);
  EXPECT_EQ(scoap_add(kScoapInfinity, kScoapInfinity), kScoapInfinity);
}

TEST(Scoap, PrimaryInputCosts) {
  const Netlist n = read_bench_string("INPUT(a)\nOUTPUT(a)\n");
  const auto m = compute_scoap(n);
  const NodeId a = by_name(n, "a");
  EXPECT_EQ(m.cc0[a], 1u);
  EXPECT_EQ(m.cc1[a], 1u);
  EXPECT_EQ(m.co[a], 0u);  // drives the PO directly
}

TEST(Scoap, AndGateRules) {
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b)\n");
  const auto m = compute_scoap(n);
  const NodeId g = by_name(n, "g");
  const NodeId a = by_name(n, "a");
  EXPECT_EQ(m.cc1[g], 3u);  // both inputs to 1: 1+1+1
  EXPECT_EQ(m.cc0[g], 2u);  // one input to 0: 1+1
  EXPECT_EQ(m.co[g], 0u);
  EXPECT_EQ(m.co[a], 2u);  // co(g) + cc1(b) + 1
}

TEST(Scoap, OrNorGateRules) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\nOUTPUT(r)\no = OR(a, b)\nr = NOR(a, "
      "b)\n");
  const auto m = compute_scoap(n);
  EXPECT_EQ(m.cc0[by_name(n, "o")], 3u);  // all inputs 0
  EXPECT_EQ(m.cc1[by_name(n, "o")], 2u);  // any input 1
  EXPECT_EQ(m.cc0[by_name(n, "r")], 2u);  // inverted
  EXPECT_EQ(m.cc1[by_name(n, "r")], 3u);
}

TEST(Scoap, NandNotBufRules) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nOUTPUT(z)\n"
      "x = NAND(a, b)\ny = NOT(a)\nz = BUF(b)\n");
  const auto m = compute_scoap(n);
  EXPECT_EQ(m.cc0[by_name(n, "x")], 3u);
  EXPECT_EQ(m.cc1[by_name(n, "x")], 2u);
  EXPECT_EQ(m.cc0[by_name(n, "y")], 2u);  // cc1(a)+1
  EXPECT_EQ(m.cc1[by_name(n, "y")], 2u);
  EXPECT_EQ(m.cc0[by_name(n, "z")], 2u);
}

TEST(Scoap, XorParityDynamicProgram) {
  const Netlist n2 =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = XOR(a, b)\n");
  const auto m2 = compute_scoap(n2);
  EXPECT_EQ(m2.cc0[by_name(n2, "g")], 3u);
  EXPECT_EQ(m2.cc1[by_name(n2, "g")], 3u);

  const Netlist n3 = read_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(g)\ng = XOR(a, b, c)\n");
  const auto m3 = compute_scoap(n3);
  EXPECT_EQ(m3.cc0[by_name(n3, "g")], 4u);
  EXPECT_EQ(m3.cc1[by_name(n3, "g")], 4u);

  const Netlist nx = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = XNOR(a, b)\n");
  const auto mx = compute_scoap(nx);
  EXPECT_EQ(mx.cc0[by_name(nx, "g")], 3u);
  EXPECT_EQ(mx.cc1[by_name(nx, "g")], 3u);
}

TEST(Scoap, XorObservabilityUsesEitherValue) {
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = XOR(a, b)\n");
  const auto m = compute_scoap(n);
  // co(a) = co(g) + min(cc0(b), cc1(b)) + 1 = 0 + 1 + 1.
  EXPECT_EQ(m.co[by_name(n, "a")], 2u);
}

TEST(Scoap, DffActsAsScanCell) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nOUTPUT(y)\nq = DFF(a)\ny = BUF(q)\n");
  const auto m = compute_scoap(n);
  const NodeId q = by_name(n, "q");
  EXPECT_EQ(m.cc0[q], 1u);  // scan load
  EXPECT_EQ(m.cc1[q], 1u);
  EXPECT_EQ(m.co[by_name(n, "a")], 0u);  // captured by the scan D pin
}

TEST(Scoap, ObservabilityPrefersEasiestBranch) {
  // a fans out to an easy path (direct PO) and a hard path (side of AND).
  const Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(g)\ng = AND(a, b)\n");
  const auto m = compute_scoap(n);
  EXPECT_EQ(m.co[by_name(n, "a")], 0u);  // the PO branch wins
}

TEST(Scoap, DeepChainAccumulates) {
  const Netlist n = read_bench_string(
      "INPUT(a)\nOUTPUT(d)\nb = NOT(a)\nc = NOT(b)\nd = NOT(c)\n");
  const auto m = compute_scoap(n);
  EXPECT_EQ(m.co[by_name(n, "a")], 3u);
  EXPECT_EQ(m.cc0[by_name(n, "d")], 4u);
}

TEST(Scoap, ObservePointZeroesObservability) {
  Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(h)\ng = AND(a, b)\nh = AND(g, "
      "c)\n");
  auto m = compute_scoap(n);
  const NodeId g = by_name(n, "g");
  const NodeId a = by_name(n, "a");
  const std::uint32_t co_a_before = m.co[a];
  EXPECT_GT(m.co[g], 0u);

  n.insert_observe_point(g);
  update_observability_after_observe(n, g, m);
  EXPECT_EQ(m.co[g], 0u);
  EXPECT_LT(m.co[a], co_a_before);
}

TEST(Scoap, IncrementalUpdateMatchesFullRecompute) {
  GeneratorConfig config;
  config.seed = 71;
  config.target_gates = 600;
  config.primary_inputs = 16;
  config.primary_outputs = 8;
  config.flip_flops = 12;
  Netlist n = generate_circuit(config);
  auto incremental = compute_scoap(n);

  // Insert a handful of OPs at spread-out logic nodes.
  std::size_t inserted = 0;
  for (NodeId v = 0; v < n.size() && inserted < 5; v += 97) {
    if (!is_logic(n.type(v))) continue;
    const NodeId target = v;
    n.insert_observe_point(target);
    expect_fanin_cone_set(
        n, target, update_observability_after_observe(n, target, incremental));
    ++inserted;
  }
  ASSERT_GT(inserted, 0u);

  const auto full = compute_scoap(n);
  ASSERT_EQ(full.co.size(), incremental.co.size());
  for (NodeId v = 0; v < n.size(); ++v) {
    EXPECT_EQ(incremental.co[v], full.co[v]) << "node " << v;
    EXPECT_EQ(incremental.cc0[v], full.cc0[v]) << "node " << v;
    EXPECT_EQ(incremental.cc1[v], full.cc1[v]) << "node " << v;
  }
}

TEST(Scoap, IncrementalUpdateOrdersReconvergentCone) {
  // a reaches t directly through u and through the longer v <- m path. A
  // breadth-first walk from t meets a (depth 2) before m (depth 2, later in
  // the queue), so an update in that order would read m's stale CO. The
  // long path is the cheaper one: co(a) = co(m) + 1 = 7, against 9 through
  // u, because a = OR(...) is cheap to set to 1 but not to 0.
  Netlist n = read_bench_string(
      "INPUT(p1)\nINPUT(p2)\nINPUT(p3)\nINPUT(q)\nOUTPUT(q)\n"
      "a = OR(p1, p2, p3)\nu = AND(a, q)\nm = BUF(a)\nv = NOT(m)\n"
      "t = AND(u, v)\n");
  auto m = compute_scoap(n);
  const NodeId t = by_name(n, "t");
  const NodeId a = by_name(n, "a");
  EXPECT_EQ(m.co[a], kScoapInfinity);  // t drives nothing yet

  n.insert_observe_point(t);
  expect_fanin_cone_set(n, t, update_observability_after_observe(n, t, m));
  EXPECT_EQ(m.co[a], 7u);
  const auto full = compute_scoap(n);
  ASSERT_EQ(m.co.size(), full.co.size());
  for (NodeId v = 0; v < n.size(); ++v) {
    EXPECT_EQ(m.co[v], full.co[v]) << n.node_name(v);
  }
}

TEST(Scoap, IncrementalUpdateWalksDeepConeIteratively) {
  // A 100k-gate NOT/BUF chain with an OP at its end: the whole chain is
  // the cone, deep enough that a recursive walk would risk the stack.
  constexpr std::size_t kDepth = 100000;
  Netlist n;
  NodeId prev = n.add_node(CellType::kInput);
  for (std::size_t i = 0; i < kDepth; ++i) {
    const NodeId g = n.add_node(i % 2 ? CellType::kBuf : CellType::kNot);
    n.connect(prev, g);
    prev = g;
  }
  auto m = compute_scoap(n);
  n.insert_observe_point(prev);
  update_observability_after_observe(n, prev, m);
  EXPECT_EQ(m.co[0], kDepth);
  EXPECT_EQ(m.co, compute_scoap(n).co);
}

TEST(Scoap, IncrementalUpdateRejectsCycleInCone) {
  Netlist n;
  const NodeId a = n.add_node(CellType::kInput);
  const NodeId g = n.add_node(CellType::kAnd);
  const NodeId h = n.add_node(CellType::kBuf);
  n.connect(a, g);
  n.connect(h, g);
  n.connect(g, h);
  ScoapMeasures m;
  n.insert_observe_point(g);
  EXPECT_THROW(update_observability_after_observe(n, g, m),
               std::runtime_error);
}

TEST(Scoap, IncrementalUpdateFollowsLoopThroughFlop) {
  // q = DFF(d), d = NAND(q, a, r): a sequential loop, not a cycle. An OP
  // on the flop walks into its D logic and back to the flop, which is
  // fine; the flop r inside the cone is a source, so the walk stops there
  // and b stays outside the cone.
  Netlist n = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\nr = DFF(b)\nq = DFF(d)\n"
      "d = NAND(q, a, r)\no = BUF(a)\n");
  auto m = compute_scoap(n);
  const NodeId q = by_name(n, "q");
  n.insert_observe_point(q);
  const std::vector<NodeId> walked =
      update_observability_after_observe(n, q, m);
  expect_fanin_cone_set(n, q, walked);
  EXPECT_EQ(walked.size(), 3u);  // d, a, r
  EXPECT_EQ(m.co, compute_scoap(n).co);
}

TEST(Scoap, DuplicateFaninHandled) {
  const Netlist n =
      read_bench_string("INPUT(a)\nOUTPUT(g)\ng = AND(a, a)\n");
  const auto m = compute_scoap(n);
  NodeId g = kInvalidNode, a = kInvalidNode;
  for (NodeId v = 0; v < n.size(); ++v) {
    if (n.node_name(v) == "g") g = v;
    if (n.node_name(v) == "a") a = v;
  }
  EXPECT_EQ(m.cc1[g], 3u);  // both (duplicated) inputs to 1
  // a observed through either slot with the sibling (itself) at 1.
  EXPECT_EQ(m.co[a], 2u);
}

TEST(Scoap, ObserveThroughExported) {
  const Netlist n =
      read_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b)\n");
  const auto m = compute_scoap(n);
  const NodeId g = by_name(n, "g");
  // Through slot 0 of g with gate observability 5: 5 + cc1(b) + 1.
  EXPECT_EQ(scoap_observe_through(n, g, 0, m, 5), 7u);
}

}  // namespace
}  // namespace gcnt
