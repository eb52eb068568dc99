// Tests for the System extensions beyond the core paper mechanisms:
// block TTL auto-removal with refresh (§3) and hybrid scatter replica
// placement (the §11 future-work design).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/system.h"
#include "sim/failure.h"

namespace d2::core {
namespace {

Key seq_key(std::uint64_t i) { return Key::from_uint64(1000 + i); }

SystemConfig ttl_config() {
  SystemConfig c;
  c.node_count = 12;
  c.replicas = 3;
  c.seed = 7;
  c.block_ttl = hours(1);
  return c;
}

TEST(BlockTtl, ExpiresUnrefreshedBlocks) {
  sim::Simulator sim;
  System sys(ttl_config(), sim);
  sys.put(seq_key(1), kB(8));
  sim.run_until(minutes(59));
  EXPECT_TRUE(sys.has(seq_key(1)));
  sim.run_until(minutes(61));
  EXPECT_FALSE(sys.has(seq_key(1)));
  EXPECT_EQ(sys.user_removed_bytes(), kB(8));
}

TEST(BlockTtl, RefreshExtendsLifetime) {
  sim::Simulator sim;
  System sys(ttl_config(), sim);
  sys.put(seq_key(1), kB(8));
  sim.run_until(minutes(50));
  sys.refresh(seq_key(1));
  sim.run_until(minutes(70));  // past the original deadline
  EXPECT_TRUE(sys.has(seq_key(1)));
  sim.run_until(minutes(50) + minutes(61));
  EXPECT_FALSE(sys.has(seq_key(1)));
}

TEST(BlockTtl, PutRefreshesImplicitly) {
  sim::Simulator sim;
  System sys(ttl_config(), sim);
  sys.put(seq_key(1), kB(8));
  sim.run_until(minutes(55));
  sys.put(seq_key(1), kB(8));  // overwrite refreshes
  sim.run_until(minutes(90));
  EXPECT_TRUE(sys.has(seq_key(1)));
}

TEST(BlockTtl, DisabledByDefault) {
  SystemConfig c = ttl_config();
  c.block_ttl = 0;
  sim::Simulator sim;
  System sys(c, sim);
  sys.put(seq_key(1), kB(8));
  sim.run_until(days(30));
  EXPECT_TRUE(sys.has(seq_key(1)));
}

TEST(BlockTtl, ExplicitRemoveBeatsExpiry) {
  sim::Simulator sim;
  System sys(ttl_config(), sim);
  sys.put(seq_key(1), kB(8));
  sys.remove(seq_key(1));
  sim.run_until(hours(2));
  EXPECT_FALSE(sys.has(seq_key(1)));
  EXPECT_EQ(sys.user_removed_bytes(), kB(8));  // counted exactly once
}

SystemConfig hybrid_config(int scatter) {
  SystemConfig c;
  c.node_count = 32;
  c.replicas = 4;
  c.scatter_replicas = scatter;
  c.seed = 9;
  return c;
}

TEST(HybridPlacement, SetHasSuccessorsPlusScattered) {
  sim::Simulator sim;
  System sys(hybrid_config(1), sim);
  sys.put(seq_key(1), kB(8));
  const auto nodes = sys.replica_nodes(seq_key(1));
  ASSERT_EQ(nodes.size(), 4u);
  // First three are the successor chain.
  EXPECT_EQ(nodes[0], sys.owner_of(seq_key(1)));
  EXPECT_EQ(sys.ring().successor(nodes[0]), nodes[1]);
  EXPECT_EQ(sys.ring().successor(nodes[1]), nodes[2]);
  // The scattered member is somewhere else and distinct.
  std::set<int> unique(nodes.begin(), nodes.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(HybridPlacement, ScatteredMemberSpreadsAcrossRing) {
  // Adjacent D2 keys share their successor chain but get different
  // scattered nodes — that is the parallel-bandwidth benefit.
  sim::Simulator sim;
  System sys(hybrid_config(1), sim);
  std::set<int> scattered;
  for (std::uint64_t i = 0; i < 40; ++i) {
    sys.put(seq_key(i), kB(8));
    const auto nodes = sys.replica_nodes(seq_key(i));
    scattered.insert(nodes.back());
  }
  // With 32 nodes and 40 keys, pure-successor placement would reuse ~4
  // nodes; hashed scatter positions hit many more.
  EXPECT_GT(scattered.size(), 10u);
}

TEST(HybridPlacement, AllDataPresent) {
  sim::Simulator sim;
  System sys(hybrid_config(2), sim);
  for (std::uint64_t i = 0; i < 50; ++i) sys.put(seq_key(i), kB(8));
  for (std::uint64_t i = 0; i < 50; ++i) {
    const store::BlockState* b = sys.block_map().find(seq_key(i));
    ASSERT_NE(b, nullptr);
    for (const store::Replica& r : b->replicas) EXPECT_TRUE(r.has_data);
    EXPECT_TRUE(sys.block_available(seq_key(i)));
  }
}

TEST(HybridPlacement, RecoveryShrinksScatterScanPastLongOutage) {
  // The scattered member's scan skips down nodes with no step bound, so a
  // long outage carries it further than the successor cover arc. When the
  // last node of the outage recovers, the scan must stop there again.
  SystemConfig c = hybrid_config(1);
  c.regen_delay = minutes(5);
  c.paranoid_audits = true;
  sim::Simulator sim;
  System sys(c, sim);
  sys.put(seq_key(1), kB(8));
  const auto before = sys.replica_nodes(seq_key(1));
  std::vector<int> outage = {before.back()};
  while (outage.size() < 12) {
    outage.push_back(sys.ring().successor(outage.back()));
  }
  for (int n : outage) {
    ASSERT_EQ(std::count(before.begin(), before.end() - 1, n), 0);
  }
  const int x = outage.back();
  std::vector<sim::FailureTrace::DownInterval> downs;
  for (int n : outage) {
    downs.push_back({n, minutes(10), n == x ? hours(2) : hours(10)});
  }
  const auto trace =
      sim::FailureTrace::from_intervals(c.node_count, days(1), downs);
  sys.attach_failure_trace(&trace, 0);
  sim.run_until(hours(1));
  EXPECT_EQ(sys.replica_nodes(seq_key(1)).back(), sys.ring().successor(x));
  sim.run_until(hours(3));
  EXPECT_EQ(sys.replica_nodes(seq_key(1)).back(), x);
}

TEST(HybridPlacement, SurvivesWholeSuccessorGroupFailure) {
  // The scenario motivating the hybrid: a correlated failure takes down
  // the whole successor group, but the scattered replica still serves.
  SystemConfig c = hybrid_config(1);
  c.regen_delay = hours(10);  // no regeneration
  sim::Simulator sim;
  System sys(c, sim);
  sys.put(seq_key(1), kB(8));
  const auto nodes = sys.replica_nodes(seq_key(1));
  std::vector<sim::FailureTrace::DownInterval> downs;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    downs.push_back({nodes[i], minutes(10), hours(5)});
  }
  const auto trace =
      sim::FailureTrace::from_intervals(c.node_count, days(1), downs);
  sys.attach_failure_trace(&trace, 0);
  sim.run_until(hours(1));
  EXPECT_TRUE(sys.block_available(seq_key(1)));
  EXPECT_EQ(sys.serving_node(seq_key(1)), nodes.back());
}

TEST(HybridPlacement, LoadBalanceMoveUpdatesScatteredMembers) {
  // When a load-balancing move lands a node inside a scattered replica's
  // arc, the scatter member must be recomputed (via the scatter index).
  sim::Simulator sim;
  System sys(hybrid_config(1), sim);
  for (std::uint64_t i = 0; i < 500; ++i) sys.put(seq_key(i), kB(8));
  bool moved = false;
  for (int p = 0; p < 32 && !moved; ++p) moved = sys.probe_once(p);
  ASSERT_TRUE(moved);
  sim.run_until(days(2));
  // Every block's set must match the target under the new ring: in
  // particular, sizes stay r and all members hold data eventually.
  for (std::uint64_t i = 0; i < 500; ++i) {
    const store::BlockState* b = sys.block_map().find(seq_key(i));
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->replicas.size(), 4u) << i;
    for (const store::Replica& r : b->replicas) {
      EXPECT_TRUE(r.has_data) << "block " << i << " node " << r.node;
    }
  }
}

TEST(HybridPlacement, RemoveCleansScatterIndex) {
  sim::Simulator sim;
  System sys(hybrid_config(1), sim);
  sys.put(seq_key(1), kB(8));
  sys.remove(seq_key(1));
  sim.run_until(minutes(1));
  EXPECT_FALSE(sys.has(seq_key(1)));
  // Reinserting works and lands on a fresh, consistent set.
  sys.put(seq_key(1), kB(8));
  EXPECT_EQ(sys.replica_nodes(seq_key(1)).size(), 4u);
}

class ScatterSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScatterSweep, ReplicaCountAlwaysR) {
  sim::Simulator sim;
  System sys(hybrid_config(GetParam()), sim);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const Key k = Key::random(rng);
    sys.put(k, kB(8));
    EXPECT_EQ(sys.replica_nodes(k).size(), 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(Scatter, ScatterSweep, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace d2::core
