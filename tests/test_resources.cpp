// Unit tests for core/GPU slot accounting and affinity enforcement.
#include <gtest/gtest.h>

#include "runtime/resources.hpp"

namespace chpo::rt {
namespace {

TEST(Resources, AllocatesSpecificCores) {
  ResourceState rs(cluster::marenostrum4(1));
  const auto p = rs.try_allocate(0, Constraint{.cpus = 4});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->cpu_count(), 4u);
  EXPECT_EQ(p->cores, (std::vector<unsigned>{0, 1, 2, 3}));
  EXPECT_EQ(rs.free_cpus(0), 44u);
}

TEST(Resources, NeverOversubscribes) {
  ResourceState rs(cluster::marenostrum4(1));
  std::vector<Placement> held;
  for (int i = 0; i < 48; ++i) {
    auto p = rs.try_allocate(0, Constraint{.cpus = 1});
    ASSERT_TRUE(p.has_value());
    held.push_back(*p);
  }
  EXPECT_FALSE(rs.try_allocate(0, Constraint{.cpus = 1}).has_value());
  // All granted cores are distinct.
  std::vector<unsigned> cores;
  for (const auto& p : held) cores.push_back(p.cores[0]);
  std::sort(cores.begin(), cores.end());
  EXPECT_EQ(std::adjacent_find(cores.begin(), cores.end()), cores.end());
}

TEST(Resources, ReleaseMakesSlotsReusable) {
  ResourceState rs(cluster::marenostrum4(1));
  auto p = rs.try_allocate(0, Constraint{.cpus = 48});
  ASSERT_TRUE(p);
  EXPECT_FALSE(rs.try_allocate(0, Constraint{.cpus = 1}));
  rs.release(*p);
  EXPECT_TRUE(rs.try_allocate(0, Constraint{.cpus = 48}));
}

TEST(Resources, DoubleReleaseThrows) {
  ResourceState rs(cluster::marenostrum4(1));
  auto p = rs.try_allocate(0, Constraint{.cpus = 2});
  rs.release(*p);
  EXPECT_THROW(rs.release(*p), std::logic_error);
}

TEST(Resources, GpuAllocation) {
  ResourceState rs(cluster::power9(1));
  const auto p = rs.try_allocate(0, Constraint{.cpus = 10, .gpus = 1});
  ASSERT_TRUE(p);
  EXPECT_EQ(p->gpu_count(), 1u);
  EXPECT_EQ(rs.free_gpus(0), 3u);
  // Only 4 GPUs: a fifth one-GPU task must not fit.
  rs.try_allocate(0, Constraint{.gpus = 1});
  rs.try_allocate(0, Constraint{.gpus = 1});
  rs.try_allocate(0, Constraint{.gpus = 1});
  EXPECT_FALSE(rs.try_allocate(0, Constraint{.gpus = 1}));
}

TEST(Resources, NodeExclusiveTakesAllUsableCores) {
  ResourceState rs(cluster::marenostrum4(2));
  const auto p = rs.try_allocate(1, Constraint{.node_exclusive = true});
  ASSERT_TRUE(p);
  EXPECT_EQ(p->cpu_count(), 48u);
  EXPECT_EQ(rs.free_cpus(1), 0u);
  EXPECT_EQ(rs.free_cpus(0), 48u);
}

TEST(Resources, WorkerSharedCoresOffsetsPhysicalIndices) {
  // Paper Fig 5: worker holds half of a 48-core node; tasks land on the
  // upper 24 physical cores.
  cluster::ClusterSpec spec = cluster::marenostrum4(1);
  spec.worker_placement = cluster::WorkerPlacement::SharedCores;
  spec.worker_cores = 24;
  ResourceState rs(spec);
  const auto p = rs.try_allocate(0, Constraint{.cpus = 1});
  ASSERT_TRUE(p);
  EXPECT_EQ(p->cores[0], 24u);  // first usable physical core
  EXPECT_EQ(rs.free_cpus(0), 23u);
  rs.release(*p);
  EXPECT_EQ(rs.free_cpus(0), 24u);
}

TEST(Resources, DedicatedWorkerNodeUnusable) {
  cluster::ClusterSpec spec = cluster::marenostrum4(3);
  spec.worker_placement = cluster::WorkerPlacement::DedicatedNode;
  ResourceState rs(spec);
  EXPECT_FALSE(rs.try_allocate(0, Constraint{.cpus = 1}));
  EXPECT_TRUE(rs.try_allocate(1, Constraint{.cpus = 1}));
  EXPECT_FALSE(rs.could_fit(0, Constraint{.cpus = 1}));
}

TEST(Resources, FailedNodeRejectsAllocation) {
  ResourceState rs(cluster::marenostrum4(2));
  rs.mark_node_down(0);
  EXPECT_TRUE(rs.node_down(0));
  EXPECT_FALSE(rs.try_allocate(0, Constraint{.cpus = 1}));
  EXPECT_EQ(rs.free_cpus(0), 0u);
  EXPECT_TRUE(rs.try_allocate(1, Constraint{.cpus = 1}));
}

TEST(Resources, CouldFitIgnoresOccupancy) {
  ResourceState rs(cluster::marenostrum4(1));
  auto p = rs.try_allocate(0, Constraint{.cpus = 48});
  ASSERT_TRUE(p);
  EXPECT_TRUE(rs.could_fit(0, Constraint{.cpus = 48}));   // would fit when free
  EXPECT_FALSE(rs.could_fit(0, Constraint{.cpus = 49}));  // never fits
  EXPECT_FALSE(rs.could_fit(0, Constraint{.cpus = 1, .gpus = 1}));
}

TEST(Resources, UnknownNodeQueries) {
  ResourceState rs(cluster::marenostrum4(1));
  EXPECT_FALSE(rs.try_allocate(9, Constraint{}));
  EXPECT_FALSE(rs.could_fit(9, Constraint{}));
  // Membership mutations and queries validate the index consistently.
  EXPECT_THROW(rs.mark_node_down(9), std::out_of_range);
  EXPECT_THROW(rs.mark_node_up(9), std::out_of_range);
  EXPECT_THROW(rs.node_down(9), std::out_of_range);
}

TEST(Resources, NodeUpRevivesWithCleanSlate) {
  ResourceState rs(cluster::marenostrum4(2));
  ASSERT_TRUE(rs.try_allocate(0, Constraint{.cpus = 4}));
  rs.mark_node_down(0);
  EXPECT_TRUE(rs.node_down(0));
  EXPECT_EQ(rs.free_cpus(0), 0u);
  rs.mark_node_up(0);
  EXPECT_FALSE(rs.node_down(0));
  // Everything that was running there died with the outage: the node
  // rejoins with all slots free.
  EXPECT_EQ(rs.free_cpus(0), rs.spec().usable_cpus(0));
  EXPECT_TRUE(rs.try_allocate(0, Constraint{.cpus = 1}));
}

TEST(Resources, ZeroCpuGpuOnlyTask) {
  ResourceState rs(cluster::power9(1));
  const auto p = rs.try_allocate(0, Constraint{.cpus = 0, .gpus = 2});
  ASSERT_TRUE(p);
  EXPECT_EQ(p->cpu_count(), 0u);
  EXPECT_EQ(p->gpu_count(), 2u);
}

}  // namespace
}  // namespace chpo::rt
