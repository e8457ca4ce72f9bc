// The benchmark's own instrumentation must not change what it measures.
#include <gtest/gtest.h>

#include "workloads.hpp"

namespace perfbench {
namespace {

class EveryWorkload : public ::testing::TestWithParam<const char*> {};

// The traced run adds a recorder with counting and checking sinks, transmit and
// drop hooks on every access link, and one-simulated-second run_until slices.
// None of that may move sim.events or the outcome fingerprint relative to an
// untraced run of one unsliced run_until.
TEST_P(EveryWorkload, TracedRunReproducesTheUntracedRun) {
  const Workload* workload = find_workload(GetParam());
  ASSERT_NE(workload, nullptr);

  std::unique_ptr<Instance> plain = workload->make(workload->default_seed, nullptr);
  plain->run();
  const Fingerprint untraced = plain->fingerprint();
  EXPECT_TRUE(plain->failures().empty());
  plain.reset();

  Probe probe;
  std::unique_ptr<Instance> traced = workload->make(workload->default_seed, &probe);
  traced->run();
  const Fingerprint fp = traced->fingerprint();
  EXPECT_EQ(fp.events, untraced.events);
  EXPECT_EQ(fp.text, untraced.text);
  EXPECT_TRUE(traced->failures().empty());
  EXPECT_TRUE(probe.timed_checker.checker.violations().empty());
}

INSTANTIATE_TEST_SUITE_P(Perfbench, EveryWorkload,
                         ::testing::Values("mobile_swarm", "flyweight_crowd",
                                           "adversary_mixed"));

void expect_probe_leaves_swarm(Instance& instance) {
  wp2p::bt::Tracker& tracker = instance.tracker();
  const std::size_t size = tracker.swarm_size(instance.info_hash());
  const std::size_t seeds = tracker.seed_count(instance.info_hash());
  ASSERT_GT(size, 0u);
  EXPECT_GT(announce_probe_us(tracker, instance.info_hash(), 8), 0.0);
  EXPECT_EQ(tracker.swarm_size(instance.info_hash()), size);
  EXPECT_EQ(tracker.seed_count(instance.info_hash()), seeds);
}

TEST(AnnounceProbe, LeavesTheSwarmAsItFoundItAfterARun) {
  const Workload* workload = find_workload("mobile_swarm");
  std::unique_ptr<Instance> instance = workload->make(workload->default_seed, nullptr);
  instance->run();
  expect_probe_leaves_swarm(*instance);
}

TEST(AnnounceProbe, LeavesTheSwarmAsItFoundItAtFullPopulation) {
  const Workload* workload = find_workload("flyweight_crowd");
  std::unique_ptr<Instance> instance = workload->make(workload->default_seed, nullptr);
  expect_probe_leaves_swarm(*instance);
}

}  // namespace
}  // namespace perfbench
