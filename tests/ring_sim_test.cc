#include "dist/ring_sim.h"

#include <gtest/gtest.h>

#include "dist/cost_model.h"

namespace pf::dist {
namespace {

const HardwareProfile kCloud = HardwareProfile::cloud_10g();

std::vector<RingLink> homogeneous() { return {link_from(kCloud)}; }

TEST(RingSim, TrivialSingleNode) {
  RingSimResult r = simulate_ring_allreduce(1 << 20, 1, homogeneous());
  EXPECT_EQ(r.makespan_s, 0.0);
  EXPECT_EQ(r.steps, 0);
}

TEST(RingSim, AllreduceMatchesClosedForm) {
  // Bulk-synchronous homogeneous ring == the alpha-beta formula (up to the
  // ceil() on the chunk size).
  for (int p : {2, 4, 8, 16}) {
    for (int64_t bytes : {1 << 16, 25 << 20}) {
      RingSimResult sim = simulate_ring_allreduce(bytes, p, homogeneous());
      const double closed =
          collective_seconds(Coll::kAllreduce, bytes, p, kCloud);
      EXPECT_NEAR(sim.makespan_s, closed, 0.02 * closed + 1e-6)
          << "p=" << p << " bytes=" << bytes;
      EXPECT_EQ(sim.steps, 2 * (p - 1));
    }
  }
}

TEST(RingSim, AllgatherMatchesClosedForm) {
  for (int p : {2, 8, 16}) {
    const int64_t bytes = 4 << 20;
    RingSimResult sim = simulate_ring_allgather(bytes, p, homogeneous());
    const double closed =
        collective_seconds(Coll::kAllgather, bytes, p, kCloud);
    EXPECT_NEAR(sim.makespan_s, closed, 0.02 * closed + 1e-6) << "p=" << p;
  }
}

TEST(RingSim, PipelinedMatchesBulkSyncOnHomogeneousLinks) {
  const int64_t bytes = 25 << 20;
  for (int p : {4, 8}) {
    RingSimResult bulk = simulate_ring_allreduce(bytes, p, homogeneous());
    RingSimResult pipe =
        simulate_ring_allreduce_pipelined(bytes, p, homogeneous());
    EXPECT_NEAR(pipe.makespan_s, bulk.makespan_s,
                0.01 * bulk.makespan_s + 1e-9);
  }
}

TEST(RingSim, StragglerLinkDominatesBulkSync) {
  // One link at half bandwidth: every barrier round waits for it, so the
  // whole collective slows toward the straggler's rate.
  const int p = 8;
  const int64_t bytes = 25 << 20;
  std::vector<RingLink> links(static_cast<size_t>(p), link_from(kCloud));
  links[3].bandwidth_bytes_per_s /= 2;
  RingSimResult slow = simulate_ring_allreduce(bytes, p, links);
  RingSimResult fast = simulate_ring_allreduce(bytes, p, homogeneous());
  EXPECT_GT(slow.makespan_s, 1.8 * fast.makespan_s);
}

TEST(RingSim, PipeliningCannotBeatTheRingBottleneck) {
  // A structural fact the event simulation verifies: on a RING every chunk
  // crosses every link, so one slow link serializes 2(p-1) chunk transfers
  // no matter how the rounds are scheduled -- pipelining does not help
  // (this is why stragglers are so painful for ring allreduce in practice).
  const int p = 8;
  const int64_t bytes = 25 << 20;
  std::vector<RingLink> links(static_cast<size_t>(p), link_from(kCloud));
  links[3].bandwidth_bytes_per_s /= 2;
  RingSimResult bulk = simulate_ring_allreduce(bytes, p, links);
  RingSimResult pipe = simulate_ring_allreduce_pipelined(bytes, p, links);
  EXPECT_LE(pipe.makespan_s, bulk.makespan_s + 1e-9);
  // Both sit at the straggler bound: 2(p-1) serialized slow transfers.
  const double bound =
      2.0 * (p - 1) *
      (links[3].latency_s + static_cast<double>(bytes / p) /
                                links[3].bandwidth_bytes_per_s);
  EXPECT_NEAR(pipe.makespan_s, bound, 0.05 * bound);
}

TEST(RingSim, BytesPerLinkAccounting) {
  const int p = 4;
  const int64_t bytes = 4096;
  RingSimResult r = simulate_ring_allreduce(bytes, p, homogeneous());
  // Each link carries 2(p-1) chunks of bytes/p.
  EXPECT_EQ(r.bytes_per_link, 2 * (p - 1) * (bytes / p));
}

TEST(RingSim, LatencyTermScalesWithNodes) {
  // Tiny payload: the makespan is dominated by 2(p-1) alpha.
  const int64_t bytes = 64;
  RingSimResult p4 = simulate_ring_allreduce(bytes, 4, homogeneous());
  RingSimResult p16 = simulate_ring_allreduce(bytes, 16, homogeneous());
  EXPECT_NEAR(p16.makespan_s / p4.makespan_s, 30.0 / 6.0, 0.2);
}

}  // namespace
}  // namespace pf::dist
