// HardwareProfile: one description of a cluster's links and compute. Its
// member initializers are the repo's only link constants: the alpha-beta
// model (cost_model.h) prices collectives over a profile, and the ring
// event simulation takes its links from one via link_from (ring_sim.h).
//
// A profile describes a two-level topology: `workers_per_node` ranks share
// a fast intra-node link; nodes talk over the slower inter-node link.
// workers_per_node == 1 degenerates to the flat single-level ring every
// pre-existing model assumed. `flops_per_s` is the effective training
// throughput used to convert model FLOP counts into modeled compute time
// (src/plan/model_costs.h); it is a measured, achieved rate -- not peak --
// and the calibration in src/plan/calibrate.h overwrites it per machine.
#pragma once

#include <string>
#include <vector>

namespace pf::dist {

struct HardwareProfile {
  std::string name = "cloud-10g";

  // Inter-node link (the only link of a flat topology). The defaults are
  // the paper's EC2 p3.2xlarge cluster: 10 Gbps ethernet, 50 us per ring
  // step.
  double alpha_s = 50e-6;
  double bandwidth_bytes_per_s = 10e9 / 8;

  // Intra-node link for two-level topologies (NVLink/shm class). Unused
  // while workers_per_node == 1.
  double intra_alpha_s = 5e-6;
  double intra_bandwidth_bytes_per_s = 100e9 / 8;
  int workers_per_node = 1;

  // Effective (achieved) training compute throughput per worker.
  double flops_per_s = 50e9;

  // Heterogeneous clusters: per-worker relative speed multipliers (1.0 =
  // nominal flops_per_s; 0.5 = half speed). Empty = homogeneous. A
  // synchronous data-parallel step runs at the SLOWEST participating
  // worker's pace, so pricing a p-worker job divides compute by
  // slowest_speed(p). Workers beyond the vector's length are nominal; the
  // elastic executor fills this from measured per-slot step times
  // (elastic::speed_profile) so plan::make_plan can decide whether adding a
  // slow node is worth it.
  std::vector<double> worker_speeds;

  // Concurrent compute slots the whole job shares. 0 (the cluster default)
  // means every rank has its own dedicated compute; a positive value means
  // ranks beyond it time-share -- the shm executor's reality on this host,
  // where p worker threads on c cores compute at ceil(p/c) x the
  // single-replica step time. Calibration sets this to the host core count.
  int compute_slots = 0;

  // Serving memory per node available for resident model weights (the
  // fleet-density budget plan::serve_density divides by). Activations and
  // request queues are budgeted separately; this bounds how many engines a
  // multi-model fleet can keep materialized.
  int64_t serve_mem_bytes = 8ll << 30;

  bool hierarchical() const { return workers_per_node > 1; }
  bool heterogeneous() const { return !worker_speeds.empty(); }

  // Relative speed of the slowest of the first `workers` ranks (clamped to
  // a tiny positive floor so a zero entry cannot divide compute by zero).
  double slowest_speed(int workers) const;

  // The profile grid bench_plan sweeps (Table 19/20 style trade-off study
  // across link generations).
  static HardwareProfile cloud_10g();      // the paper's EC2 setup
  static HardwareProfile rdma_100g();      // RDMA-class fabric, 8 ranks/node
  static HardwareProfile commodity_1g();   // commodity gigabit lab
};

}  // namespace pf::dist
