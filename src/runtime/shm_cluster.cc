#include "runtime/shm_cluster.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <ctime>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/factorize.h"
#include "metrics/metrics.h"
#include "nn/serialize.h"
#include "runtime/thread_pool.h"
#include "trace/trace.h"

namespace pf::runtime {

namespace {

// The paper's cluster (16x p3.2xlarge, 10 Gbps): what the priced breakdown
// of every epoch record is priced on.
const dist::HardwareProfile kPaperCluster = dist::HardwareProfile::cloud_10g();

// CPU seconds consumed by the calling thread. Unlike wall-clock it does not
// grow while the thread waits for a core, so per-worker compute stays
// honest when more workers than cores share the host.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Reusable rendezvous point for the cluster's worker threads.
class Barrier {
 public:
  explicit Barrier(int n) : n_(n) {}
  void wait() {
    std::unique_lock<std::mutex> lk(m_);
    const uint64_t gen = gen_;
    if (++arrived_ == n_) {
      arrived_ = 0;
      ++gen_;
      cv_.notify_all();
    } else {
      cv_.wait(lk, [&] { return gen_ != gen; });
    }
  }

 private:
  const int n_;
  int arrived_ = 0;
  uint64_t gen_ = 0;
  std::mutex m_;
  std::condition_variable cv_;
};

// One bucketed ring all-reduce pass as executed by worker `w`. Buckets are
// walked from the tail of the flat buffer -- the order backward produces
// gradients -- so a real ring would overlap early buckets with the head of
// the next step's compute. Each bucket: rendezvous, then a reduce-scatter
// where worker w owns segment w and sums it across replicas in ascending
// replica order (bitwise identical to the sequential mean); the allgather
// collapses to shared-memory reads of `agg`. Shared verbatim by train_epoch
// and the calibration microbenchmark timed_ring_allreduce, so measured
// alpha/beta describe the exact production code path.
void ring_reduce_pass(int w, int n_active, int64_t total_params,
                      int64_t bucket_elems, int64_t n_buckets,
                      const std::vector<Tensor>& arena,
                      std::vector<const float*>& grad_p, float* agg,
                      Barrier& barrier) {
  const float inv = 1.0f / static_cast<float>(n_active);
  for (int64_t k = n_buckets - 1; k >= 0; --k) {
    barrier.wait();
    if (k == n_buckets - 1)  // first rendezvous published all arenas
      for (int j = 0; j < n_active; ++j)
        grad_p[static_cast<size_t>(j)] =
            std::as_const(arena[static_cast<size_t>(j)]).data();
    const int64_t b0 = k * bucket_elems;
    const int64_t b1 = std::min(b0 + bucket_elems, total_params);
    const int64_t seg = (b1 - b0 + n_active - 1) / n_active;
    if (w < n_active) {
      const int64_t s0 = b0 + w * seg;
      const int64_t s1 = std::min(s0 + seg, b1);
      for (int64_t i = s0; i < s1; ++i) {
        float acc = grad_p[0][i];
        for (int j = 1; j < n_active; ++j)
          acc += grad_p[static_cast<size_t>(j)][i];
        agg[i] = acc * inv;
      }
    }
  }
  barrier.wait();
}

// Every nn::checkpoint_tensors entry (params and BN buffers) of replica 0
// copied into the others, so all replicas hold the same full state.
void broadcast_state(std::vector<std::unique_ptr<nn::UnaryModule>>& replicas) {
  const std::vector<Tensor*> src = nn::checkpoint_tensors(*replicas[0]);
  for (size_t w = 1; w < replicas.size(); ++w) {
    const std::vector<Tensor*> dst = nn::checkpoint_tensors(*replicas[w]);
    for (size_t i = 0; i < dst.size(); ++i)
      std::memcpy(dst[i]->data(), std::as_const(*src[i]).data(),
                  static_cast<size_t>(dst[i]->numel()) * sizeof(float));
  }
}

// One active lane's BatchNorm running statistics: (momentum, buffer) in
// module order, and the values they held when the step began.
struct LaneBn {
  std::vector<std::pair<float, Tensor*>> bufs;
  std::vector<std::vector<float>> prev;
};

void collect_bn(nn::Module& m, LaneBn& out) {
  if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
    out.bufs.push_back({bn->momentum(), bn->running_mean});
    out.bufs.push_back({bn->momentum(), bn->running_var});
  }
  for (nn::Module* c : m.children()) collect_bn(*c, out);
}

// Gives every lane's replica the running statistics one model would hold
// after seeing the step's shards (lanes [0, n_active)) in ascending lane
// order: each lane's own update a*prev + m*mean is recovered as
// cur - a*prev and replayed from lane 0's starting value. Buffers then
// agree across replicas as params do, with one update per shard -- the
// single-process micro-batch semantics -- rather than one per step.
void compose_bn(std::vector<LaneBn>& lanes, int n_active) {
  for (size_t b = 0; b < lanes[0].bufs.size(); ++b) {
    const float a = 1.0f - lanes[0].bufs[b].first;
    for (int64_t i = 0; i < lanes[0].bufs[b].second->numel(); ++i) {
      const size_t k = static_cast<size_t>(i);
      float r = lanes[0].prev[b][k];
      for (int j = 0; j < n_active; ++j) {
        const LaneBn& l = lanes[static_cast<size_t>(j)];
        r = a * r + (std::as_const(*l.bufs[b].second).data()[i] -
                     a * l.prev[b][k]);
      }
      for (LaneBn& l : lanes) l.bufs[b].second->data()[i] = r;
    }
  }
}

}  // namespace

double timed_ring_allreduce(int workers, int64_t elems, int64_t bucket_bytes,
                            int reps) {
  workers = std::max(1, workers);
  elems = std::max<int64_t>(1, elems);
  reps = std::max(1, reps);
  const int64_t bucket_elems = std::max<int64_t>(
      1, bucket_bytes / static_cast<int64_t>(sizeof(float)));
  const int64_t n_buckets = (elems + bucket_elems - 1) / bucket_elems;

  std::vector<Tensor> arena;
  for (int w = 0; w < workers; ++w) {
    Tensor t(Shape{elems});
    // Deterministic non-trivial payload; values are irrelevant to timing.
    float* d = t.data();
    for (int64_t i = 0; i < elems; ++i)
      d[i] = static_cast<float>((i + w) % 17) * 0.25f;
    arena.push_back(std::move(t));
  }
  Tensor agg(Shape{elems});
  float* const agg_p = agg.data();
  Barrier barrier(workers);
  double seconds = 0;

  auto worker_fn = [&](int w) {
    std::vector<const float*> grad_p(static_cast<size_t>(workers), nullptr);
    // Untimed warm-up pass (faults in the first pass: page-in, cold caches).
    ring_reduce_pass(w, workers, elems, bucket_elems, n_buckets, arena,
                     grad_p, agg_p, barrier);
    metrics::Timer t;  // every worker starts after the same barrier
    for (int r = 0; r < reps; ++r)
      ring_reduce_pass(w, workers, elems, bucket_elems, n_buckets, arena,
                       grad_p, agg_p, barrier);
    if (w == 0) seconds = t.seconds();
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) pool.emplace_back(worker_fn, w);
  worker_fn(0);
  for (std::thread& t : pool) t.join();
  return seconds / reps;
}

Tensor ring_allreduce(const std::vector<Tensor>& grads, int64_t bucket_bytes) {
  const int lanes = static_cast<int>(grads.size());
  if (lanes < 1) throw std::runtime_error("ring_allreduce: no lanes");
  const int64_t elems = grads[0].numel();
  for (const Tensor& g : grads)
    if (g.numel() != elems)
      throw std::runtime_error("ring_allreduce: lane length mismatch");
  const int64_t bucket_elems = std::max<int64_t>(
      1, bucket_bytes / static_cast<int64_t>(sizeof(float)));
  const int64_t n_buckets = (elems + bucket_elems - 1) / bucket_elems;

  std::vector<Tensor> arena(grads.begin(), grads.end());
  Tensor agg(Shape{elems});
  float* const agg_p = agg.data();
  Barrier barrier(lanes);
  auto worker_fn = [&](int w) {
    std::vector<const float*> grad_p(static_cast<size_t>(lanes), nullptr);
    ring_reduce_pass(w, lanes, elems, bucket_elems, n_buckets, arena, grad_p,
                     agg_p, barrier);
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(lanes - 1));
  for (int w = 1; w < lanes; ++w) pool.emplace_back(worker_fn, w);
  worker_fn(0);
  for (std::thread& t : pool) t.join();
  return agg;
}

ShmDataParallelTrainer::ShmDataParallelTrainer(
    const core::VisionModelFactory& make_model,
    std::unique_ptr<compress::Reducer> reducer, const ShmClusterConfig& cfg)
    : cfg_(cfg), reducer_(std::move(reducer)) {
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.train.threads > 0) set_threads(cfg_.train.threads);
  for (int w = 0; w < cfg_.workers; ++w)
    worker_rngs_.push_back(
        Rng::stream(cfg_.train.seed, static_cast<uint64_t>(w)));
  replace_model(make_model, nullptr);
}

void ShmDataParallelTrainer::replace_model(
    const core::VisionModelFactory& make, const ModelTransfer& transfer,
    std::unique_ptr<compress::Reducer> reducer) {
  if (reducer) reducer_ = std::move(reducer);
  // A missing or plain-allreduce reducer means the payload sums, so the
  // worker threads can execute the bucketed reduction themselves.
  ring_path_ = !reducer_ || reducer_->name() == "allreduce";
  const dist::DistTrainConfig& tc = cfg_.train;
  // Every replica is built from an identically seeded Rng: replicas start
  // bitwise equal, and stay equal because each step applies the same
  // aggregated gradient.
  std::vector<std::unique_ptr<nn::UnaryModule>> next;
  for (int w = 0; w < cfg_.workers; ++w) {
    Rng rng(tc.seed * 0x9E3779B9u + 101);
    next.push_back(make(rng));
  }
  if (transfer) {
    // One transfer into the canonical replica, then a broadcast of its
    // full checkpoint state (params and BN buffers) to the others. A
    // transfer may re-rank low-rank layers (core::reproject), so the other
    // replicas first take the canonical's ranks.
    transfer(*replicas_[0], *next[0]);
    const std::vector<int64_t> ranks = core::collect_ranks(*next[0]);
    for (size_t w = 1; w < next.size(); ++w) core::apply_ranks(*next[w], ranks);
    broadcast_state(next);
  }
  replicas_ = std::move(next);
  opts_.clear();
  for (auto& r : replicas_)
    opts_.push_back(std::make_unique<optim::SGD>(
        r->parameters(), tc.lr, tc.momentum, tc.weight_decay));
  param_shapes_.clear();
  for (nn::Param* p : replicas_[0]->parameters())
    param_shapes_.push_back(p->var->value.shape());
}

void ShmDataParallelTrainer::kill(int w) {
  fault::record_kill();
  const float poison = std::numeric_limits<float>::quiet_NaN();
  for (nn::Param* p : replicas_[static_cast<size_t>(w)]->parameters()) {
    Tensor& v = p->var->value;
    std::fill(v.data(), v.data() + v.numel(), poison);
  }
  for (Tensor* t : opts_[static_cast<size_t>(w)]->state_tensors())
    std::fill(t->data(), t->data() + t->numel(), poison);
}

dist::DistEpochRecord ShmDataParallelTrainer::train_epoch(
    const data::SyntheticImages& ds, int epoch) {
  return train_epoch(ds, epoch, EpochParticipants{});
}

dist::DistEpochRecord ShmDataParallelTrainer::train_epoch(
    const data::SyntheticImages& ds, int epoch,
    const EpochParticipants& parts) {
  PF_TRACE_SCOPE_C("shm.epoch", epoch);
  // Resolve the participating slots. `lane` below is a dense index into the
  // active set (ring position); `slot` is the stable replica identity fault
  // plans and membership schedules are written against.
  std::vector<int> active = parts.active;
  if (active.empty()) {
    active.resize(static_cast<size_t>(cfg_.workers));
    std::iota(active.begin(), active.end(), 0);
  }
  for (size_t i = 0; i < active.size(); ++i) {
    if (active[i] < 0 || active[i] >= cfg_.workers ||
        (i > 0 && active[i] <= active[i - 1]))
      throw std::runtime_error(
          "shm_cluster: active slots must be sorted, unique, and within "
          "[0, workers)");
  }
  const int lanes = static_cast<int>(active.size());
  const int canonical = parts.canonical >= 0 ? parts.canonical : active[0];
  if (!std::binary_search(active.begin(), active.end(), canonical))
    throw std::runtime_error("shm_cluster: canonical slot must be active");
  if (!parts.delay_ms.empty() &&
      parts.delay_ms.size() != static_cast<size_t>(cfg_.workers))
    throw std::runtime_error(
        "shm_cluster: delay_ms must be empty or sized `workers`");

  const dist::DistTrainConfig& tc = cfg_.train;
  const float lr = dist::lr_at_epoch(tc, epoch);
  for (auto& o : opts_) o->set_lr(lr);
  for (auto& r : replicas_) r->train(true);

  int64_t total_params = 0;
  for (const Shape& s : param_shapes_) total_params += shape_numel(s);
  const int64_t bucket_elems =
      std::max<int64_t>(1, cfg_.bucket_bytes / static_cast<int64_t>(sizeof(float)));
  const int64_t n_buckets = (total_params + bucket_elems - 1) / bucket_elems;

  metrics::Timer wall;
  const auto batches = ds.train_batches(tc.global_batch, epoch);
  // Global step index of this epoch's first batch; faults are scheduled
  // against global steps so a plan survives multi-epoch runs.
  const int64_t step_base = global_step_;

  // Shared step state, one cell per active LANE. Workers only write their
  // own arena slot / loss cell; all cross-worker reads are separated from
  // the writes by a rendezvous.
  std::vector<Tensor> arena(static_cast<size_t>(lanes));
  Tensor agg(Shape{total_params});
  // Ring path: every worker writes its own disjoint segment of `agg`.
  // Hoist the pointer once, before the threads spawn -- concurrent mutable
  // data() calls on one shared Tensor handle would race in the COW check.
  // (`agg` is only reassigned on the reducer path, by lane 0 alone.)
  float* const agg_ring = ring_path_ ? agg.data() : nullptr;
  std::vector<double> losses(static_cast<size_t>(lanes), 0.0);
  std::vector<double> compute_acc(static_cast<size_t>(lanes), 0.0);
  std::vector<double> compute_cpu_acc(static_cast<size_t>(lanes), 0.0);
  std::vector<double> comm_acc(static_cast<size_t>(lanes), 0.0);
  std::vector<double> fault_acc(static_cast<size_t>(lanes), 0.0);
  // Worker 0's time spent inside reducer_->reduce (reducer path only). It is
  // subtracted from worker 0's comm window after the join and re-attributed
  // as encode_s/decode_s (averaged per worker like every other component),
  // so no interval is counted twice and the components sum to the wall.
  double reduce_excl_s = 0;
  double encode_s = 0, decode_s = 0, loss_sum = 0;
  int64_t bytes_per_worker =
      ring_path_ ? total_params * static_cast<int64_t>(sizeof(float)) : 0;
  // Lane 0 prices every step on the paper cluster (DistEpochRecord::priced).
  dist::EpochBreakdown priced;
  int64_t steps = 0;
  Barrier barrier(lanes);
  // BN running statistics are composed across lanes after every step
  // (compose_bn). Train-mode forwards never read them, so train losses do
  // not change, and they are not part of the gradient payload priced below.
  std::vector<LaneBn> bn(static_cast<size_t>(lanes));
  for (int lane = 0; lane < lanes; ++lane)
    collect_bn(*replicas_[static_cast<size_t>(active[static_cast<size_t>(lane)])],
               bn[static_cast<size_t>(lane)]);

  auto worker_fn = [&](int lane) {
    const int w = active[static_cast<size_t>(lane)];
    // Per-step snapshot of every active replica's flat-grad pointer (const
    // reads: the Tensor handles themselves are written only by their owner).
    std::vector<const float*> grad_p(static_cast<size_t>(lanes), nullptr);
    for (size_t bi = 0; bi < batches.size(); ++bi) {
      const data::ImageBatch& gb = batches[bi];
      const int64_t step = step_base + static_cast<int64_t>(bi);

      // Round-boundary straggler delay (wait-all strategy): injected once,
      // at the top of the epoch's first step; the barriers make every other
      // worker absorb it.
      if (bi == 0 && !parts.delay_ms.empty() &&
          parts.delay_ms[static_cast<size_t>(w)] > 0) {
        metrics::Timer t_fault;
        fault::record_delay();
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            parts.delay_ms[static_cast<size_t>(w)]));
        fault_acc[static_cast<size_t>(lane)] += t_fault.seconds();
      }

      // Fault injection happens at the top of the step, before any barrier:
      // the one point where every replica's params and optimizer velocity
      // are stable (they only mutate in opt.step(), after the last barrier
      // of the previous step) and bitwise-identical across workers. That
      // makes a kill recoverable in place with plain const reads of a
      // surviving replica, no extra synchronization.
      if (!cfg_.fault.empty()) {
        if (const fault::WorkerFault* f = cfg_.fault.worker_fault(w, step)) {
          PF_TRACE_SCOPE_C("shm.recover", step);
          metrics::Timer t_fault;
          if (f->kind == fault::WorkerFault::Kind::kDelay) {
            // Straggler: this worker stalls, the barriers make everyone
            // else absorb the delay -- exactly how a slow node taxes
            // synchronous data-parallel training.
            fault::record_delay();
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(f->delay_ms));
          } else {
            // Donor = lowest ACTIVE replica with no kill scheduled this
            // step (inactive replicas are stale by the membership
            // contract). If every active worker is scheduled to die
            // simultaneously, the lowest active slot is spared: in-place
            // recovery needs at least one survivor.
            int donor = active[0];
            for (int j : active) {
              const fault::WorkerFault* jf = cfg_.fault.worker_fault(j, step);
              if (!jf || jf->kind != fault::WorkerFault::Kind::kKill) {
                donor = j;
                break;
              }
            }
            if (donor != w) {
              // Kill: the replica's live state is lost; reincarnate it
              // from the donor.
              kill(w);
              replicas_[static_cast<size_t>(w)]->set_flat_params(
                  replicas_[static_cast<size_t>(donor)]->flat_params());
              std::vector<Tensor*> src =
                  opts_[static_cast<size_t>(donor)]->state_tensors();
              std::vector<Tensor*> dst =
                  opts_[static_cast<size_t>(w)]->state_tensors();
              for (size_t i = 0; i < dst.size(); ++i)
                std::memcpy(dst[i]->data(), std::as_const(*src[i]).data(),
                            static_cast<size_t>(dst[i]->numel()) *
                                sizeof(float));
              fault::record_recovery();
            }
          }
          fault_acc[static_cast<size_t>(lane)] += t_fault.seconds();
        }
      }

      // Reshard this batch over the active lanes (balanced contiguous
      // partition; every sample lands in exactly one lane). Lanes past the
      // sample count contribute nothing but still keep the rendezvous.
      const int64_t bsz = gb.images.size(0);
      const int n_active = static_cast<int>(std::min<int64_t>(lanes, bsz));

      LaneBn& own_bn = bn[static_cast<size_t>(lane)];
      own_bn.prev.clear();
      for (const auto& mb : own_bn.bufs) {
        const float* v = std::as_const(*mb.second).data();
        own_bn.prev.emplace_back(v, v + mb.second->numel());
      }
      metrics::Timer t_compute;
      const double cpu_compute0 = thread_cpu_seconds();
      const dist::ShardRange sr = dist::shard_range(bsz, lanes, lane);
      if (sr.count > 0) {
        PF_TRACE_SCOPE_C("shm.compute", step);
        Tensor imgs = slice(gb.images, 0, sr.start, sr.count);
        std::vector<int64_t> labels(gb.labels.begin() + sr.start,
                                    gb.labels.begin() + sr.start + sr.count);
        nn::UnaryModule& m = *replicas_[static_cast<size_t>(w)];
        m.zero_grad();
        ag::Var logits = m.forward(ag::leaf(std::move(imgs)));
        ag::Var loss = ag::cross_entropy(logits, labels, tc.label_smoothing);
        ag::backward(loss);
        arena[static_cast<size_t>(lane)] = m.flat_grads();
        const Tensor& lv = loss->value;
        losses[static_cast<size_t>(lane)] = lv[0];
      }
      compute_acc[static_cast<size_t>(lane)] += t_compute.seconds();
      compute_cpu_acc[static_cast<size_t>(lane)] +=
          thread_cpu_seconds() - cpu_compute0;

      metrics::Timer t_comm;
      {
      PF_TRACE_SCOPE_C("shm.reduce", step);
      if (ring_path_) {
        // Bucketed all-reduce run by the workers themselves; see
        // ring_reduce_pass (also the calibration target of
        // timed_ring_allreduce, so plan profiles price this exact loop).
        ring_reduce_pass(lane, n_active, total_params, bucket_elems,
                         n_buckets, arena, grad_p, agg_ring, barrier);
      } else {
        // Non-summing payloads go through the Reducer, centralized on
        // lane 0, which sees every lane's gradient. Lane 0 times
        // the reduce separately: that interval is excluded from its comm
        // window (see reduce_excl_s) and surfaces as encode_s/decode_s
        // instead, keeping the breakdown components disjoint. The other
        // workers' barrier wait while lane 0 reduces genuinely is
        // synchronization time, so it stays in their comm windows.
        barrier.wait();
        if (lane == 0) {
          std::vector<Tensor> grads(arena.begin(), arena.begin() + n_active);
          compress::ReduceStats stats;
          metrics::Timer t_reduce;
          agg = reducer_->reduce(grads, param_shapes_, &stats);
          reduce_excl_s += t_reduce.seconds();
          encode_s += stats.encode_seconds / lanes;
          decode_s += stats.decode_seconds / lanes;
          bytes_per_worker = stats.payload_bytes_per_worker;
          priced.decode_s += stats.decode_seconds;
          priced.comm_s += dist::collective_seconds(
              stats.collective, stats.payload_bytes_per_worker, lanes,
              kPaperCluster, stats.n_messages);
        }
        barrier.wait();
      }
      }
      comm_acc[static_cast<size_t>(lane)] += t_comm.seconds();

      replicas_[static_cast<size_t>(w)]->set_flat_grads(agg);
      opts_[static_cast<size_t>(w)]->step();
      if (lane == 0) {
        for (int j = 0; j < n_active; ++j) {
          loss_sum += losses[static_cast<size_t>(j)];
          ++steps;
        }
        // The ring path is one flat-buffer allreduce of every param,
        // exactly what compress::AllreduceReducer reports.
        if (ring_path_)
          priced.comm_s += dist::collective_seconds(
              dist::Coll::kAllreduce, bytes_per_worker, lanes, kPaperCluster);
        cumulative_bytes_ += bytes_per_worker;
      }
      // Keeps arena and agg stable until every worker has stepped; the
      // second rendezvous keeps every replica out of its next forward
      // until lane 0 has composed the BN statistics.
      barrier.wait();
      if (lane == 0) compose_bn(bn, n_active);
      barrier.wait();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(lanes - 1));
  for (int lane = 1; lane < lanes; ++lane) pool.emplace_back(worker_fn, lane);
  worker_fn(0);
  for (std::thread& t : pool) t.join();

  // Every component below is a per-worker average of disjoint sub-intervals
  // of the epoch (worker 0's reduce time was pulled out of its comm window),
  // so their sum cannot exceed the measured wall and other_s -- the true
  // remainder: fault recovery, optimizer step, data slicing, thread spawn --
  // is nonnegative by construction, not by clamping. trainer_test.cc asserts
  // total() == wall_s to timer resolution.
  comm_acc[0] -= reduce_excl_s;
  last_compute_s_.assign(static_cast<size_t>(cfg_.workers), 0.0);
  for (int lane = 0; lane < lanes; ++lane)
    last_compute_s_[static_cast<size_t>(active[static_cast<size_t>(lane)])] =
        compute_acc[static_cast<size_t>(lane)];
  const double wall_s = wall.seconds();
  dist::DistEpochRecord rec;
  rec.epoch = epoch;
  rec.breakdown.compute_s =
      std::accumulate(compute_acc.begin(), compute_acc.end(), 0.0) / lanes;
  rec.breakdown.comm_s =
      std::accumulate(comm_acc.begin(), comm_acc.end(), 0.0) / lanes;
  rec.breakdown.encode_s = encode_s;
  rec.breakdown.decode_s = decode_s;
  rec.breakdown.bytes_per_worker = bytes_per_worker;
  rec.breakdown.wall_s = wall_s;
  rec.breakdown.other_s = std::max(
      0.0, wall_s - rec.breakdown.compute_s - rec.breakdown.comm_s -
               rec.breakdown.encode_s - rec.breakdown.decode_s);
  priced.compute_s =
      std::accumulate(compute_cpu_acc.begin(), compute_cpu_acc.end(), 0.0) /
      lanes;
  priced.encode_s = encode_s;  // already the per-worker share
  priced.other_s = rec.breakdown.other_s;
  priced.bytes_per_worker = bytes_per_worker;
  rec.priced = priced;
  rec.train_loss = loss_sum / std::max<int64_t>(1, steps);
  const core::EvalResult ev = core::evaluate_vision(
      *replicas_[static_cast<size_t>(canonical)], ds, tc.global_batch);
  rec.test_acc = ev.acc;
  wall_seconds_ += rec.breakdown.total();
  global_step_ = step_base + static_cast<int64_t>(batches.size());
  fault_seconds_ +=
      std::accumulate(fault_acc.begin(), fault_acc.end(), 0.0);
  return rec;
}

std::vector<dist::DistEpochRecord> ShmDataParallelTrainer::train(
    const data::SyntheticImages& ds) {
  std::vector<dist::DistEpochRecord> out;
  int start = 0;
  if (cfg_.resume && !cfg_.checkpoint_dir.empty() &&
      core::snapshot_exists(cfg_.checkpoint_dir))
    start = resume();
  for (int e = start; e < cfg_.train.epochs; ++e) {
    out.push_back(train_epoch(ds, e));
    if (!cfg_.checkpoint_dir.empty() &&
        ((e + 1) % std::max(1, cfg_.checkpoint_every) == 0 ||
         e + 1 == cfg_.train.epochs))
      save_snapshot(e + 1);
  }
  return out;
}

void ShmDataParallelTrainer::save_snapshot(int next_epoch, int canonical) {
  core::TrainState st;
  st.next_epoch = next_epoch;
  st.global_step = global_step_;
  st.cumulative_seconds = wall_seconds_;
  for (Rng& r : worker_rngs_) st.worker_rngs.push_back(r.state());
  // Active replicas are bitwise-identical at epoch boundaries, so the
  // canonical slot's weights and optimizer state stand in for the cluster
  // (slot 0 for a static cluster; the elastic trainer passes the lowest
  // active slot of the round it snapshots at).
  core::capture_optimizer(*opts_[static_cast<size_t>(canonical)], st);
  // Stateful reducers (error-feedback residuals, sign momentum,
  // variance-gate moments) evolve across steps too: dropping them on
  // resume would silently re-lose the deferred gradient mass.
  if (reducer_) st.reducer = reducer_->state();
  core::save_snapshot(*replicas_[static_cast<size_t>(canonical)], st,
                      cfg_.checkpoint_dir);
}

int ShmDataParallelTrainer::resume() {
  core::TrainState st =
      core::load_snapshot(*replicas_[0], cfg_.checkpoint_dir);
  if (st.worker_rngs.size() != worker_rngs_.size())
    throw std::runtime_error(
        "shm_cluster: snapshot has " + std::to_string(st.worker_rngs.size()) +
        " worker Rng streams but the cluster has " +
        std::to_string(worker_rngs_.size()) +
        " worker slots -- a snapshot survives any membership change within "
        "its slot universe, but resuming under a different universe is "
        "rejected; resume with the slot count that wrote the snapshot");
  // Broadcast restored weights, BN buffers and optimizer state to every
  // replica: the invariant that active replicas are bitwise-identical at
  // step boundaries must hold from the very first resumed step, and slots
  // inactive at the snapshot round are re-bootstrapped by the membership
  // layer on join anyway, so overwriting their (stale) state is harmless.
  broadcast_state(replicas_);
  for (auto& o : opts_) core::restore_optimizer(*o, st);
  if (reducer_)
    reducer_->set_state(st.reducer);
  else if (!st.reducer.empty())
    throw std::runtime_error(
        "shm_cluster: snapshot carries reducer state but this cluster runs "
        "the plain ring path -- resume with the reducer that wrote it");
  for (size_t w = 0; w < worker_rngs_.size(); ++w)
    worker_rngs_[w].set_state(st.worker_rngs[w]);
  global_step_ = st.global_step;
  wall_seconds_ = st.cumulative_seconds;
  return static_cast<int>(st.next_epoch);
}

}  // namespace pf::runtime
