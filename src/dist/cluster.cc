#include "dist/cluster.h"

#include <algorithm>

#include "metrics/metrics.h"
#include "runtime/thread_pool.h"
#include "trace/trace.h"

namespace pf::dist {

float lr_at_epoch(const DistTrainConfig& cfg, int epoch) {
  if (epoch < cfg.lr_warmup_epochs) {
    const float frac = static_cast<float>(epoch + 1) / cfg.lr_warmup_epochs;
    return cfg.lr_warmup_start + (cfg.lr - cfg.lr_warmup_start) * frac;
  }
  return optim::StepDecay(cfg.lr, cfg.lr_milestones, cfg.lr_factor)
      .at_epoch(epoch);
}

ShardRange shard_range(int64_t batch, int lanes, int lane) {
  ShardRange r;
  if (batch <= 0 || lanes <= 0 || lane < 0 || lane >= lanes) return r;
  const int64_t base = batch / lanes;
  const int64_t rem = batch % lanes;
  r.start = lane * base + std::min<int64_t>(lane, rem);
  r.count = base + (lane < rem ? 1 : 0);
  return r;
}

DataParallelTrainer::DataParallelTrainer(
    std::unique_ptr<nn::UnaryModule> model,
    std::unique_ptr<compress::Reducer> reducer, int nodes,
    const DistTrainConfig& cfg)
    : reducer_(std::move(reducer)), nodes_(nodes), cfg_(cfg) {
  if (cfg.threads > 0) runtime::set_threads(cfg.threads);
  replace_model(std::move(model), nullptr);
}

void DataParallelTrainer::replace_model(
    std::unique_ptr<nn::UnaryModule> model,
    std::unique_ptr<compress::Reducer> reducer) {
  model_ = std::move(model);
  if (reducer) reducer_ = std::move(reducer);
  opt_ = std::make_unique<optim::SGD>(model_->parameters(), cfg_.lr,
                                      cfg_.momentum, cfg_.weight_decay);
  param_shapes_.clear();
  for (nn::Param* p : model_->parameters())
    param_shapes_.push_back(p->var->value.shape());
}

DistEpochRecord DataParallelTrainer::train_epoch(
    const data::SyntheticImages& ds, int epoch) {
  PF_TRACE_SCOPE_C("dist.epoch", epoch);
  const int nodes = nodes_;

  opt_->set_lr(lr_at_epoch(cfg_, epoch));

  DistEpochRecord rec;
  rec.epoch = epoch;
  model_->train(true);
  double loss_sum = 0;
  int64_t steps = 0;

  metrics::Timer other_timer;
  const auto batches = ds.train_batches(cfg_.global_batch, epoch);
  rec.breakdown.other_s += other_timer.seconds();

  for (const data::ImageBatch& gb : batches) {
    // Shard the global batch across workers; compute real per-worker grads.
    std::vector<Tensor> grads;
    grads.reserve(static_cast<size_t>(nodes));
    PF_TRACE_SCOPE_C("dist.round", steps);
    metrics::Timer tc;
    for (int w = 0; w < nodes; ++w) {
      const ShardRange sr = shard_range(gb.images.size(0), nodes, w);
      if (sr.count == 0) break;
      const int64_t start = sr.start, count = sr.count;
      Tensor imgs = slice(gb.images, 0, start, count);
      std::vector<int64_t> labels(
          gb.labels.begin() + start, gb.labels.begin() + start + count);
      model_->zero_grad();
      ag::Var logits = model_->forward(ag::leaf(std::move(imgs)));
      ag::Var loss =
          ag::cross_entropy(logits, labels, cfg_.label_smoothing);
      ag::backward(loss);
      grads.push_back(model_->flat_grads());
      loss_sum += loss->value[0];
      ++steps;
    }
    rec.breakdown.compute_s += tc.seconds() / nodes;

    compress::ReduceStats stats;
    Tensor agg;
    {
      PF_TRACE_SCOPE_C("dist.reduce", rec.breakdown.bytes_per_worker);
      agg = reducer_->reduce(grads, param_shapes_, &stats);
    }
    rec.breakdown.encode_s += stats.encode_seconds / nodes;
    rec.breakdown.decode_s += stats.decode_seconds;
    rec.breakdown.comm_s +=
        collective_seconds(stats.collective, stats.payload_bytes_per_worker,
                           nodes, hw_, stats.n_messages);
    rec.breakdown.bytes_per_worker = stats.payload_bytes_per_worker;
    cumulative_bytes_ += stats.payload_bytes_per_worker;

    metrics::Timer ts;
    model_->set_flat_grads(agg);
    opt_->step();
    rec.breakdown.other_s += ts.seconds();
  }

  rec.train_loss = loss_sum / std::max<int64_t>(1, steps);
  const core::EvalResult ev =
      core::evaluate_vision(*model_, ds, cfg_.global_batch);
  rec.test_acc = ev.acc;
  sim_seconds_ += rec.breakdown.total();
  rec.cumulative_sim_seconds = sim_seconds_;
  return rec;
}

std::vector<DistEpochRecord> DataParallelTrainer::train(
    const data::SyntheticImages& ds) {
  std::vector<DistEpochRecord> out;
  for (int e = 0; e < cfg_.epochs; ++e) out.push_back(train_epoch(ds, e));
  return out;
}

}  // namespace pf::dist
