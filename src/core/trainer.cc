#include "core/trainer.h"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/amp.h"
#include "core/checkpoint.h"
#include "core/eval.h"
#include "metrics/metrics.h"
#include "optim/optim.h"
#include "runtime/thread_pool.h"
#include "trace/trace.h"

namespace pf::core {

namespace {

// The driver's optional features -- threads, trace_path, snapshots and
// resume, and the rank_policy behind refresh rounds -- are VisionTrainConfig
// fields. LM and MT runs get that struct's defaults: all off.
const VisionTrainConfig& features(const VisionTrainConfig& cfg) { return cfg; }
template <class Cfg>
const VisionTrainConfig& features(const Cfg&) {
  static const VisionTrainConfig kOff;
  return kOff;
}

// Algorithm 1 for any task: E_wu vanilla epochs, the truncated-SVD warm
// start, then hybrid fine-tuning -- plus refresh rounds, snapshots and
// resume, tracing and timing. A task supplies only what differs:
//   cfg                            its config (epochs, warmup_epochs, seed)
//   make_optimizer(model)          a fresh optimizer over the model's params
//   lr(epoch)                      the epoch's learning rate
//   train_epoch(model, opt, e)     one training epoch; returns the mean loss
//   end_epoch(model, record)       end-of-epoch evaluation
//   finish(model, last_loss)       final evaluation (of the untrained model
//                                  when no epoch ran)
//   out                            its result, which the driver returns
//                                  with svd_seconds, params and
//                                  total_seconds filled in
// `salt` is per task, so the three tasks draw distinct streams.
template <class Task, class Factory>
auto run_schedule(Task task, const Factory& make_vanilla,
                  const Factory& make_hybrid, uint64_t salt) {
  const auto& cfg = task.cfg;
  const VisionTrainConfig& f = features(cfg);
  metrics::Timer total_timer;
  // f.trace_path turns the global tracer on for this run and exports the
  // merged timeline when training returns. The tracer records into rings
  // that any concurrently traced code shares; runs that export should not
  // overlap other traced work.
  const bool tracing = !f.trace_path.empty();
  const bool trace_prev = trace::enabled();
  if (tracing) {
    trace::set_enabled(true);
    trace::drain();  // start the export from a clean timeline
  }
  if (f.threads > 0) runtime::set_threads(f.threads);
  Rng rng(cfg.seed * 0x9E3779B9u + salt);

  const int warmup = make_hybrid ? cfg.warmup_epochs : cfg.epochs;
  auto model = make_vanilla(rng);
  auto opt = task.make_optimizer(*model);
  bool low_rank_phase = false;
  int start_epoch = 0;
  double carried_seconds = 0;
  double last_train_loss = 0;
  auto enter_low_rank = [&](decltype(model) hybrid) {
    model = std::move(hybrid);
    opt = task.make_optimizer(*model);
    low_rank_phase = true;
  };

  if (f.resume && !f.checkpoint_dir.empty() &&
      snapshot_exists(f.checkpoint_dir)) {
    // The snapshot owns every piece of evolving state. The factory calls
    // here only donate the module tree's *shapes*; whatever they consumed
    // from `rng` is undone when the snapshot's stream state is restored.
    TrainState st = load_train_state(snapshot_paths(f.checkpoint_dir).state);
    if (RankPolicy::decode(st.policy) != f.rank_policy)
      throw std::runtime_error(
          "resume: snapshot was produced under a different rank policy; "
          "continuing would fine-tune a different hybrid");
    if (st.low_rank_phase) {
      if (!make_hybrid)
        throw std::runtime_error(
            "resume: snapshot is in the low-rank phase but no hybrid "
            "factory was given");
      auto hybrid = make_hybrid(rng);
      // Under kAbReproject the per-layer ranks drift away from what the
      // factory bakes in; re-shape to the snapshot's ranks BEFORE building
      // the optimizer (slot shapes) and loading weights (shape check).
      if (!st.layer_ranks.empty()) apply_ranks(*hybrid, st.layer_ranks);
      enter_low_rank(std::move(hybrid));
    }
    st = load_snapshot(*model, f.checkpoint_dir);  // weights + torn check
    restore_optimizer(*opt, st);
    rng.set_state(st.rng);
    start_epoch = static_cast<int>(st.next_epoch);
    task.out.svd_seconds = st.svd_seconds;
    carried_seconds = st.cumulative_seconds;
  } else if (make_hybrid && warmup == 0) {
    enter_low_rank(make_hybrid(rng));  // low-rank from scratch: no SVD
  }

  for (int epoch = start_epoch; epoch < cfg.epochs; ++epoch) {
    if (make_hybrid && !low_rank_phase && epoch == warmup) {
      // Algorithm 1: factorize the partially trained vanilla weights.
      auto hybrid = make_hybrid(rng);
      {
        // The Table-19 one-shot factorization cost, visible as one span.
        PF_TRACE_SCOPE_C("train.svd_warm_start", epoch);
        warm_start(*model, *hybrid, rng);
      }
      task.out.svd_seconds = last_warm_start_svd_seconds();
      enter_low_rank(std::move(hybrid));
    }
    // AB-style refresh round (core::reproject): every reproject_every
    // epochs of the low-rank phase, densify, train the dense model for one
    // epoch so the spectrum can move, then re-SVD at policy-chosen ranks.
    const bool refresh =
        f.rank_policy.kind == RankPolicy::Kind::kAbReproject &&
        f.rank_policy.reproject_every > 0 && low_rank_phase && make_hybrid &&
        epoch > warmup &&
        (epoch - warmup) % f.rank_policy.reproject_every == 0;

    const float lr = task.lr(epoch);
    opt->set_lr(lr);
    metrics::Timer t;
    EpochRecord rec{epoch, 0, 0, 0, 0, low_rank_phase, refresh};
    if (refresh) {
      PF_TRACE_SCOPE_C("train.epoch.refresh", epoch);
      auto vanilla = make_vanilla(rng);
      defactorize(*model, *vanilla);
      auto refresh_opt = task.make_optimizer(*vanilla);
      refresh_opt->set_lr(lr);
      rec.train_loss = task.train_epoch(*vanilla, *refresh_opt, epoch);
      {
        PF_TRACE_SCOPE_C("train.svd_reproject", epoch);
        task.out.svd_seconds +=
            reproject(*vanilla, *model, f.rank_policy, rng).svd_seconds;
      }
      // Ranks may have moved: re-derive the velocity slots (changed shapes
      // restart from zero -- the re-SVD re-based those factors). The policy
      // comes from VisionTrainConfig, so `opt` is the vision task's SGD.
      if constexpr (requires { opt->rebind_slots(); }) opt->rebind_slots();
    } else {
      PF_TRACE_SCOPE_C(
          low_rank_phase ? "train.epoch.finetune" : "train.epoch.warmup",
          epoch);
      rec.train_loss = task.train_epoch(*model, *opt, epoch);
    }
    rec.seconds = t.seconds();
    last_train_loss = rec.train_loss;
    task.end_epoch(*model, rec);

    if (!f.checkpoint_dir.empty() &&
        ((epoch + 1) % std::max(1, f.checkpoint_every) == 0 ||
         epoch + 1 == cfg.epochs)) {
      TrainState st;
      st.next_epoch = epoch + 1;
      st.low_rank_phase = low_rank_phase;
      st.svd_seconds = task.out.svd_seconds;
      st.cumulative_seconds = carried_seconds + total_timer.seconds();
      st.policy = f.rank_policy.encode();
      st.rng = rng.state();
      st.layer_ranks = collect_ranks(*model);
      capture_optimizer(*opt, st);
      save_snapshot(*model, st, f.checkpoint_dir);
    }
  }
  task.finish(*model, last_train_loss);
  task.out.params = model->num_params();
  task.out.total_seconds = carried_seconds + total_timer.seconds();
  if (tracing) {
    trace::write_chrome_json(f.trace_path);
    trace::set_enabled(trace_prev);
  }
  return std::move(task.out);
}

// One optimizer step per batch on the loss `backprop(batch)` returns after
// its backward pass; returns the mean loss.
template <class Batches, class Backprop>
double run_epoch(nn::Module& model, optim::Optimizer& opt,
                 const Batches& batches, const Backprop& backprop) {
  model.train(true);
  double loss_sum = 0;
  for (const auto& b : batches) {
    model.zero_grad();
    loss_sum += backprop(b);
    opt.step();
  }
  return loss_sum / static_cast<double>(std::max<size_t>(1, batches.size()));
}

// ---------------- Tasks ----------------

struct VisionTask {
  const data::SyntheticImages& ds;
  const VisionTrainConfig& cfg;
  optim::StepDecay sched{cfg.lr, cfg.lr_milestones, cfg.lr_factor};
  VisionResult out{};

  std::unique_ptr<optim::SGD> make_optimizer(nn::UnaryModule& m) const {
    return std::make_unique<optim::SGD>(m.parameters(), cfg.lr, cfg.momentum,
                                        cfg.weight_decay);
  }
  float lr(int epoch) const { return sched.at_epoch(epoch); }
  double train_epoch(nn::UnaryModule& model, optim::SGD& opt,
                     int epoch) const {
    return run_epoch(model, opt, ds.train_batches(cfg.batch, epoch),
                     [&](const data::ImageBatch& b) {
                       std::optional<AmpForwardGuard> amp;
                       if (cfg.amp) amp.emplace(model);
                       ag::Var logits = model.forward(ag::leaf(b.images));
                       ag::Var loss = ag::cross_entropy(logits, b.labels,
                                                        cfg.label_smoothing);
                       ag::backward(loss);
                       return double{loss->value[0]};
                     });  // AMP masters restored before the step
  }
  void end_epoch(nn::UnaryModule& model, EpochRecord rec) {
    const EvalResult ev = evaluate(model);
    rec.test_acc = ev.acc;
    rec.test_top5 = ev.top5;
    out.epochs.push_back(rec);
  }
  void finish(nn::UnaryModule& model, double) {
    if (out.epochs.empty()) evaluate(model);
  }
  // Evaluates the test set and records it as the run's final quality.
  EvalResult evaluate(nn::UnaryModule& model) {
    const EvalResult ev =
        evaluate_vision(model, ds, cfg.batch, cfg.label_smoothing);
    out.final_acc = ev.acc;
    out.final_top5 = ev.top5;
    out.final_loss = ev.loss;
    return ev;
  }
};

struct LmTask {
  const data::SyntheticCorpus& corpus;
  const LmTrainConfig& cfg;
  optim::ReduceOnPlateau plateau{cfg.lr, cfg.plateau_factor};
  LmResult out{};

  // Plain SGD (momentum 0) keeps no state between steps: the plateau lr set
  // each epoch is all that changes.
  std::unique_ptr<optim::SGD> make_optimizer(models::LstmLm& m) const {
    return std::make_unique<optim::SGD>(m.parameters(), cfg.lr);
  }
  float lr(int) const { return plateau.lr(); }
  double train_epoch(models::LstmLm& model, optim::SGD& opt, int) const {
    const std::vector<nn::Param*> params = model.parameters();
    std::vector<nn::LstmState> state;  // carried across BPTT windows
    return run_epoch(
        model, opt,
        data::SyntheticCorpus::batchify(corpus.train(), cfg.batch, cfg.bptt),
        [&](const data::SyntheticCorpus::LmBatch& b) {
          ag::Var logits = model.forward(b.input, b.t, b.b, &state);
          models::LstmLm::detach(state);
          ag::Var loss = ag::cross_entropy(logits, b.target);
          ag::backward(loss);
          optim::clip_grad_norm(params, cfg.clip);
          return double{loss->value[0]};
        });
  }
  void end_epoch(models::LstmLm& model, const EpochRecord&) {
    out.val_ppl_series.push_back(valid_ppl(model));
    plateau.observe(static_cast<float>(out.val_ppl_series.back()));
  }
  void finish(models::LstmLm& model, double last_train_loss) {
    out.train_ppl = metrics::perplexity(last_train_loss);
    out.val_ppl = out.val_ppl_series.empty() ? valid_ppl(model)
                                             : out.val_ppl_series.back();
    out.test_ppl = evaluate_lm(model, corpus.test(), cfg.batch, cfg.bptt);
  }
  double valid_ppl(models::LstmLm& model) const {
    return evaluate_lm(model, corpus.valid(), cfg.batch, cfg.bptt);
  }
};

struct MtTask {
  const data::SyntheticTranslation& ds;
  const MtTrainConfig& cfg;
  MtResult out{};

  std::unique_ptr<optim::Adam> make_optimizer(models::TransformerMT& m) const {
    return std::make_unique<optim::Adam>(m.parameters(), cfg.lr, 0.9f, 0.98f);
  }
  float lr(int) const { return cfg.lr; }
  double train_epoch(models::TransformerMT& model, optim::Adam& opt,
                     int epoch) const {
    const std::vector<nn::Param*> params = model.parameters();
    return run_epoch(
        model, opt, ds.batches(ds.train(), cfg.batch, epoch),
        [&](const data::SyntheticTranslation::MtBatch& b) {
          ag::Var logits =
              model.forward(b.src, b.src_len, b.tgt_in, b.tgt_len, b.b);
          ag::Var loss =
              ag::cross_entropy(logits, b.tgt_out, cfg.label_smoothing, -100);
          ag::backward(loss);
          optim::clip_grad_norm(params, cfg.clip);
          return double{loss->value[0]};
        });
  }
  void end_epoch(models::TransformerMT&, const EpochRecord&) {}
  void finish(models::TransformerMT& model, double last_train_loss) {
    out.train_ppl = metrics::perplexity(last_train_loss);
    evaluate(model);
  }
  // Test-set perplexity (no label smoothing) and BLEU-4 of greedy decodes.
  void evaluate(models::TransformerMT& model) {
    EvalModeGuard eval_mode(model);
    ag::NoGradGuard ng;
    double loss_sum = 0;
    std::vector<std::vector<int64_t>> hyps, refs;
    const auto batches = ds.batches(ds.test(), cfg.batch, /*epoch=*/0);
    for (const auto& b : batches) {
      Tensor logits =
          eval_forward_mt(model, b.src, b.src_len, b.tgt_in, b.tgt_len, b.b);
      loss_sum +=
          ag::cross_entropy(ag::leaf(logits), b.tgt_out, 0.0f, -100)->value[0];
      auto decoded = model.greedy_decode(
          b.src, b.src_len, b.b, data::SyntheticTranslation::kBos,
          data::SyntheticTranslation::kEos, b.tgt_len + 4);
      for (int64_t i = 0; i < b.b; ++i) {
        // Strip specials from hypothesis and reference.
        std::vector<int64_t> h;
        for (int64_t tok : decoded[static_cast<size_t>(i)])
          if (tok > data::SyntheticTranslation::kEos) h.push_back(tok);
        std::vector<int64_t> r;
        for (int64_t t = 0; t < b.tgt_len; ++t) {
          const int64_t tok = b.tgt_out[static_cast<size_t>(i * b.tgt_len + t)];
          if (tok > data::SyntheticTranslation::kEos) r.push_back(tok);
        }
        hyps.push_back(std::move(h));
        refs.push_back(std::move(r));
      }
    }
    out.val_ppl = metrics::perplexity(
        loss_sum / static_cast<double>(std::max<size_t>(1, batches.size())));
    out.bleu = metrics::bleu4(hyps, refs);
  }
};

}  // namespace

EvalResult evaluate_vision(nn::UnaryModule& model,
                           const data::SyntheticImages& ds, int64_t batch,
                           float label_smoothing) {
  if (batch < 1) throw std::invalid_argument("evaluate_vision: batch < 1");
  PF_TRACE_SCOPE("train.eval");
  EvalModeGuard eval_mode(model);
  ag::NoGradGuard ng;
  EvalResult r;
  int64_t total = 0;
  for (int64_t start = 0; start < ds.test_size(); start += batch) {
    data::ImageBatch b = ds.test_batch(start, batch);
    const int64_t n = b.images.size(0);
    Tensor logits = eval_forward(model, b.images);
    ag::Var loss =
        ag::cross_entropy(ag::leaf(logits), b.labels, label_smoothing);
    r.acc += metrics::topk_accuracy(logits, b.labels, 1) * n;
    const int64_t k5 = std::min<int64_t>(5, logits.size(1));
    r.top5 += metrics::topk_accuracy(logits, b.labels, k5) * n;
    r.loss += loss->value[0] * n;
    total += n;
  }
  r.acc /= total;
  r.top5 /= total;
  r.loss /= total;
  return r;
}

double evaluate_lm(models::LstmLm& model, const std::vector<int64_t>& stream,
                   int64_t batch, int64_t bptt) {
  EvalModeGuard eval_mode(model);
  ag::NoGradGuard ng;
  double loss_sum = 0;
  int64_t tokens = 0;
  std::vector<nn::LstmState> state;
  for (const auto& b : data::SyntheticCorpus::batchify(stream, batch, bptt)) {
    Tensor logits = eval_forward_lm(model, b.input, b.t, b.b, &state);
    models::LstmLm::detach(state);
    ag::Var loss = ag::cross_entropy(ag::leaf(logits), b.target);
    loss_sum += loss->value[0] * static_cast<double>(b.t * b.b);
    tokens += b.t * b.b;
  }
  return metrics::perplexity(loss_sum / std::max<int64_t>(1, tokens));
}

VisionResult train_vision(const VisionModelFactory& make_vanilla,
                          const VisionModelFactory& make_hybrid,
                          const data::SyntheticImages& ds,
                          const VisionTrainConfig& cfg) {
  return run_schedule(VisionTask{ds, cfg}, make_vanilla, make_hybrid, 17);
}

LmResult train_lm(const LmModelFactory& make_vanilla,
                  const LmModelFactory& make_lowrank,
                  const data::SyntheticCorpus& corpus,
                  const LmTrainConfig& cfg) {
  return run_schedule(LmTask{corpus, cfg}, make_vanilla, make_lowrank, 31);
}

MtResult train_mt(const MtModelFactory& make_vanilla,
                  const MtModelFactory& make_lowrank,
                  const data::SyntheticTranslation& ds,
                  const MtTrainConfig& cfg) {
  return run_schedule(MtTask{ds, cfg}, make_vanilla, make_lowrank, 47);
}

}  // namespace pf::core
