// Algorithm 1 training for the three task families the paper evaluates:
// image classification (SGD + momentum + step decay, optional label
// smoothing / AMP), LSTM language modeling (plain SGD, grad clipping,
// decay-on-plateau), and Transformer translation (Adam, label smoothing).
//
// All three run one schedule driver (trainer.cc, DESIGN.md §17): train the
// vanilla model for E_wu epochs, warm-start the hybrid via truncated SVD,
// fine-tune the hybrid for the remaining epochs. Setting warmup_epochs ==
// epochs (or passing a null hybrid factory) degenerates to plain vanilla
// training; warmup_epochs == 0 trains the low-rank model from scratch -- the
// three arms of the paper's ablations (Tables 8/9/21/22). With epochs == 0
// the untrained model is evaluated. Only VisionTrainConfig exposes the
// driver's threads, tracing, snapshot/resume and refresh rounds.
#pragma once

#include <functional>
#include <memory>

#include "core/factorize.h"
#include "core/rank_policy.h"
#include "data/synthetic.h"
#include "models/lstm_lm.h"
#include "models/transformer_mt.h"

namespace pf::core {

// ---------------- Vision ----------------

using VisionModelFactory =
    std::function<std::unique_ptr<nn::UnaryModule>(Rng&)>;

struct VisionTrainConfig {
  int epochs = 12;
  int warmup_epochs = 3;  // E_wu
  int64_t batch = 32;
  float lr = 0.05f;
  float momentum = 0.9f;
  float weight_decay = 1e-4f;
  std::vector<int> lr_milestones = {8, 11};
  float lr_factor = 0.1f;
  float label_smoothing = 0.0f;
  bool amp = false;  // emulated fp16 compute (core/amp.h)
  uint64_t seed = 0;
  // Compute-kernel threads for this run; 0 keeps the PF_THREADS env default
  // (see runtime/thread_pool.h).
  int threads = 0;

  // Crash-safe checkpointing. When `checkpoint_dir` is non-empty the
  // harness writes an atomic snapshot (weights + TrainState, see
  // core/checkpoint.h) after every `checkpoint_every`-th epoch and after
  // the final one. With `resume` also set, training continues from the
  // snapshot in `checkpoint_dir` -- bitwise-identical to the uninterrupted
  // run, at any PF_THREADS, across the warm-up -> SVD boundary -- and
  // starts from scratch when no snapshot exists yet.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  bool resume = false;
  // Recorded into snapshots and verified on resume: continuing a run under
  // a different rank policy than the one that shaped its hybrid fails
  // loudly. Purely metadata for the vanilla phase.
  RankPolicy rank_policy;

  // When non-empty, span tracing (trace/trace.h) is enabled for the run and
  // the merged timeline is written here as chrome://tracing JSON when
  // training finishes. Spans never perturb results: trace-on training is
  // bitwise-identical to trace-off (asserted in tests/trace_test.cc).
  std::string trace_path;
};

struct EpochRecord {
  int epoch = 0;
  double train_loss = 0;
  double test_acc = 0;   // top-1
  double test_top5 = 0;
  double seconds = 0;    // measured wall-clock for the epoch
  bool low_rank_phase = false;
  // AB-style full-rank refresh round: this epoch trained the densified
  // model and re-SVD-ed it afterwards (kAbReproject only).
  bool refresh_round = false;
};

struct VisionResult {
  std::vector<EpochRecord> epochs;
  double final_acc = 0, final_top5 = 0, final_loss = 0;
  double total_seconds = 0;
  double svd_seconds = 0;
  int64_t params = 0;
};

// Full Pufferfish run. If `make_hybrid` is null, trains the vanilla model
// for all `epochs` (the vanilla baseline). With cfg.checkpoint_dir set this
// is also `Trainer::resume`: cfg.resume continues from the directory's
// snapshot, and the continuation is bitwise-identical to an uninterrupted
// run (the resume-exact contract; see core/checkpoint.h).
VisionResult train_vision(const VisionModelFactory& make_vanilla,
                          const VisionModelFactory& make_hybrid,
                          const data::SyntheticImages& ds,
                          const VisionTrainConfig& cfg);

// Evaluate top-1/top-5 accuracy and mean loss over the test set. Throws
// std::invalid_argument for batch < 1.
struct EvalResult {
  double acc = 0, top5 = 0, loss = 0;
};
EvalResult evaluate_vision(nn::UnaryModule& model,
                           const data::SyntheticImages& ds, int64_t batch,
                           float label_smoothing = 0.0f);

// ---------------- Language modeling (LSTM) ----------------

using LmModelFactory = std::function<std::unique_ptr<models::LstmLm>(Rng&)>;

struct LmTrainConfig {
  int epochs = 8;
  int warmup_epochs = 2;
  int64_t batch = 10;
  int64_t bptt = 16;
  float lr = 5.0f;          // plain SGD, like the PyTorch LM example
  float clip = 0.25f;
  float plateau_factor = 0.25f;
  uint64_t seed = 0;
};

struct LmResult {
  double train_ppl = 0, val_ppl = 0, test_ppl = 0;
  std::vector<double> val_ppl_series;
  double total_seconds = 0, svd_seconds = 0;
  int64_t params = 0;
};

LmResult train_lm(const LmModelFactory& make_vanilla,
                  const LmModelFactory& make_lowrank,
                  const data::SyntheticCorpus& corpus,
                  const LmTrainConfig& cfg);

double evaluate_lm(models::LstmLm& model, const std::vector<int64_t>& stream,
                   int64_t batch, int64_t bptt);  // returns perplexity

// ---------------- Translation (Transformer) ----------------

using MtModelFactory =
    std::function<std::unique_ptr<models::TransformerMT>(Rng&)>;

struct MtTrainConfig {
  int epochs = 10;
  int warmup_epochs = 2;
  int64_t batch = 16;
  float lr = 1e-3f;  // Adam(0.9, 0.98)
  float label_smoothing = 0.1f;
  float clip = 0.25f;
  uint64_t seed = 0;
};

struct MtResult {
  double train_ppl = 0, val_ppl = 0, bleu = 0;
  double total_seconds = 0, svd_seconds = 0;
  int64_t params = 0;
};

MtResult train_mt(const MtModelFactory& make_vanilla,
                  const MtModelFactory& make_lowrank,
                  const data::SyntheticTranslation& ds,
                  const MtTrainConfig& cfg);

}  // namespace pf::core
