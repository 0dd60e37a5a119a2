// Synthetic, learnable stand-ins for the paper's datasets (see DESIGN.md
// substitution table). Each generator is deterministic given its seed.
//
// Images:   class-conditional smooth Gaussian prototypes + per-sample noise
//           and augmentation-like jitter (shift / horizontal flip), giving a
//           task where model capacity and optimization quality show up in
//           test accuracy the way CIFAR does at small scale.
// Text:     an order-1 Markov chain with sparse structured transitions, so
//           the LM task has real sequential structure and a perplexity floor
//           well below vocab size.
// Translation: source sentences from the Markov chain; the target is a
//           deterministic transduction (token remap + local reversal), so a
//           seq2seq model can in principle reach near-zero loss / high BLEU.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace pf::data {

struct ImageBatch {
  Tensor images;                 // (N, C, H, W)
  std::vector<int64_t> labels;   // (N)
};

class SyntheticImages {
 public:
  struct Config {
    int64_t num_classes = 10;
    int64_t channels = 3;
    int64_t hw = 32;
    int64_t train_size = 512;
    int64_t test_size = 256;
    float noise = 0.35f;    // per-pixel sample noise (relative to prototypes)
    bool augment = true;    // random shift + flip on training samples
    uint64_t seed = 7;
  };

  explicit SyntheticImages(const Config& cfg);

  int64_t train_size() const { return cfg_.train_size; }
  int64_t test_size() const { return cfg_.test_size; }
  const Config& config() const { return cfg_; }

  // Shuffled mini-batches over the training set; `epoch` seeds the shuffle
  // and augmentation so runs are reproducible. Throws
  // std::invalid_argument for batch < 1.
  std::vector<ImageBatch> train_batches(int64_t batch, int epoch) const;
  ImageBatch test_batch(int64_t start, int64_t count) const;

 private:
  Tensor make_sample(int64_t cls, Rng& rng, bool augment) const;

  Config cfg_;
  Tensor prototypes_;  // (classes, C, H, W) smooth class templates
  Tensor train_images_;
  std::vector<int64_t> train_labels_;
  Tensor test_images_;
  std::vector<int64_t> test_labels_;
};

// Order-1 Markov chain token stream.
class SyntheticCorpus {
 public:
  struct Config {
    int64_t vocab = 200;
    int64_t train_tokens = 20000;
    int64_t valid_tokens = 4000;
    int64_t test_tokens = 4000;
    int64_t branching = 4;  // out-degree of each state's likely successors
    uint64_t seed = 11;
  };

  explicit SyntheticCorpus(const Config& cfg);

  const std::vector<int64_t>& train() const { return train_; }
  const std::vector<int64_t>& valid() const { return valid_; }
  const std::vector<int64_t>& test() const { return test_; }
  const Config& config() const { return cfg_; }

  // Time-major (T, B) LM batching like the PyTorch word_language_model
  // example: returns contiguous (input, target) id pairs per segment.
  struct LmBatch {
    std::vector<int64_t> input;   // (T*B) time-major
    std::vector<int64_t> target;  // (T*B)
    int64_t t, b;
  };
  static std::vector<LmBatch> batchify(const std::vector<int64_t>& stream,
                                       int64_t b, int64_t bptt);

 private:
  Config cfg_;
  std::vector<int64_t> train_, valid_, test_;
};

// Synthetic translation pairs. Token ids: 0 = pad, 1 = BOS, 2 = EOS,
// content tokens start at 3.
class SyntheticTranslation {
 public:
  struct Config {
    int64_t vocab = 64;          // includes pad/bos/eos
    int64_t min_len = 4, max_len = 10;
    int64_t train_pairs = 512;
    int64_t test_pairs = 128;
    uint64_t seed = 13;
  };
  static constexpr int64_t kPad = 0, kBos = 1, kEos = 2;

  explicit SyntheticTranslation(const Config& cfg);

  struct Pair {
    std::vector<int64_t> src;  // content + EOS
    std::vector<int64_t> tgt;  // BOS + content + EOS
  };
  const std::vector<Pair>& train() const { return train_; }
  const std::vector<Pair>& test() const { return test_; }
  const Config& config() const { return cfg_; }

  struct MtBatch {
    std::vector<int64_t> src;        // (B * src_len), padded
    std::vector<int64_t> tgt_in;     // (B * tgt_len): BOS + content
    std::vector<int64_t> tgt_out;    // (B * tgt_len): content + EOS, pad = -100
    int64_t src_len, tgt_len, b;
  };
  // Batches of `batch` pairs, padded to the longest member.
  std::vector<MtBatch> batches(const std::vector<Pair>& pairs, int64_t batch,
                               int epoch) const;

 private:
  Pair make_pair(Rng& rng) const;
  Config cfg_;
  std::vector<Pair> train_, test_;
};

}  // namespace pf::data
