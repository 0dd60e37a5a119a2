// 6-layer encoder-decoder Transformer for translation (appendix
// Tables 16/17): shared source/target embedding, sinusoidal positional
// encoding, post-LN blocks, a final LayerNorm on each stack, and an output
// projection tied to the embedding (no bias). The hybrid keeps the first
// encoder and first decoder layer dense and factorizes the rest at rank 128.
// At paper scale the vanilla model has exactly 48,978,432 parameters and the
// hybrid 26,696,192 (Table 3; unit-tested).
#pragma once

#include <memory>

#include "nn/transformer.h"

namespace pf::models {

struct TransformerConfig {
  int64_t vocab = 9521;
  int64_t dm = 512;
  int64_t heads = 8;
  int64_t layers = 6;
  float dropout = 0.1f;
  int64_t max_len = 256;
  // 1-based index of the first factorized encoder/decoder layer;
  // 0 = fully vanilla. The paper's hybrid uses 2.
  int first_lowrank_layer = 0;
  double rank_ratio = 0.25;

  // Factorization rank of the (dm, dm) projections (core::ratio_rank).
  int64_t rank() const;

  static TransformerConfig paper_vanilla() { return {}; }
  static TransformerConfig paper_pufferfish() {
    TransformerConfig c;
    c.first_lowrank_layer = 2;
    return c;
  }
  static TransformerConfig tiny(int first_lowrank = 0) {
    TransformerConfig c;
    c.vocab = 64;
    c.dm = 32;
    c.heads = 4;
    c.layers = 2;
    c.max_len = 32;
    c.first_lowrank_layer = first_lowrank;
    return c;
  }
};

class TransformerMT : public nn::Module {
 public:
  TransformerMT(const TransformerConfig& cfg, Rng& rng);
  std::string type_name() const override { return "TransformerMT"; }

  // src/tgt: (B * L) row-major token ids (B rows of L columns). Pads are
  // `pad_id`. Returns logits (B * tgt_len, vocab) for next-token prediction.
  ag::Var forward(const std::vector<int64_t>& src, int64_t src_len,
                  const std::vector<int64_t>& tgt, int64_t tgt_len, int64_t b,
                  int64_t pad_id = 0);

  // Greedy decode for BLEU evaluation: returns generated ids per batch row.
  std::vector<std::vector<int64_t>> greedy_decode(
      const std::vector<int64_t>& src, int64_t src_len, int64_t b,
      int64_t bos_id, int64_t eos_id, int64_t max_len, int64_t pad_id = 0);

  // Beam-search decode (length-normalized log-prob scoring) for a single
  // source sentence; returns the best hypothesis including BOS (and EOS if
  // emitted). beam_width == 1 degenerates to greedy.
  std::vector<int64_t> beam_decode(const std::vector<int64_t>& src,
                                   int64_t src_len, int64_t bos_id,
                                   int64_t eos_id, int64_t max_len,
                                   int64_t beam_width = 4,
                                   int64_t pad_id = 0);

  const TransformerConfig& config() const { return cfg_; }

 private:
  ag::Var embed(const std::vector<int64_t>& ids, int64_t b, int64_t len);
  ag::Var encode(const std::vector<int64_t>& src, int64_t src_len, int64_t b,
                 Tensor* src_mask_out, int64_t pad_id);

  TransformerConfig cfg_;
  nn::Embedding embed_;
  Tensor pos_enc_;  // (max_len, dm) constant
  std::vector<std::unique_ptr<nn::EncoderLayer>> enc_;
  std::vector<std::unique_ptr<nn::DecoderLayer>> dec_;
  nn::LayerNorm enc_ln_, dec_ln_;
  nn::Dropout drop_src_, drop_tgt_;
};

}  // namespace pf::models
