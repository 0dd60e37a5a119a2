#include "models/transformer_mt.h"

#include <algorithm>
#include <cmath>

#include "core/factorize.h"

namespace pf::models {

int64_t TransformerConfig::rank() const {
  return core::ratio_rank(dm, dm, rank_ratio);
}

namespace {

// Additive attention mask of shape (B*H, Lq, Lk): -1e9 where the key token
// is padding, plus (optionally) the causal constraint.
Tensor build_mask(const std::vector<int64_t>& key_ids, int64_t b,
                  int64_t heads, int64_t lq, int64_t lk, int64_t pad_id,
                  bool causal) {
  Tensor m(Shape{b * heads, lq, lk});
  for (int64_t i = 0; i < b; ++i)
    for (int64_t h = 0; h < heads; ++h) {
      float* plane = m.data() + (i * heads + h) * lq * lk;
      for (int64_t q = 0; q < lq; ++q)
        for (int64_t k = 0; k < lk; ++k) {
          const bool pad =
              key_ids[static_cast<size_t>(i * lk + k)] == pad_id;
          const bool future = causal && k > q;
          plane[q * lk + k] = (pad || future) ? -1e9f : 0.0f;
        }
    }
  return m;
}

}  // namespace

TransformerMT::TransformerMT(const TransformerConfig& cfg, Rng& rng)
    : cfg_(cfg),
      embed_(cfg.vocab, cfg.dm, rng),
      pos_enc_(nn::positional_encoding(cfg.max_len, cfg.dm)),
      enc_ln_(cfg.dm),
      dec_ln_(cfg.dm),
      drop_src_(cfg.dropout, rng.next_u64()),
      drop_tgt_(cfg.dropout, rng.next_u64()) {
  register_child(&embed_);
  for (int64_t l = 0; l < cfg.layers; ++l) {
    const bool lr = cfg.first_lowrank_layer > 0 &&
                    l + 1 >= cfg.first_lowrank_layer;
    const int64_t rank = lr ? cfg.rank() : 0;
    enc_.push_back(std::make_unique<nn::EncoderLayer>(
        cfg.dm, cfg.heads, cfg.dropout, rank, rng, rng.next_u64()));
    dec_.push_back(std::make_unique<nn::DecoderLayer>(
        cfg.dm, cfg.heads, cfg.dropout, rank, rng, rng.next_u64()));
    register_child(enc_.back().get());
    register_child(dec_.back().get());
  }
  register_child(&enc_ln_);
  register_child(&dec_ln_);
  register_child(&drop_src_);
  register_child(&drop_tgt_);
}

ag::Var TransformerMT::embed(const std::vector<int64_t>& ids, int64_t b,
                             int64_t len) {
  ag::Var x = embed_.forward(ids);  // (B*L, dm)
  x = ag::mul_scalar(x, std::sqrt(static_cast<float>(cfg_.dm)));
  // Add positional encoding (constant, broadcast over batch).
  Tensor pos(Shape{b * len, cfg_.dm});
  for (int64_t i = 0; i < b; ++i)
    std::copy(pos_enc_.data(), pos_enc_.data() + len * cfg_.dm,
              pos.data() + i * len * cfg_.dm);
  x = ag::add_constant(x, pos);
  return ag::reshape(x, Shape{b, len, cfg_.dm});
}

ag::Var TransformerMT::encode(const std::vector<int64_t>& src,
                              int64_t src_len, int64_t b,
                              Tensor* self_mask_out, int64_t pad_id) {
  *self_mask_out =
      build_mask(src, b, cfg_.heads, src_len, src_len, pad_id, false);
  ag::Var x = drop_src_.forward(embed(src, b, src_len));
  for (auto& layer : enc_) x = layer->forward(x, self_mask_out);
  return enc_ln_.forward(x);
}

ag::Var TransformerMT::forward(const std::vector<int64_t>& src,
                               int64_t src_len,
                               const std::vector<int64_t>& tgt,
                               int64_t tgt_len, int64_t b, int64_t pad_id) {
  Tensor enc_self_mask;
  ag::Var memory = encode(src, src_len, b, &enc_self_mask, pad_id);
  const Tensor tgt_mask =
      build_mask(tgt, b, cfg_.heads, tgt_len, tgt_len, pad_id, true);
  const Tensor cross_mask =
      build_mask(src, b, cfg_.heads, tgt_len, src_len, pad_id, false);

  ag::Var x = drop_tgt_.forward(embed(tgt, b, tgt_len));
  for (auto& layer : dec_)
    x = layer->forward(x, memory, &tgt_mask, &cross_mask);
  x = dec_ln_.forward(x);
  x = ag::reshape(x, Shape{b * tgt_len, cfg_.dm});
  // Tied output projection, no bias.
  return ag::matmul_nt(x, embed_.weight);
}

std::vector<std::vector<int64_t>> TransformerMT::greedy_decode(
    const std::vector<int64_t>& src, int64_t src_len, int64_t b,
    int64_t bos_id, int64_t eos_id, int64_t max_len, int64_t pad_id) {
  ag::NoGradGuard ng;
  std::vector<std::vector<int64_t>> out(static_cast<size_t>(b),
                                        std::vector<int64_t>{bos_id});
  for (int64_t step = 1; step < max_len; ++step) {
    // Re-run the full decoder on the sequences so far (O(L^2) decode; fine
    // at benchmark scale).
    std::vector<int64_t> tgt(static_cast<size_t>(b * step), pad_id);
    for (int64_t i = 0; i < b; ++i)
      for (int64_t t = 0; t < step; ++t)
        tgt[static_cast<size_t>(i * step + t)] =
            out[static_cast<size_t>(i)][static_cast<size_t>(t)];
    ag::Var logits = forward(src, src_len, tgt, step, b, pad_id);
    // Last position of each row decides the next token.
    bool all_done = true;
    for (int64_t i = 0; i < b; ++i) {
      auto& seq = out[static_cast<size_t>(i)];
      // Keep all rows the same length: finished rows grow with padding.
      if (seq.back() == eos_id || seq.back() == pad_id) {
        seq.push_back(pad_id);
        continue;
      }
      const float* row =
          logits->value.data() + ((i * step) + (step - 1)) * cfg_.vocab;
      int64_t best = 0;
      for (int64_t v = 1; v < cfg_.vocab; ++v)
        if (row[v] > row[best]) best = v;
      seq.push_back(best);
      if (best != eos_id) all_done = false;
    }
    if (all_done) break;
  }
  return out;
}

std::vector<int64_t> TransformerMT::beam_decode(
    const std::vector<int64_t>& src, int64_t src_len, int64_t bos_id,
    int64_t eos_id, int64_t max_len, int64_t beam_width, int64_t pad_id) {
  ag::NoGradGuard ng;
  struct Hypothesis {
    std::vector<int64_t> ids;
    double log_prob = 0;
    bool done = false;
    double score(double eos_bonus = 0) const {
      // Length-normalized log-probability.
      return (log_prob + eos_bonus) /
             std::max<size_t>(1, ids.size() - 1);
    }
  };
  std::vector<Hypothesis> beam = {Hypothesis{{bos_id}, 0.0, false}};

  for (int64_t step = 1; step < max_len; ++step) {
    std::vector<Hypothesis> candidates;
    for (const Hypothesis& h : beam) {
      if (h.done) {
        candidates.push_back(h);
        continue;
      }
      const int64_t len = static_cast<int64_t>(h.ids.size());
      ag::Var logits = forward(src, src_len, h.ids, len, 1, pad_id);
      // Log-softmax over the last position.
      const float* row = logits->value.data() + (len - 1) * cfg_.vocab;
      float mx = row[0];
      for (int64_t v = 1; v < cfg_.vocab; ++v) mx = std::max(mx, row[v]);
      double z = 0;
      for (int64_t v = 0; v < cfg_.vocab; ++v) z += std::exp(row[v] - mx);
      const double logz = std::log(z) + mx;
      // Expand with the beam_width best next tokens.
      std::vector<int64_t> order(static_cast<size_t>(cfg_.vocab));
      for (int64_t v = 0; v < cfg_.vocab; ++v)
        order[static_cast<size_t>(v)] = v;
      std::partial_sort(order.begin(),
                        order.begin() + std::min<int64_t>(beam_width,
                                                          cfg_.vocab),
                        order.end(),
                        [row](int64_t a, int64_t b) { return row[a] > row[b]; });
      for (int64_t i = 0; i < std::min<int64_t>(beam_width, cfg_.vocab);
           ++i) {
        const int64_t tok = order[static_cast<size_t>(i)];
        Hypothesis next = h;
        next.ids.push_back(tok);
        next.log_prob += static_cast<double>(row[tok]) - logz;
        next.done = tok == eos_id;
        candidates.push_back(std::move(next));
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Hypothesis& a, const Hypothesis& b) {
                return a.score() > b.score();
              });
    if (static_cast<int64_t>(candidates.size()) > beam_width)
      candidates.resize(static_cast<size_t>(beam_width));
    beam = std::move(candidates);
    bool all_done = true;
    for (const Hypothesis& h : beam) all_done = all_done && h.done;
    if (all_done) break;
  }
  return beam.front().ids;
}

}  // namespace pf::models
