#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pf::data {

namespace {

// Smooth a (C, H, W) field in place with a separable 3-tap blur, `passes`
// times -- cheap way to get CIFAR-like low-frequency class prototypes.
void smooth(Tensor& t, int64_t c, int64_t h, int64_t w, int passes) {
  Tensor tmp(t.shape());
  for (int p = 0; p < passes; ++p) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* src = t.data() + ch * h * w;
      float* dst = tmp.data() + ch * h * w;
      for (int64_t y = 0; y < h; ++y)
        for (int64_t x = 0; x < w; ++x) {
          float acc = 0;
          int cnt = 0;
          for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx) {
              const int64_t yy = y + dy, xx = x + dx;
              if (yy < 0 || yy >= h || xx < 0 || xx >= w) continue;
              acc += src[yy * w + xx];
              ++cnt;
            }
          dst[y * w + x] = acc / static_cast<float>(cnt);
        }
    }
    std::swap(t, tmp);
  }
}

}  // namespace

SyntheticImages::SyntheticImages(const Config& cfg) : cfg_(cfg) {
  Rng rng(cfg.seed);
  const int64_t c = cfg.channels, hw = cfg.hw;
  prototypes_ = rng.randn(Shape{cfg.num_classes, c, hw, hw});
  for (int64_t k = 0; k < cfg.num_classes; ++k) {
    Tensor proto(Shape{c, hw, hw},
                 std::vector<float>(prototypes_.data() + k * c * hw * hw,
                                    prototypes_.data() + (k + 1) * c * hw * hw));
    smooth(proto, c, hw, hw, 3);
    // Re-normalize so prototypes keep unit-ish scale after blurring.
    const float nrm = proto.norm() /
                      std::sqrt(static_cast<float>(proto.numel()));
    proto.mul_(1.0f / std::max(1e-6f, nrm));
    std::copy(proto.data(), proto.data() + proto.numel(),
              prototypes_.data() + k * c * hw * hw);
  }

  Rng train_rng = rng.split(1);
  train_images_ = Tensor(Shape{cfg.train_size, c, hw, hw});
  train_labels_.resize(static_cast<size_t>(cfg.train_size));
  for (int64_t i = 0; i < cfg.train_size; ++i) {
    const int64_t cls = i % cfg.num_classes;
    train_labels_[static_cast<size_t>(i)] = cls;
    Tensor s = make_sample(cls, train_rng, /*augment=*/false);
    std::copy(s.data(), s.data() + s.numel(),
              train_images_.data() + i * c * hw * hw);
  }
  Rng test_rng = rng.split(2);
  test_images_ = Tensor(Shape{cfg.test_size, c, hw, hw});
  test_labels_.resize(static_cast<size_t>(cfg.test_size));
  for (int64_t i = 0; i < cfg.test_size; ++i) {
    const int64_t cls = i % cfg.num_classes;
    test_labels_[static_cast<size_t>(i)] = cls;
    Tensor s = make_sample(cls, test_rng, /*augment=*/false);
    std::copy(s.data(), s.data() + s.numel(),
              test_images_.data() + i * c * hw * hw);
  }
}

Tensor SyntheticImages::make_sample(int64_t cls, Rng& rng,
                                    bool augment) const {
  const int64_t c = cfg_.channels, hw = cfg_.hw;
  Tensor s(Shape{c, hw, hw});
  const float* proto = prototypes_.data() + cls * c * hw * hw;
  const int64_t dy = augment ? rng.uniform_int(5) - 2 : 0;
  const int64_t dx = augment ? rng.uniform_int(5) - 2 : 0;
  const bool flip = augment && rng.bernoulli(0.5);
  for (int64_t ch = 0; ch < c; ++ch)
    for (int64_t y = 0; y < hw; ++y)
      for (int64_t x = 0; x < hw; ++x) {
        int64_t sy = y + dy, sx = x + dx;
        sy = std::clamp<int64_t>(sy, 0, hw - 1);
        sx = std::clamp<int64_t>(sx, 0, hw - 1);
        if (flip) sx = hw - 1 - sx;
        s[(ch * hw + y) * hw + x] =
            proto[(ch * hw + sy) * hw + sx] +
            cfg_.noise * static_cast<float>(rng.normal());
      }
  return s;
}

std::vector<ImageBatch> SyntheticImages::train_batches(int64_t batch,
                                                       int epoch) const {
  if (batch < 1)
    throw std::invalid_argument("SyntheticImages::train_batches: batch < 1");
  Rng rng(cfg_.seed ^ (0x5bd1e995ull * static_cast<uint64_t>(epoch + 1)));
  const auto perm = rng.permutation(cfg_.train_size);
  const int64_t c = cfg_.channels, hw = cfg_.hw;
  std::vector<ImageBatch> out;
  for (int64_t start = 0; start + batch <= cfg_.train_size; start += batch) {
    ImageBatch b;
    b.images = Tensor(Shape{batch, c, hw, hw});
    b.labels.resize(static_cast<size_t>(batch));
    for (int64_t i = 0; i < batch; ++i) {
      const int64_t idx = perm[static_cast<size_t>(start + i)];
      b.labels[static_cast<size_t>(i)] = train_labels_[static_cast<size_t>(idx)];
      if (cfg_.augment) {
        Tensor s = make_sample(train_labels_[static_cast<size_t>(idx)], rng,
                               true);
        std::copy(s.data(), s.data() + s.numel(),
                  b.images.data() + i * c * hw * hw);
      } else {
        const float* src = train_images_.data() + idx * c * hw * hw;
        std::copy(src, src + c * hw * hw, b.images.data() + i * c * hw * hw);
      }
    }
    out.push_back(std::move(b));
  }
  return out;
}

ImageBatch SyntheticImages::test_batch(int64_t start, int64_t count) const {
  const int64_t c = cfg_.channels, hw = cfg_.hw;
  count = std::min(count, cfg_.test_size - start);
  ImageBatch b;
  b.images = Tensor(Shape{count, c, hw, hw});
  b.labels.assign(test_labels_.begin() + start,
                  test_labels_.begin() + start + count);
  std::copy(test_images_.data() + start * c * hw * hw,
            test_images_.data() + (start + count) * c * hw * hw,
            b.images.data());
  return b;
}

SyntheticCorpus::SyntheticCorpus(const Config& cfg) : cfg_(cfg) {
  Rng rng(cfg.seed);
  // Each token gets `branching` likely successors (prob mass 0.9 split
  // unevenly) plus uniform leakage.
  std::vector<std::vector<int64_t>> succ(static_cast<size_t>(cfg.vocab));
  for (auto& s : succ) {
    s.resize(static_cast<size_t>(cfg.branching));
    for (auto& t : s) t = rng.uniform_int(cfg.vocab);
  }
  auto gen = [&](int64_t n, Rng& r) {
    std::vector<int64_t> stream(static_cast<size_t>(n));
    int64_t cur = r.uniform_int(cfg.vocab);
    for (int64_t i = 0; i < n; ++i) {
      stream[static_cast<size_t>(i)] = cur;
      if (r.bernoulli(0.9)) {
        // Geometric-ish preference over the successor list.
        size_t j = 0;
        while (j + 1 < succ[static_cast<size_t>(cur)].size() &&
               r.bernoulli(0.5))
          ++j;
        cur = succ[static_cast<size_t>(cur)][j];
      } else {
        cur = r.uniform_int(cfg.vocab);
      }
    }
    return stream;
  };
  Rng r1 = rng.split(1), r2 = rng.split(2), r3 = rng.split(3);
  train_ = gen(cfg.train_tokens, r1);
  valid_ = gen(cfg.valid_tokens, r2);
  test_ = gen(cfg.test_tokens, r3);
}

std::vector<SyntheticCorpus::LmBatch> SyntheticCorpus::batchify(
    const std::vector<int64_t>& stream, int64_t b, int64_t bptt) {
  // Split the stream into b parallel columns, then cut bptt-length segments.
  const int64_t cols = static_cast<int64_t>(stream.size()) / b;
  std::vector<LmBatch> out;
  for (int64_t start = 0; start + bptt + 1 <= cols; start += bptt) {
    LmBatch lb;
    lb.t = bptt;
    lb.b = b;
    lb.input.resize(static_cast<size_t>(bptt * b));
    lb.target.resize(static_cast<size_t>(bptt * b));
    for (int64_t t = 0; t < bptt; ++t)
      for (int64_t col = 0; col < b; ++col) {
        lb.input[static_cast<size_t>(t * b + col)] =
            stream[static_cast<size_t>(col * cols + start + t)];
        lb.target[static_cast<size_t>(t * b + col)] =
            stream[static_cast<size_t>(col * cols + start + t + 1)];
      }
    out.push_back(std::move(lb));
  }
  return out;
}

SyntheticTranslation::SyntheticTranslation(const Config& cfg) : cfg_(cfg) {
  Rng rng(cfg.seed);
  Rng r1 = rng.split(1), r2 = rng.split(2);
  train_.reserve(static_cast<size_t>(cfg.train_pairs));
  for (int64_t i = 0; i < cfg.train_pairs; ++i) train_.push_back(make_pair(r1));
  test_.reserve(static_cast<size_t>(cfg.test_pairs));
  for (int64_t i = 0; i < cfg.test_pairs; ++i) test_.push_back(make_pair(r2));
}

SyntheticTranslation::Pair SyntheticTranslation::make_pair(Rng& rng) const {
  const int64_t content = cfg_.vocab - 3;
  const int64_t len =
      cfg_.min_len + rng.uniform_int(cfg_.max_len - cfg_.min_len + 1);
  Pair p;
  std::vector<int64_t> words(static_cast<size_t>(len));
  for (auto& w : words) w = 3 + rng.uniform_int(content);
  p.src = words;
  p.src.push_back(kEos);
  // Deterministic transduction: remap each token and reverse pairs of
  // adjacent tokens -- local structure a seq2seq model must learn.
  std::vector<int64_t> tgt_words = words;
  for (auto& w : tgt_words) w = 3 + ((w - 3) * 7 + 3) % content;
  for (size_t i = 0; i + 1 < tgt_words.size(); i += 2)
    std::swap(tgt_words[i], tgt_words[i + 1]);
  p.tgt.push_back(kBos);
  p.tgt.insert(p.tgt.end(), tgt_words.begin(), tgt_words.end());
  p.tgt.push_back(kEos);
  return p;
}

std::vector<SyntheticTranslation::MtBatch> SyntheticTranslation::batches(
    const std::vector<Pair>& pairs, int64_t batch, int epoch) const {
  Rng rng(cfg_.seed ^ (0x2545F4914F6CDD1Dull * static_cast<uint64_t>(epoch + 1)));
  const auto perm = rng.permutation(static_cast<int64_t>(pairs.size()));
  std::vector<MtBatch> out;
  for (size_t start = 0; start + static_cast<size_t>(batch) <= pairs.size();
       start += static_cast<size_t>(batch)) {
    MtBatch mb;
    mb.b = batch;
    mb.src_len = 0;
    mb.tgt_len = 0;
    for (int64_t i = 0; i < batch; ++i) {
      const Pair& p = pairs[static_cast<size_t>(perm[start + static_cast<size_t>(i)])];
      mb.src_len = std::max<int64_t>(mb.src_len,
                                     static_cast<int64_t>(p.src.size()));
      mb.tgt_len = std::max<int64_t>(
          mb.tgt_len, static_cast<int64_t>(p.tgt.size()) - 1);
    }
    mb.src.assign(static_cast<size_t>(batch * mb.src_len), kPad);
    mb.tgt_in.assign(static_cast<size_t>(batch * mb.tgt_len), kPad);
    mb.tgt_out.assign(static_cast<size_t>(batch * mb.tgt_len), -100);
    for (int64_t i = 0; i < batch; ++i) {
      const Pair& p = pairs[static_cast<size_t>(perm[start + static_cast<size_t>(i)])];
      for (size_t t = 0; t < p.src.size(); ++t)
        mb.src[static_cast<size_t>(i * mb.src_len) + t] = p.src[t];
      // tgt_in = tgt[:-1], tgt_out = tgt[1:].
      for (size_t t = 0; t + 1 < p.tgt.size(); ++t) {
        mb.tgt_in[static_cast<size_t>(i * mb.tgt_len) + t] = p.tgt[t];
        mb.tgt_out[static_cast<size_t>(i * mb.tgt_len) + t] = p.tgt[t + 1];
      }
    }
    out.push_back(std::move(mb));
  }
  return out;
}

}  // namespace pf::data
