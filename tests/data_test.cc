#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <set>

namespace pf::data {
namespace {

SyntheticImages::Config img_cfg() {
  SyntheticImages::Config c;
  c.num_classes = 4;
  c.hw = 8;
  c.train_size = 64;
  c.test_size = 32;
  return c;
}

TEST(SyntheticImages, ShapesAndSizes) {
  SyntheticImages ds(img_cfg());
  EXPECT_EQ(ds.train_size(), 64);
  EXPECT_EQ(ds.test_size(), 32);
  ImageBatch b = ds.test_batch(0, 16);
  EXPECT_EQ(b.images.shape(), (Shape{16, 3, 8, 8}));
  EXPECT_EQ(b.labels.size(), 16u);
}

TEST(SyntheticImages, LabelsAreBalancedAndInRange) {
  SyntheticImages ds(img_cfg());
  std::vector<int64_t> counts(4, 0);
  for (int64_t start = 0; start < 32; start += 8) {
    ImageBatch b = ds.test_batch(start, 8);
    for (int64_t l : b.labels) {
      ASSERT_GE(l, 0);
      ASSERT_LT(l, 4);
      ++counts[static_cast<size_t>(l)];
    }
  }
  for (int64_t c : counts) EXPECT_EQ(c, 8);
}

TEST(SyntheticImages, DeterministicAcrossInstances) {
  SyntheticImages a(img_cfg()), b(img_cfg());
  EXPECT_TRUE(allclose(a.test_batch(0, 8).images, b.test_batch(0, 8).images));
  auto ba = a.train_batches(16, 0);
  auto bb = b.train_batches(16, 0);
  ASSERT_EQ(ba.size(), bb.size());
  EXPECT_TRUE(allclose(ba[0].images, bb[0].images));
  EXPECT_EQ(ba[0].labels, bb[0].labels);
}

TEST(SyntheticImages, EpochsShuffleDifferently) {
  SyntheticImages ds(img_cfg());
  auto e0 = ds.train_batches(16, 0);
  auto e1 = ds.train_batches(16, 1);
  EXPECT_NE(e0[0].labels, e1[0].labels);
}

TEST(SyntheticImages, ClassesAreSeparable) {
  // Same-class test samples must be closer (on average) than cross-class
  // ones: the task is learnable.
  SyntheticImages ds(img_cfg());
  ImageBatch b = ds.test_batch(0, 32);
  const int64_t dim = 3 * 8 * 8;
  double same = 0, cross = 0;
  int64_t ns = 0, nc = 0;
  for (int64_t i = 0; i < 32; ++i)
    for (int64_t j = i + 1; j < 32; ++j) {
      double d = 0;
      for (int64_t k = 0; k < dim; ++k) {
        const double diff = b.images[i * dim + k] - b.images[j * dim + k];
        d += diff * diff;
      }
      if (b.labels[static_cast<size_t>(i)] ==
          b.labels[static_cast<size_t>(j)]) {
        same += d;
        ++ns;
      } else {
        cross += d;
        ++nc;
      }
    }
  EXPECT_LT(same / ns, cross / nc);
}

TEST(SyntheticImages, BatchCountMatches) {
  SyntheticImages ds(img_cfg());
  EXPECT_EQ(ds.train_batches(16, 0).size(), 4u);
  EXPECT_EQ(ds.train_batches(64, 0).size(), 1u);
}

TEST(SyntheticCorpus, StreamsHaveRequestedLengthAndRange) {
  SyntheticCorpus::Config c;
  c.vocab = 50;
  c.train_tokens = 1000;
  c.valid_tokens = 200;
  c.test_tokens = 200;
  SyntheticCorpus corpus(c);
  EXPECT_EQ(corpus.train().size(), 1000u);
  EXPECT_EQ(corpus.valid().size(), 200u);
  for (int64_t t : corpus.train()) {
    ASSERT_GE(t, 0);
    ASSERT_LT(t, 50);
  }
}

TEST(SyntheticCorpus, HasMarkovStructure) {
  // Successor entropy must be far below uniform: the chain is learnable.
  SyntheticCorpus::Config c;
  c.vocab = 32;
  c.train_tokens = 20000;
  SyntheticCorpus corpus(c);
  const auto& s = corpus.train();
  // Successor histogram of a frequent token: the top-4 successors must
  // carry most of the transition mass (branching 4 + 10% uniform leakage).
  std::vector<int64_t> hist(32, 0);
  int64_t occurrences = 0;
  for (size_t i = 0; i + 1 < s.size(); ++i)
    if (s[i] == s[2]) {  // pick a token that certainly occurs
      ++hist[static_cast<size_t>(s[i + 1])];
      ++occurrences;
    }
  ASSERT_GT(occurrences, 20);
  std::sort(hist.rbegin(), hist.rend());
  const double top4 =
      static_cast<double>(hist[0] + hist[1] + hist[2] + hist[3]);
  EXPECT_GT(top4 / occurrences, 0.5);  // uniform chain would give 0.125
}

TEST(SyntheticCorpus, BatchifyShiftsTargetsByOne) {
  std::vector<int64_t> stream;
  for (int64_t i = 0; i < 40; ++i) stream.push_back(i);
  auto batches = SyntheticCorpus::batchify(stream, /*b=*/2, /*bptt=*/4);
  ASSERT_FALSE(batches.empty());
  const auto& b0 = batches[0];
  EXPECT_EQ(b0.t, 4);
  EXPECT_EQ(b0.b, 2);
  // Column 0 reads stream[0..], column 1 reads stream[20..].
  EXPECT_EQ(b0.input[0], 0);
  EXPECT_EQ(b0.input[1], 20);
  EXPECT_EQ(b0.target[0], 1);
  EXPECT_EQ(b0.target[1], 21);
  // Next segment continues where the previous ended.
  EXPECT_EQ(batches[1].input[0], 4);
}

TEST(SyntheticTranslation, PairStructure) {
  SyntheticTranslation::Config c;
  c.train_pairs = 32;
  c.test_pairs = 8;
  SyntheticTranslation ds(c);
  EXPECT_EQ(ds.train().size(), 32u);
  for (const auto& p : ds.train()) {
    EXPECT_EQ(p.src.back(), SyntheticTranslation::kEos);
    EXPECT_EQ(p.tgt.front(), SyntheticTranslation::kBos);
    EXPECT_EQ(p.tgt.back(), SyntheticTranslation::kEos);
    // Content tokens in [3, vocab).
    for (size_t i = 0; i + 1 < p.src.size(); ++i) EXPECT_GE(p.src[i], 3);
  }
}

TEST(SyntheticTranslation, TransductionIsDeterministic) {
  SyntheticTranslation::Config c;
  SyntheticTranslation a(c), b(c);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a.train()[i].src, b.train()[i].src);
    EXPECT_EQ(a.train()[i].tgt, b.train()[i].tgt);
  }
  // Same source length => target length = source content + bos + eos.
  for (const auto& p : a.train())
    EXPECT_EQ(p.tgt.size(), p.src.size() + 1);
}

TEST(SyntheticTranslation, BatchPaddingAndTargets) {
  SyntheticTranslation::Config c;
  c.train_pairs = 16;
  c.min_len = 3;
  c.max_len = 7;
  SyntheticTranslation ds(c);
  auto batches = ds.batches(ds.train(), 4, 0);
  ASSERT_FALSE(batches.empty());
  for (const auto& mb : batches) {
    EXPECT_EQ(mb.src.size(), static_cast<size_t>(mb.b * mb.src_len));
    EXPECT_EQ(mb.tgt_in.size(), static_cast<size_t>(mb.b * mb.tgt_len));
    for (int64_t i = 0; i < mb.b; ++i) {
      // tgt_in starts with BOS; tgt_out's valid positions end with EOS
      // followed by ignore (-100) padding.
      EXPECT_EQ(mb.tgt_in[static_cast<size_t>(i * mb.tgt_len)],
                SyntheticTranslation::kBos);
      bool saw_eos = false;
      for (int64_t t = 0; t < mb.tgt_len; ++t) {
        const int64_t y = mb.tgt_out[static_cast<size_t>(i * mb.tgt_len + t)];
        if (y == SyntheticTranslation::kEos) saw_eos = true;
        if (saw_eos && y != SyntheticTranslation::kEos) {
          EXPECT_EQ(y, -100);
        }
      }
      EXPECT_TRUE(saw_eos);
    }
  }
}

TEST(SyntheticTranslation, TgtInOutAreShiftedViews) {
  SyntheticTranslation::Config c;
  c.train_pairs = 8;
  SyntheticTranslation ds(c);
  auto batches = ds.batches(ds.train(), 2, 0);
  const auto& mb = batches[0];
  for (int64_t i = 0; i < mb.b; ++i)
    for (int64_t t = 0; t + 1 < mb.tgt_len; ++t) {
      const int64_t next_in =
          mb.tgt_in[static_cast<size_t>(i * mb.tgt_len + t + 1)];
      const int64_t out =
          mb.tgt_out[static_cast<size_t>(i * mb.tgt_len + t)];
      if (next_in != SyntheticTranslation::kPad && out != -100) {
        EXPECT_EQ(next_in, out);
      }
    }
}

}  // namespace
}  // namespace pf::data
