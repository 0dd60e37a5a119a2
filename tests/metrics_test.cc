#include "metrics/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace pf::metrics {
namespace {

TEST(TopkAccuracy, Top1) {
  Tensor logits = Tensor::from_vector({1, 5, 2,   // argmax 1
                                       9, 0, 0,   // argmax 0
                                       0, 1, 7})  // argmax 2
                      .reshape(Shape{3, 3});
  EXPECT_NEAR(topk_accuracy(logits, {1, 0, 2}, 1), 1.0, 1e-9);
  EXPECT_NEAR(topk_accuracy(logits, {0, 0, 2}, 1), 2.0 / 3, 1e-9);
  EXPECT_NEAR(topk_accuracy(logits, {2, 1, 0}, 1), 0.0, 1e-9);
}

TEST(TopkAccuracy, Top2CatchesRunnerUp) {
  Tensor logits =
      Tensor::from_vector({3, 2, 1, 0}).reshape(Shape{1, 4});
  EXPECT_NEAR(topk_accuracy(logits, {1}, 1), 0.0, 1e-9);
  EXPECT_NEAR(topk_accuracy(logits, {1}, 2), 1.0, 1e-9);
}

TEST(Perplexity, ExpOfLoss) {
  EXPECT_NEAR(perplexity(0.0), 1.0, 1e-9);
  EXPECT_NEAR(perplexity(std::log(50.0)), 50.0, 1e-6);
}

TEST(Bleu4, PerfectMatchIs100) {
  std::vector<std::vector<int64_t>> hyp = {{1, 2, 3, 4, 5, 6}};
  EXPECT_NEAR(bleu4(hyp, hyp), 100.0, 1e-6);
}

TEST(Bleu4, DisjointIsZero) {
  std::vector<std::vector<int64_t>> hyp = {{1, 2, 3, 4}};
  std::vector<std::vector<int64_t>> ref = {{5, 6, 7, 8}};
  EXPECT_NEAR(bleu4(hyp, ref), 0.0, 1e-6);
}

TEST(Bleu4, PartialMatchBetween) {
  std::vector<std::vector<int64_t>> ref = {{1, 2, 3, 4, 5, 6, 7, 8}};
  std::vector<std::vector<int64_t>> hyp = {{1, 2, 3, 4, 9, 10, 11, 12}};
  const double b = bleu4(hyp, ref);
  EXPECT_GT(b, 0.0);
  EXPECT_LT(b, 100.0);
}

TEST(Bleu4, BrevityPenaltyPunishesShortHyps) {
  std::vector<std::vector<int64_t>> ref = {{1, 2, 3, 4, 5, 6, 7, 8}};
  std::vector<std::vector<int64_t>> full = {{1, 2, 3, 4, 5, 6, 7, 8}};
  std::vector<std::vector<int64_t>> half = {{1, 2, 3, 4}};
  EXPECT_GT(bleu4(full, ref), bleu4(half, ref));
}

TEST(Bleu4, OrderMatters) {
  std::vector<std::vector<int64_t>> ref = {{1, 2, 3, 4, 5, 6}};
  std::vector<std::vector<int64_t>> shuffled = {{6, 5, 4, 3, 2, 1}};
  EXPECT_LT(bleu4(shuffled, ref), 50.0);
}

TEST(MeanStd, KnownValues) {
  MeanStd ms = mean_std({1.0, 2.0, 3.0});
  EXPECT_NEAR(ms.mean, 2.0, 1e-9);
  EXPECT_NEAR(ms.std, 1.0, 1e-9);
  MeanStd single = mean_std({5.0});
  EXPECT_NEAR(single.mean, 5.0, 1e-9);
  EXPECT_NEAR(single.std, 0.0, 1e-9);
  MeanStd empty = mean_std({});
  EXPECT_EQ(empty.mean, 0.0);
}

TEST(Format, Numbers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_int(1234567), "1,234,567");
  EXPECT_EQ(fmt_int(-1000), "-1,000");
  EXPECT_EQ(fmt_int(999), "999");
  EXPECT_EQ(fmt_ratio(1.637), "1.64x");
  EXPECT_EQ(fmt_bytes(512), "512.0 B");
  EXPECT_EQ(fmt_bytes(25 << 20), "25.0 MB");
}

TEST(Format, MeanStdString) {
  EXPECT_EQ(fmt_mean_std(MeanStd{93.89, 0.14}, 2), "93.89 +- 0.14");
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 2000000; ++i) x = x + i;
  EXPECT_GT(t.seconds(), 0.0);
  const double first = t.seconds();
  t.reset();
  EXPECT_LT(t.seconds(), first + 1.0);
}

TEST(Table, PrintsWithoutCrashing) {
  Table t({"model", "params", "acc"});
  t.add_row({"vanilla", "20,560,330", "93.91"});
  t.add_row({"pufferfish", "8,370,634", "93.89"});
  ::testing::internal::CaptureStdout();
  t.print();
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("vanilla"), std::string::npos);
  EXPECT_NE(out.find("8,370,634"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
}

}  // namespace
}  // namespace pf::metrics
