// A tour of the gradient-compression baselines: what each reducer sends,
// which collective it is compatible with, and what its approximation error
// looks like on a real model gradient -- the tradeoff space the paper's
// Section 4 and appendix F analyze.
//
// Build & run:  ./build/examples/compression_zoo
#include <cstdio>

#include "compress/compressor.h"
#include "dist/cost_model.h"
#include "metrics/metrics.h"
#include "models/resnet.h"

using namespace pf;

int main() {
  // A real gradient from a scaled ResNet-18 on random data.
  Rng rng(11);
  models::ResNetCifarConfig mcfg;
  mcfg.width_mult = 0.25;
  models::ResNet18Cifar model(mcfg, rng);
  ag::Var logits = model.forward(ag::leaf(rng.randn(Shape{8, 3, 16, 16})));
  std::vector<int64_t> labels(8);
  for (size_t i = 0; i < 8; ++i) labels[i] = static_cast<int64_t>(i % 10);
  ag::backward(ag::cross_entropy(logits, labels));
  Tensor grad = model.flat_grads();
  std::vector<Shape> shapes;
  for (nn::Param* p : model.parameters())
    shapes.push_back(p->var->value.shape());

  // Simulate 4 workers with slightly different gradients.
  std::vector<Tensor> grads;
  for (int w = 0; w < 4; ++w) {
    Tensor g = grad;
    Tensor noise = rng.randn(g.shape(), 0.0f, 0.05f * g.abs_max());
    g.add_(noise);
    grads.push_back(std::move(g));
  }
  Tensor exact(grad.shape());
  for (const Tensor& g : grads) exact.add_(g, 0.25f);

  const dist::HardwareProfile hw = dist::HardwareProfile::cloud_10g();

  std::vector<std::unique_ptr<compress::Reducer>> reducers;
  reducers.push_back(std::make_unique<compress::AllreduceReducer>());
  reducers.push_back(std::make_unique<compress::PowerSgdReducer>(2, 5));
  reducers.push_back(std::make_unique<compress::PowerSgdReducer>(8, 5));
  reducers.push_back(std::make_unique<compress::SignumReducer>());
  reducers.push_back(std::make_unique<compress::TopKReducer>(0.01));
  reducers.push_back(std::make_unique<compress::BinaryQuantReducer>(9));
  reducers.push_back(std::make_unique<compress::AtomoReducer>(4, 13));

  std::printf("== gradient compression zoo (%s gradient, 4 workers) ==\n\n",
              metrics::fmt_int(grad.numel()).c_str());
  metrics::Table table({"reducer", "payload/worker", "collective",
                        "rel. error", "modeled comm @16 nodes"});
  for (auto& r : reducers) {
    compress::ReduceStats stats;
    Tensor agg = r->reduce(grads, shapes, &stats);
    Tensor diff = agg - exact;
    const double rel = diff.norm() / exact.norm();
    const double comm =
        dist::collective_seconds(stats.collective,
                                 stats.payload_bytes_per_worker, 16, hw,
                                 stats.n_messages);
    table.add_row(
        {r->name(), metrics::fmt_bytes(stats.payload_bytes_per_worker),
         dist::coll_name(stats.collective),
         metrics::fmt(rel, 3), metrics::fmt(comm * 1e3, 3) + " ms"});
  }
  table.print();
  std::printf(
      "\nNote: SIGNUM's sign vector is NOT exactly the mean gradient (its "
      "relative error is high by design -- it is a different optimizer), "
      "and allgather-based encodings pay a (p-1) bandwidth factor that "
      "erodes their compression at scale.\n");
  return 0;
}
