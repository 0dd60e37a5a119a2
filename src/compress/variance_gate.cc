#include "compress/variance_gate.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "metrics/metrics.h"

namespace pf::compress {

Tensor VarianceGateReducer::reduce(const std::vector<Tensor>& grads,
                                   const std::vector<Shape>& shapes,
                                   ReduceStats* stats) {
  const size_t workers = grads.size();
  const int64_t n = grads[0].numel();
  if (mean_.empty()) {
    mean_ = Tensor::zeros(Shape{n});
    m2_ = Tensor::zeros(Shape{n});
    residual_ = Tensor::zeros(Shape{n});
  }

  // Segment the flat buffer per parameter tensor; fall back to one segment
  // if the declared shapes do not tile the buffer exactly.
  std::vector<std::pair<int64_t, int64_t>> segments;  // (offset, len)
  {
    int64_t off = 0;
    for (const Shape& s : shapes) {
      const int64_t len = shape_numel(s);
      segments.emplace_back(off, len);
      off += len;
    }
    if (off != n) segments.assign(1, {0, n});
  }

  metrics::Timer te;
  // Aggregate first (dense gradients sum, so this is what allreduce would
  // deliver), then gate the *aggregated* gradient. Gating after aggregation
  // keeps one residual buffer exact: the residual of the mean equals the
  // mean of per-worker residuals under the mean convention.
  Tensor g = grads[0];
  for (size_t w = 1; w < workers; ++w) g.add_(grads[w]);
  g.mul_(1.0f / static_cast<float>(workers));

  step_ += 1;
  // Welford: mean_ and m2_ track the per-coordinate running moments of the
  // aggregated gradient across steps.
  const float inv_step = 1.0f / static_cast<float>(step_);
  for (int64_t j = 0; j < n; ++j) {
    const float delta = g[j] - mean_[j];
    mean_[j] += delta * inv_step;
    m2_[j] += delta * (g[j] - mean_[j]);
  }

  Tensor out = Tensor::zeros(Shape{n});
  int64_t sent_floats = 0;
  const double var_scale =
      1.0 / (static_cast<double>(std::max<int64_t>(1, step_ - 1)) *
             static_cast<double>(step_));
  for (const auto& [off, len] : segments) {
    bool send = step_ <= warmup_steps_;
    if (!send) {
      // Ambiguity criterion: transmit when the mean's squared mass
      // dominates the variance of the mean estimate (var/step), i.e.
      // sum(mean^2) >= threshold^2 * sum(m2/(step-1))/step.
      double mass = 0, var = 0;
      for (int64_t j = off; j < off + len; ++j) {
        mass += static_cast<double>(mean_[j]) * mean_[j];
        var += static_cast<double>(m2_[j]);
      }
      send = mass >= threshold_ * threshold_ * var * var_scale;
    }
    if (send) {
      for (int64_t j = off; j < off + len; ++j) {
        out[j] = g[j] + residual_[j];
        residual_[j] = 0.0f;
      }
      sent_floats += len;
      layers_sent_ += 1;
    } else {
      // Error feedback: defer this layer's mass to its next send.
      for (int64_t j = off; j < off + len; ++j) residual_[j] += g[j];
      layers_skipped_ += 1;
    }
  }
  const double encode_s = te.seconds();

  if (stats) {
    // Sent floats still sum across workers, so the collective stays
    // allreduce; the per-layer send mask rides in the header.
    stats->payload_bytes_per_worker =
        sent_floats * 4 +
        (static_cast<int64_t>(segments.size()) + 7) / 8;
    stats->collective = dist::Coll::kAllreduce;
    stats->n_messages = 1;
    stats->encode_seconds = encode_s;
    stats->decode_seconds = 0;  // dense floats need no per-peer decode
  }
  return out;
}

ReducerState VarianceGateReducer::state() const {
  ReducerState st;
  if (mean_.empty()) return st;
  st.scalars = {step_, layers_sent_, layers_skipped_};
  st.tensors = {Tensor().copy_from(mean_), Tensor().copy_from(m2_),
                Tensor().copy_from(residual_)};
  return st;
}

void VarianceGateReducer::set_state(const ReducerState& st) {
  if (st.empty()) {
    mean_ = Tensor();
    m2_ = Tensor();
    residual_ = Tensor();
    step_ = layers_sent_ = layers_skipped_ = 0;
    return;
  }
  if (st.scalars.size() != 3 || st.tensors.size() != 3)
    throw std::runtime_error(
        "variance-gate: snapshot state has the wrong layout (expected 3 "
        "scalars + 3 tensors)");
  step_ = st.scalars[0];
  layers_sent_ = st.scalars[1];
  layers_skipped_ = st.scalars[2];
  mean_ = Tensor().copy_from(st.tensors[0]);
  m2_ = Tensor().copy_from(st.tensors[1]);
  residual_ = Tensor().copy_from(st.tensors[2]);
}

}  // namespace pf::compress
