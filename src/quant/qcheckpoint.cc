#include "quant/qcheckpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "io/artifact.h"
#include "nn/serialize.h"

namespace pf::quant {

// Entry kind bytes (see qcheckpoint.h header comment).
constexpr uint8_t kEntryFp32 = 0;
constexpr uint8_t kEntryInt8 = 1;
constexpr uint8_t kEntryBf16 = 2;
constexpr uint8_t kEntryDeltaLowRank = 3;

namespace {

// One artifact entry: a checkpoint tensor and its param (null for a
// buffer). parameters() lists the params in nn::checkpoint_tensors order.
struct Entry {
  Tensor* tensor;
  nn::Param* param;
};

std::vector<Entry> entries(nn::Module& m) {
  const std::vector<nn::Param*> params = m.parameters();
  std::vector<Entry> out;
  size_t next = 0;
  for (Tensor* t : nn::checkpoint_tensors(m)) {
    nn::Param* p = next < params.size() && t == &params[next]->var->value
                       ? params[next++]
                       : nullptr;
    out.push_back({t, p});
  }
  return out;
}

}  // namespace

void save_quantized(nn::Module& m, const std::string& path) {
  const std::vector<Entry> es = entries(m);
  io::ByteWriter w;
  w.u64(es.size());
  for (const Entry& e : es) {
    const kernels::QuantizedMat* q = e.param ? e.param->quant.get() : nullptr;
    if (!q) {
      if (e.tensor->empty())
        throw std::runtime_error(
            "save_quantized: fp32 master released without a quantized slot");
      w.u8(kEntryFp32);
      w.tensor(*e.tensor);
      continue;
    }
    const bool int8 = q->mode == kernels::QMode::kInt8;
    w.u8(int8 ? kEntryInt8 : kEntryBf16);
    w.shape(q->shape);
    if (int8) {
      w.bytes(q->scales.data(), q->scales.size() * sizeof(float));
      w.bytes(q->q.data(), q->q.size());
    } else {
      w.bytes(q->b16.data(), q->b16.size() * sizeof(uint16_t));
    }
  }
  io::write_envelope(path, kQCheckpointMagic,
                     {kQCheckpointVersion, kArtifactQuantized}, w.data());
}

void load_quantized(nn::Module& m, const std::string& path) {
  const std::string what = "qcheckpoint " + path;
  const std::vector<char> file = io::read_file(path, what);
  io::Envelope env = io::read_envelope(
      file, {kQCheckpointMagic}, {kQCheckpointVersion, kArtifactQuantized},
      what);
  io::ByteReader& r = env.payload;
  const std::vector<Entry> es = entries(m);
  const uint64_t count = r.u64();
  if (count != es.size())
    r.fail("tensor count mismatch (file " + std::to_string(count) +
           ", model " + std::to_string(es.size()) + ")");
  // Decode and validate every entry before writing the module: fp32 entries
  // as pointers into the file, quantized ones as ready slots.
  std::vector<const char*> fp32(es.size(), nullptr);
  std::vector<std::shared_ptr<const kernels::QuantizedMat>> slots(es.size());
  for (size_t i = 0; i < es.size(); ++i) {
    const Entry& e = es[i];
    const uint8_t kind = r.u8();
    const Shape shape = r.shape();
    if (kind == kEntryFp32) {
      if (shape != e.tensor->shape())
        r.fail("shape mismatch: file " + shape_str(shape) + " vs model " +
               shape_str(e.tensor->shape()));
      fp32[i] = r.bytes(static_cast<size_t>(e.tensor->numel()) * sizeof(float));
      continue;
    }
    if (kind != kEntryInt8 && kind != kEntryBf16)
      r.fail("unknown entry kind " + std::to_string(kind));
    if (!e.param || !e.param->quantizable)
      r.fail("quantized entry for a non-quantizable tensor "
             "(architecture mismatch)");
    // A released master's shape lives on in its slot.
    const Shape& want = e.tensor->empty() && e.param->quant
                            ? e.param->quant->shape
                            : e.tensor->shape();
    if (shape != want || shape_numel(want) < 1)
      r.fail("shape mismatch: file " + shape_str(shape) + " vs model " +
             shape_str(want));
    kernels::QuantizedMat q;
    q.mode = kind == kEntryInt8 ? kernels::QMode::kInt8
                                : kernels::QMode::kBf16;
    // The shape matches the model, so these sizes are bounded by it.
    q.shape = shape;
    q.rows = shape[0];
    q.cols = shape_numel(shape) / q.rows;
    const size_t n = static_cast<size_t>(q.rows) * static_cast<size_t>(q.cols);
    if (q.mode == kernels::QMode::kInt8) {
      q.scales.resize(static_cast<size_t>(q.rows));
      r.bytes(q.scales.data(), q.scales.size() * sizeof(float));
      q.q.resize(n);
      r.bytes(q.q.data(), n);
    } else {
      q.b16.resize(n);
      r.bytes(q.b16.data(), n * sizeof(uint16_t));
    }
    slots[i] = std::make_shared<const kernels::QuantizedMat>(std::move(q));
  }
  r.expect_end();
  for (size_t i = 0; i < es.size(); ++i) {
    const Entry& e = es[i];
    if (!slots[i]) {
      if (e.param) e.param->quant.reset();
      if (e.tensor->numel())
        std::memcpy(e.tensor->data(), fp32[i],
                    static_cast<size_t>(e.tensor->numel()) * sizeof(float));
      continue;
    }
    e.param->quant = std::move(slots[i]);
    // Same state as quant::commit: the slot serves, the master is gone.
    e.param->var->value = Tensor();
    e.param->var->requires_grad = false;
  }
}

void save_delta(const DeltaModel& d, const std::string& path) {
  io::ByteWriter w;
  w.u64(d.entries.size());
  for (const DeltaEntry& e : d.entries) {
    w.u8(e.lowrank ? kEntryDeltaLowRank : kEntryFp32);
    w.shape(e.shape);
    if (e.lowrank) {
      w.u64(static_cast<uint64_t>(e.u.size(1)));
      w.bytes(e.u.data(), static_cast<size_t>(e.u.numel()) * sizeof(float));
      w.bytes(e.v.data(), static_cast<size_t>(e.v.numel()) * sizeof(float));
    } else {
      w.bytes(e.dense.data(),
              static_cast<size_t>(e.dense.numel()) * sizeof(float));
    }
  }
  io::write_envelope(path, kQCheckpointMagic,
                     {kQCheckpointVersion, kArtifactDelta}, w.data());
}

DeltaModel load_delta(const std::string& path) {
  const std::string what = "qcheckpoint " + path;
  const std::vector<char> file = io::read_file(path, what);
  io::Envelope env = io::read_envelope(
      file, {kQCheckpointMagic}, {kQCheckpointVersion, kArtifactDelta}, what);
  io::ByteReader& r = env.payload;
  DeltaModel d;
  // Each entry holds at least a kind byte and a rank word.
  d.entries.resize(r.count(1 + sizeof(uint64_t)));
  for (DeltaEntry& e : d.entries) {
    const uint8_t kind = r.u8();
    e.shape = r.shape();
    if (kind == kEntryDeltaLowRank) {
      e.lowrank = true;
      const int64_t numel = shape_numel(e.shape);
      const int64_t rows = e.shape.empty() ? 1 : e.shape[0];
      const int64_t cols = rows > 0 ? numel / rows : 0;
      const int64_t rank = static_cast<int64_t>(r.u64());
      if (rank < 1 || rank > std::min(rows, cols))
        r.fail("implausible delta rank " + std::to_string(rank));
      e.u = r.floats(Shape{rows, rank});
      e.v = r.floats(Shape{cols, rank});
    } else if (kind == kEntryFp32) {
      e.dense = r.floats(e.shape);
    } else {
      r.fail("unknown delta entry kind " + std::to_string(kind));
    }
  }
  r.expect_end();
  return d;
}

int64_t file_bytes(const std::string& path) {
  return static_cast<int64_t>(std::filesystem::file_size(path));
}

}  // namespace pf::quant
