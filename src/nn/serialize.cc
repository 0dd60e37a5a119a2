#include "nn/serialize.h"

#include <cstring>
#include <stdexcept>
#include <vector>

namespace pf::nn {

namespace {

// Validates the whole payload against `tensors` before copying anything, so
// a load that throws leaves the module untouched.
void decode(io::ByteReader& r, const std::vector<Tensor*>& tensors) {
  const uint64_t count = r.u64();
  if (count != tensors.size())
    r.fail("tensor count mismatch (file " + std::to_string(count) +
           ", model " + std::to_string(tensors.size()) + ")");
  std::vector<const char*> data;
  data.reserve(tensors.size());
  for (Tensor* t : tensors) {
    const Shape shape = r.shape();
    if (shape != t->shape())
      r.fail("shape mismatch: file " + shape_str(shape) + " vs model " +
             shape_str(t->shape()));
    data.push_back(r.bytes(static_cast<size_t>(t->numel()) * sizeof(float)));
  }
  r.expect_end();
  for (size_t i = 0; i < tensors.size(); ++i)
    if (tensors[i]->numel())
      std::memcpy(tensors[i]->data(), data[i],
                  static_cast<size_t>(tensors[i]->numel()) * sizeof(float));
}

}  // namespace

std::vector<Tensor*> checkpoint_tensors(Module& module) {
  std::vector<Tensor*> out;
  for (Param& p : module.local_params()) out.push_back(&p.var->value);
  for (Buffer& b : module.local_buffers()) out.push_back(&b.value);
  for (Module* c : module.children())
    for (Tensor* t : checkpoint_tensors(*c)) out.push_back(t);
  return out;
}

void save_checkpoint(Module& module, const std::string& path, int version) {
  if (version != 0 && version != 1)
    throw std::runtime_error("checkpoint: unknown format version " +
                             std::to_string(version));
  const std::vector<Tensor*> tensors = checkpoint_tensors(module);
  io::ByteWriter w;
  if (version == 0) w.u64(kCheckpointMagicV0);
  w.u64(tensors.size());
  for (Tensor* t : tensors) w.tensor(*t);
  if (version == 0)
    io::write_file(path, w.data());
  else
    io::write_envelope(path, kCheckpointMagicV1, {kCheckpointVersion},
                       w.data());
}

void load_checkpoint(Module& module, const std::string& path) {
  const std::vector<Tensor*> tensors = checkpoint_tensors(module);
  const std::string what = "checkpoint " + path;
  const std::vector<char> file = io::read_file(path, what);
  io::ByteReader legacy(file.data(), file.size(), what);
  if (legacy.u64() == kCheckpointMagicV0) return decode(legacy, tensors);
  io::Envelope env =
      io::read_envelope(file, {kCheckpointMagicV1}, {kCheckpointVersion}, what);
  decode(env.payload, tensors);
}

}  // namespace pf::nn
