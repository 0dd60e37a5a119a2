#include "nn/serialize.h"

#include <cstring>
#include <stdexcept>
#include <vector>

namespace pf::nn {

namespace {

constexpr uint64_t kHashBasis = 0xCBF29CE484222325ull;

// Folds one tensor's bytes into a checkpoint_hash, so boundaries count.
uint64_t hash_step(uint64_t h, const void* p, int64_t numel) {
  const size_t n = static_cast<size_t>(numel) * sizeof(float);
  return (h ^ io::fnv1a(static_cast<const char*>(p), n)) * 0x100000001B3ull;
}

// Validates the whole payload against `tensors` (and `verify`) before
// copying anything, so a load that throws leaves the module untouched.
void decode(io::ByteReader& r, const std::vector<Tensor*>& tensors,
            const std::function<void(uint64_t)>& verify) {
  const uint64_t count = r.u64();
  if (count != tensors.size())
    r.fail("tensor count mismatch (file " + std::to_string(count) +
           ", model " + std::to_string(tensors.size()) + ")");
  std::vector<const char*> data;
  data.reserve(tensors.size());
  uint64_t h = kHashBasis;
  for (Tensor* t : tensors) {
    const Shape shape = r.shape();
    if (shape != t->shape())
      r.fail("shape mismatch: file " + shape_str(shape) + " vs model " +
             shape_str(t->shape()));
    data.push_back(r.bytes(static_cast<size_t>(t->numel()) * sizeof(float)));
    if (verify) h = hash_step(h, data.back(), t->numel());
  }
  r.expect_end();
  if (verify) verify(h);
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

uint64_t checkpoint_hash(Module& module) {
  uint64_t h = kHashBasis;
  for (const Tensor* t : checkpoint_tensors(module))
    h = hash_step(h, t->data(), t->numel());
  return h;
}

void save_checkpoint(Module& module, const std::string& path) {
  const std::vector<Tensor*> tensors = checkpoint_tensors(module);
  io::ByteWriter w;
  w.u64(tensors.size());
  for (Tensor* t : tensors) w.tensor(*t);
  io::write_envelope(path, kCheckpointMagicV1, {kCheckpointVersion},
                     w.data());
}

void load_checkpoint(Module& module, const std::string& path,
                     const std::function<void(uint64_t)>& verify) {
  const std::vector<Tensor*> tensors = checkpoint_tensors(module);
  const std::string what = "checkpoint " + path;
  const std::vector<char> file = io::read_file(path, what);
  io::Envelope env =
      io::read_envelope(file, {kCheckpointMagicV1}, {kCheckpointVersion}, what);
  decode(env.payload, tensors, verify);
}

}  // namespace pf::nn
