// Weight checkpoints: every parameter and buffer of a module tree, with
// per-tensor shapes so mismatched architectures fail loudly instead of
// loading garbage -- the usual failure mode when checkpointing a vanilla
// model and loading it into a hybrid.
//
// Payload: count u64 | per tensor (checkpoint_tensors order):
//   rank u64 | dims u64... | float data
// framed in io/artifact.h's checksummed envelope ("PUFFCKP2", header byte
// {1}). The unframed v0 format ("PUFFCKP1") is retired: loading one throws.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "io/artifact.h"
#include "nn/module.h"

namespace pf::nn {

// On-disk magic and format version byte.
inline constexpr uint64_t kCheckpointMagicV1 = 0x50554646434B5032ull;
inline constexpr uint8_t kCheckpointVersion = 1;

// Every parameter and buffer, depth-first with params before buffers per
// module: the order checkpoints store them in.
std::vector<Tensor*> checkpoint_tensors(Module& module);

// Writes every parameter and buffer (checkpoint_tensors order) to `path`.
// Throws std::runtime_error on I/O failure.
void save_checkpoint(Module& module, const std::string& path);

// Chained FNV-1a over every checkpoint tensor's float bytes
// (checkpoint_tensors order, tensor boundaries counted): the content hash
// training snapshots stamp to detect a torn weights/state pair.
uint64_t checkpoint_hash(Module& module);

// Loads a checkpoint written by save_checkpoint into a
// structurally identical module tree. Throws std::runtime_error on I/O
// failure, magic / version / checksum / shape / count mismatch; the module
// is only written once the whole file has been validated against it.
// `verify`, when given, runs after that validation and before the write,
// with the file's checkpoint_hash; if it throws, the module is untouched.
void load_checkpoint(Module& module, const std::string& path,
                     const std::function<void(uint64_t)>& verify = {});

}  // namespace pf::nn
