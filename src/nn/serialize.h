// Weight checkpoints: every parameter and buffer of a module tree, with
// per-tensor shapes so mismatched architectures fail loudly instead of
// loading garbage -- the usual failure mode when checkpointing a vanilla
// model and loading it into a hybrid.
//
// Payload: count u64 | per tensor (checkpoint_tensors order):
//   rank u64 | dims u64... | float data
//   v1 ("PUFFCKP2", what save_checkpoint writes): the payload in
//     io/artifact.h's checksummed envelope, header byte {1}.
//   v0 ("PUFFCKP1"): magic | payload, unframed (legacy, still read).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/artifact.h"
#include "nn/module.h"

namespace pf::nn {

// On-disk magics (exposed so tests can craft version-0 files).
inline constexpr uint64_t kCheckpointMagicV0 = 0x50554646434B5031ull;
inline constexpr uint64_t kCheckpointMagicV1 = 0x50554646434B5032ull;
inline constexpr uint8_t kCheckpointVersion = 1;

// Every parameter and buffer, depth-first with params before buffers per
// module: the order checkpoints store them in.
std::vector<Tensor*> checkpoint_tensors(Module& module);

// Writes every parameter and buffer (checkpoint_tensors order) to `path`.
// `version` selects the on-disk format (1 = checksummed, 0 = legacy).
// Throws std::runtime_error on I/O failure or unknown version.
void save_checkpoint(Module& module, const std::string& path,
                     int version = kCheckpointVersion);

// Loads a checkpoint written by save_checkpoint (either version) into a
// structurally identical module tree. Throws std::runtime_error on I/O
// failure, magic / version / checksum / shape / count mismatch; the module
// is only written once the whole file has been validated against it.
void load_checkpoint(Module& module, const std::string& path);

// Older spellings of the io/artifact.h helpers.
using io::atomic_write;
using io::fnv1a;

}  // namespace pf::nn
