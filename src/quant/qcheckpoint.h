// Quantized-model and delta artifacts ("PUFFCKP3"): a payload in
// io/artifact.h's checksummed envelope, header bytes {3, artifact kind}.
//
// Quantized-model payload: count | per tensor (nn::checkpoint_tensors
// order):
//   entry kind byte (0 fp32, 1 int8, 2 bf16) | rank | dims |
//   fp32: float data
//   int8: one scale per row (f32, rows = dims[0]), codes (int8)
//   bf16: codes (u16)
// A quantized entry's dims are the weight's own shape, before or after
// commit. Version 2 stored low-rank V factors transposed; its files are
// rejected, since a square V would otherwise load silently transposed.
//
// Delta payload: count | per tensor:
//   entry kind byte (0 dense, 3 delta-lowrank) | rank | dims |
//   dense: float residual
//   lowrank: factor rank | U floats (rows*rank) | V floats (cols*rank)
//
// Loads verify the framing and every entry's kind and shape before touching
// the module; a load that throws leaves it untouched.
#pragma once

#include <string>

#include "quant/delta.h"

namespace pf::quant {

inline constexpr uint64_t kQCheckpointMagic = 0x50554646434B5033ull;
inline constexpr uint8_t kQCheckpointVersion = 3;
inline constexpr uint8_t kArtifactQuantized = 0;
inline constexpr uint8_t kArtifactDelta = 1;

// Saves the module: params with a set quant slot are written as codes +
// scales, everything else (biases, norms, buffers, non-quantized weights)
// as fp32. Works before or after quant::commit.
void save_quantized(nn::Module& m, const std::string& path);

// Loads a quantized checkpoint into a structurally identical module: fp32
// entries load in place (clearing any quant slot), quantized entries set the
// params' slots and release the fp32 masters (the module comes back
// serving-only, exactly as after quant::commit).
void load_quantized(nn::Module& m, const std::string& path);

void save_delta(const DeltaModel& d, const std::string& path);
DeltaModel load_delta(const std::string& path);

// On-disk artifact size (what the models-per-GB accounting charges).
int64_t file_bytes(const std::string& path);

}  // namespace pf::quant
