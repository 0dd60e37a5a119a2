// On-disk artifact guarantees, for every artifact kind the library writes or
// reads: weight checkpoints, TrainState v2, int8 and bf16 quantized
// checkpoints, and delta artifacts.
//
//   CheckpointFormat.*       the writers' bytes are pinned: each kind is
//                            written from exact weights and its FNV-1a
//                            compared with a recorded constant.
//   CheckpointTotality.*     lying length / count / rank fields throw
//                            std::runtime_error before any allocation.
//   CheckpointAllOrNothing.* a failed load leaves the module bitwise as it
//                            was.
//   ArtifactFuzz.*           seeded mutations (bit flips, truncation at
//                            every byte, lying fields with the checksum
//                            recomputed): every load either decodes
//                            exactly the bytes on disk or throws
//                            std::runtime_error.
//
// The suites run under ASan + UBSan in ctest pf_tests_fault.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "models/resnet.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "quant/qcheckpoint.h"
#include "quant/quantize.h"

namespace pf {
namespace {

using Bytes = std::vector<char>;

std::string tmp_path(const std::string& name) {
  // getpid(): the plain and sanitizer binaries run these concurrently.
  return std::string(::testing::TempDir()) + name + "." +
         std::to_string(::getpid());
}

Bytes read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(is), {});
}

void write_file(const std::string& path, const Bytes& b) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(b.data(), static_cast<std::streamsize>(b.size()));
}

// Rewrites an existing file in place, truncating only when it shrinks:
// far cheaper per fuzz mutation than recreating it.
void overwrite_file(const std::string& path, const Bytes& b) {
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.write(b.data(), static_cast<std::streamsize>(b.size()));
  }
  if (std::filesystem::file_size(path) != b.size())
    std::filesystem::resize_file(path, b.size());
}

uint64_t get_u64(const Bytes& b, size_t off) {
  uint64_t v;
  std::memcpy(&v, b.data() + off, sizeof(v));
  return v;
}

void set_u64(Bytes& b, size_t off, uint64_t v) {
  std::memcpy(b.data() + off, &v, sizeof(v));
}

void append_u64(Bytes& b, uint64_t v) {
  const size_t n = b.size();
  b.resize(n + sizeof(v));
  set_u64(b, n, v);
}

// Exact values: multiples of 1/8 in [-1, 1], no RNG and no libm.
float pattern(int64_t i, int salt) {
  return static_cast<float>((i * 7 + salt) % 17 - 8) * 0.125f;
}

Tensor pattern_tensor(Shape s, int salt) {
  Tensor t = Tensor::uninit(std::move(s));
  for (int64_t i = 0; i < t.numel(); ++i) t.data()[i] = pattern(i, salt);
  return t;
}

void set_pattern(nn::Module& m, int salt) {
  Tensor flat = m.flat_params();
  for (int64_t i = 0; i < flat.numel(); ++i) flat.data()[i] = pattern(i, salt);
  m.set_flat_params(flat);
}

// Every quantizable layer kind plus BatchNorm buffers, ~70 floats.
std::unique_ptr<nn::Sequential> tiny_net(int salt = 0) {
  Rng rng(0);
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(1, 2, 3, 1, 1, rng);
  net->emplace<nn::BatchNorm2d>(2);
  net->emplace<nn::LowRankConv2d>(2, 3, 3, 1, 1, 1, rng);
  net->emplace<nn::LowRankLinear>(3, 4, 1, rng);
  net->emplace<nn::Linear>(4, 2, rng);
  set_pattern(*net, salt);
  return net;
}

// Shapes and data of every tensor, in checkpoint order, then every param's
// quant-slot occupancy: two modules compare equal iff a load could not tell
// them apart.
Bytes module_state(nn::Module& m) {
  Bytes out;
  for (const Tensor* t : nn::checkpoint_tensors(m)) {
    for (int64_t d : t->shape()) append_u64(out, static_cast<uint64_t>(d));
    const char* p = reinterpret_cast<const char*>(t->data());
    out.insert(out.end(), p, p + t->numel() * sizeof(float));
  }
  for (const nn::Param* p : m.parameters()) out.push_back(p->quant ? 1 : 0);
  return out;
}

core::TrainState tiny_state() {
  core::TrainState st;
  st.next_epoch = 3;
  st.global_step = 17;
  st.low_rank_phase = true;
  st.svd_seconds = 0.5;
  st.cumulative_seconds = 2.25;
  st.policy = {1, 0x3FD0000000000000ull, 2, 0};
  st.model_hash = 0x0123456789ABCDEFull;
  st.rng = {{1, 2, 3, 4}, true, 0.75};
  st.worker_rngs = {{{5, 6, 7, 8}, false, 0.0}, {{9, 10, 11, 12}, true, -1.5}};
  st.opt_scalars = {7};
  st.opt_tensors.push_back(pattern_tensor(Shape{2, 3}, 1));
  st.opt_tensors.push_back(pattern_tensor(Shape{4}, 2));
  st.layer_ranks = {2, 1};
  st.reducer.scalars = {5};
  st.reducer.tensors.push_back(pattern_tensor(Shape{3, 2}, 3));
  return st;
}

quant::DeltaModel tiny_delta() {
  quant::DeltaModel d;
  quant::DeltaEntry lowrank;
  lowrank.lowrank = true;
  lowrank.shape = {4, 3};
  lowrank.u = pattern_tensor(Shape{4, 1}, 4);
  lowrank.v = pattern_tensor(Shape{3, 1}, 5);
  d.entries.push_back(std::move(lowrank));
  quant::DeltaEntry dense;
  dense.shape = {5};
  dense.dense = pattern_tensor(Shape{5}, 6);
  d.entries.push_back(std::move(dense));
  return d;
}

enum class Kind { kCkptV1, kStateV2, kInt8, kBf16, kDelta };

constexpr Kind kAllKinds[] = {Kind::kCkptV1, Kind::kStateV2, Kind::kInt8,
                              Kind::kBf16, Kind::kDelta};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCkptV1: return "ckpt_v1";
    case Kind::kStateV2: return "state_v2";
    case Kind::kInt8: return "int8";
    case Kind::kBf16: return "bf16";
    case Kind::kDelta: return "delta";
  }
  return "?";
}

// Offset of the payload checksum (the length follows it, then the
// payload).
size_t checksum_offset(Kind k) {
  switch (k) {
    case Kind::kCkptV1: return 9;  // magic | version
    case Kind::kStateV2: return 8;  // magic
    case Kind::kInt8:
    case Kind::kBf16:
    case Kind::kDelta: return 10;  // magic | version | kind
  }
  return 0;
}

// Quantizes a tiny net and commits it: the artifact a reloaded
// (serving-only) module writes back.
std::unique_ptr<nn::Sequential> quantized_net(kernels::QMode mode) {
  auto net = tiny_net();
  quant::QuantSpec spec;
  spec.mode = mode;
  spec.min_numel = 1;
  quant::quantize_module(*net, spec);
  quant::commit(*net);
  return net;
}

// Writes `m` (the module or state `k` describes) with the library writer.
void write_kind(Kind k, nn::Module* m, const core::TrainState* st,
                const quant::DeltaModel* d, const std::string& path) {
  switch (k) {
    case Kind::kCkptV1: nn::save_checkpoint(*m, path); break;
    case Kind::kStateV2: core::save_train_state(*st, path); break;
    case Kind::kInt8:
    case Kind::kBf16: quant::save_quantized(*m, path); break;
    case Kind::kDelta: quant::save_delta(*d, path); break;
  }
}

// The reference artifact of each kind, from exact weights.
Bytes make_artifact(Kind k) {
  const std::string path = tmp_path(std::string("artifact_ref_") +
                                    kind_name(k));
  std::unique_ptr<nn::Sequential> net =
      k == Kind::kInt8   ? quantized_net(kernels::QMode::kInt8)
      : k == Kind::kBf16 ? quantized_net(kernels::QMode::kBf16)
                         : tiny_net();
  const core::TrainState st = tiny_state();
  const quant::DeltaModel d = tiny_delta();
  write_kind(k, net.get(), &st, &d, path);
  Bytes out = read_file(path);
  std::remove(path.c_str());
  return out;
}

// Loads artifacts of one kind and returns what it loaded, re-encoded by the
// same writer; throws whatever the library loader throws. A module load
// that throws must leave its target bitwise untouched. The target module
// is reused across loads until one succeeds.
class Loader {
 public:
  Loader(Kind k, std::string out) : k_(k), out_(std::move(out)) {}

  Bytes operator()(const std::string& path) {
    switch (k_) {
      case Kind::kCkptV1:
      case Kind::kInt8:
      case Kind::kBf16: {
        if (!net_) {
          net_ = tiny_net(/*salt=*/5);
          before_ = module_state(*net_);
        }
        try {
          if (k_ == Kind::kInt8 || k_ == Kind::kBf16)
            quant::load_quantized(*net_, path);
          else
            nn::load_checkpoint(*net_, path);
        } catch (...) {
          EXPECT_EQ(module_state(*net_), before_)
              << "failed " << kind_name(k_) << " load modified the module";
          throw;
        }
        write_kind(k_, net_.get(), nullptr, nullptr, out_);
        net_.reset();
        break;
      }
      case Kind::kStateV2: {
        const core::TrainState st = core::load_train_state(path);
        write_kind(k_, nullptr, &st, nullptr, out_);
        break;
      }
      case Kind::kDelta: {
        const quant::DeltaModel d = quant::load_delta(path);
        write_kind(k_, nullptr, nullptr, &d, out_);
        break;
      }
    }
    Bytes re = read_file(out_);
    std::remove(out_.c_str());  // the next write then replaces no file
    return re;
  }

 private:
  Kind k_;
  std::string out_;
  std::unique_ptr<nn::Sequential> net_;
  Bytes before_;
};

// ---------------- format ----------------

TEST(CheckpointFormat, WritersEmitRecordedBytes) {
  // FNV-1a of each reference artifact, recorded when the format was
  // frozen. A change here is an on-disk format change: old files would no
  // longer load, or new files would not load in old builds.
  const std::pair<Kind, uint64_t> expected[] = {
      {Kind::kCkptV1, 44460222534434392ull},
      {Kind::kStateV2, 2377966107174230933ull},
      {Kind::kInt8, 15480472855904702108ull},
      {Kind::kBf16, 755263071706199532ull},
      {Kind::kDelta, 2466521222125487122ull},
  };
  for (const auto& [k, hash] : expected) {
    const Bytes b = make_artifact(k);
    EXPECT_EQ(io::fnv1a(b.data(), b.size()), hash)
        << kind_name(k) << " (" << b.size() << " bytes)";
  }
}

TEST(CheckpointFormat, ReferenceArtifactsRoundTrip) {
  for (Kind k : kAllKinds) {
    const std::string path = tmp_path(std::string("artifact_rt_") +
                                      kind_name(k));
    const Bytes ref = make_artifact(k);
    write_file(path, ref);
    EXPECT_EQ(Loader(k, path + ".re")(path), ref) << kind_name(k);
    std::remove(path.c_str());
  }
}

// Version 2 quantized artifacts stored low-rank V factors transposed, so a
// square V would load silently transposed: the reader refuses every
// version-2 artifact, and its error names the file's version.
TEST(CheckpointFormat, PreviousQuantizedVersionIsRejected) {
  ASSERT_EQ(quant::kQCheckpointVersion, 3);
  for (Kind k : {Kind::kInt8, Kind::kBf16, Kind::kDelta}) {
    Bytes b = make_artifact(k);
    ASSERT_EQ(b[8], 3) << kind_name(k);  // the byte after the magic
    b[8] = 2;
    const std::string path = tmp_path(std::string("artifact_v2_") +
                                      kind_name(k));
    write_file(path, b);
    try {
      (void)Loader(k, path + ".re")(path);
      ADD_FAILURE() << kind_name(k) << ": a version-2 artifact loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("format version 2, expected 3"),
                std::string::npos)
          << kind_name(k) << ": " << e.what();
    }
    std::remove(path.c_str());
  }
}

// ---------------- totality ----------------

// Overwrites the u64 at `off`; when `fresh` the checksum is recomputed so
// the lie reaches the payload parser.
void lie(Kind k, Bytes& b, size_t off, uint64_t v, bool fresh) {
  set_u64(b, off, v);
  if (!fresh) return;
  const size_t payload = checksum_offset(k) + 16;
  set_u64(b, checksum_offset(k),
          io::fnv1a(b.data() + payload, b.size() - payload));
}

void expect_runtime_error(Kind k, const Bytes& b, const char* what) {
  const std::string path = tmp_path(std::string("artifact_lie_") +
                                    kind_name(k));
  write_file(path, b);
  EXPECT_THROW((void)Loader(k, path + ".re")(path), std::runtime_error)
      << what;
  std::remove(path.c_str());
}

TEST(CheckpointTotality, LyingFieldsThrowRuntimeError) {
  constexpr uint64_t kHugeLength = 0x7FFFFFFFFFFFFFFFull;  // 2^63 - 1
  {
    Bytes b = make_artifact(Kind::kStateV2);
    lie(Kind::kStateV2, b, 16, kHugeLength, false);
    expect_runtime_error(Kind::kStateV2, b, "TrainState length 2^63-1");
  }
  // Payload offsets: 5 scalars, 4 policy words, model hash, rng (6 words).
  const size_t workers = 24 + 8 * 16;
  {
    Bytes b = make_artifact(Kind::kStateV2);
    const size_t first_tensor_rank =
        workers + 8 + 48 * tiny_state().worker_rngs.size() + 8 +
        8 * tiny_state().opt_scalars.size() + 8;
    ASSERT_EQ(get_u64(b, first_tensor_rank), 2u);
    lie(Kind::kStateV2, b, first_tensor_rank, 1ull << 40, true);
    expect_runtime_error(Kind::kStateV2, b, "TrainState tensor rank 2^40");
  }
  {
    Bytes b = make_artifact(Kind::kStateV2);
    ASSERT_EQ(get_u64(b, workers), 2u);
    lie(Kind::kStateV2, b, workers, 1ull << 62, true);
    expect_runtime_error(Kind::kStateV2, b, "TrainState worker count 2^62");
  }
  {
    Bytes b = make_artifact(Kind::kCkptV1);
    lie(Kind::kCkptV1, b, 17, kHugeLength, false);
    expect_runtime_error(Kind::kCkptV1, b, "PUFFCKP2 length 2^63-1");
  }
  {
    Bytes b = make_artifact(Kind::kInt8);
    lie(Kind::kInt8, b, 18, kHugeLength, false);
    expect_runtime_error(Kind::kInt8, b, "PUFFCKP3 length 2^63-1");
  }
}

// ---------------- all-or-nothing ----------------

std::unique_ptr<models::ResNet18Cifar> resnet(int64_t classes) {
  Rng rng(static_cast<uint64_t>(classes));
  models::ResNetCifarConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.num_classes = classes;
  return std::make_unique<models::ResNet18Cifar>(cfg, rng);
}

TEST(CheckpointAllOrNothing, MismatchedHeadLeavesModuleUntouched) {
  // A 4-class artifact loaded into a 5-class model: every tensor but the
  // classifier matches, and the classifier comes last in checkpoint order.
  auto four = resnet(4);
  const std::string path = tmp_path("artifact_all_or_nothing");

  nn::save_checkpoint(*four, path);
  auto five = resnet(5);
  const Bytes before = module_state(*five);
  EXPECT_THROW(nn::load_checkpoint(*five, path), std::runtime_error);
  EXPECT_EQ(module_state(*five), before) << "nn::load_checkpoint";

  ASSERT_GT(quant::quantize_module(*four, quant::QuantSpec{}), 0);
  quant::save_quantized(*four, path);
  EXPECT_THROW(quant::load_quantized(*five, path), std::runtime_error);
  EXPECT_EQ(module_state(*five), before) << "quant::load_quantized";
  for (nn::Param* p : five->parameters())
    EXPECT_TRUE(p->var->requires_grad) << p->name;
  std::remove(path.c_str());
}

// ---------------- fuzz ----------------

// Runs every mutation of kind `k`'s reference artifact through its loader.
// A load must throw std::runtime_error or decode exactly the bytes on disk
// (re-encoding reproduces them); a mutation that leaves the checksum stale
// must not load unless it is the original file.
void fuzz(Kind k, uint64_t seed) {
  const Bytes ref = make_artifact(k);
  const std::string path = tmp_path(std::string("artifact_fuzz_") +
                                    kind_name(k));
  const size_t cks = checksum_offset(k);
  const size_t body = cks + 16;
  Loader load(k, path + ".re");
  int64_t runs = 0, loaded = 0, failures = 0;
  write_file(path, ref);

  // `what`, `a` and `b` describe the mutation should it fail.
  auto run = [&](const Bytes& m, bool stale, const char* what, uint64_t a,
                 uint64_t b = 0) {
    ++runs;
    overwrite_file(path, m);
    std::string err;
    try {
      const Bytes re = load(path);
      ++loaded;
      if (re != m) err = "loaded state does not re-encode to the file";
      else if (stale && m != ref)
        err = "stale checksum accepted";
    } catch (const std::runtime_error&) {
      return;
    } catch (const std::exception& e) {
      err = std::string("threw non-runtime_error: ") + e.what();
    }
    if (!err.empty() && ++failures <= 5)
      ADD_FAILURE() << kind_name(k) << ": " << what << " " << a << " " << b
                    << ": " << err;
  };

  // Truncation at every byte.
  for (size_t n = 0; n < ref.size(); ++n)
    run(Bytes(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(n)),
        true, "truncated to", n);

  // Lying u64 fields at every offset past the framing, checksum recomputed
  // so the payload parser sees them; plus lying lengths.
  const uint64_t lies[] = {0,          1,          2,
                           3,          17,         1ull << 31,
                           1ull << 40, 1ull << 61, 1ull << 62,
                           0x7FFFFFFFFFFFFFFFull,  1ull << 63,
                           ~0ull};
  for (size_t off = body; off + 8 <= ref.size(); ++off) {
    const uint64_t orig = get_u64(ref, off);
    for (uint64_t v : lies) {
      Bytes m = ref;
      lie(k, m, off, v, true);
      run(m, false, "offset / u64 lie", off, v);
    }
    for (uint64_t v : {orig + 1, orig - 1}) {
      Bytes m = ref;
      lie(k, m, off, v, true);
      run(m, false, "offset / u64 lie", off, v);
    }
  }
  for (uint64_t v : lies) {
    Bytes m = ref;
    lie(k, m, cks + 8, v, false);
    run(m, true, "length lie", v);
  }

  // Seeded bit flips, half with the checksum recomputed.
  std::mt19937_64 rng(seed);
  while (runs < 10000 + static_cast<int64_t>(ref.size())) {
    Bytes m = ref;
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < flips; ++i) {
      const size_t bit = rng() % (m.size() * 8);
      m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
    }
    const bool fresh = (rng() & 1) != 0;
    if (fresh) lie(k, m, cks, 0, true);
    run(m, !fresh, "bit flips / run", static_cast<uint64_t>(flips),
        static_cast<uint64_t>(runs));
  }
  std::remove(path.c_str());
  EXPECT_GE(runs, 10000);
  EXPECT_EQ(failures, 0) << kind_name(k) << ": " << failures << " of "
                         << runs << " mutations (" << loaded << " loaded)";
}

TEST(ArtifactFuzz, CheckpointV1) { fuzz(Kind::kCkptV1, 1); }
TEST(ArtifactFuzz, TrainStateV2) { fuzz(Kind::kStateV2, 3); }
TEST(ArtifactFuzz, QuantizedInt8) { fuzz(Kind::kInt8, 5); }
TEST(ArtifactFuzz, QuantizedBf16) { fuzz(Kind::kBf16, 6); }
TEST(ArtifactFuzz, Delta) { fuzz(Kind::kDelta, 7); }

}  // namespace
}  // namespace pf
