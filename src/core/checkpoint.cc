#include "core/checkpoint.h"

#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "io/artifact.h"
#include "nn/serialize.h"
#include "trace/trace.h"

namespace pf::core {

namespace {

constexpr uint64_t kTrainStateMagicV1 = 0x5055464654535431ull;  // read only
constexpr uint64_t kTrainStateMagicV2 = 0x5055464654535432ull;

void put(io::ByteWriter& w, int64_t v) { w.u64(static_cast<uint64_t>(v)); }
void put(io::ByteWriter& w, const Tensor& t) { w.tensor(t); }
void put(io::ByteWriter& w, const Rng::State& st) {
  for (uint64_t x : st.s) w.u64(x);
  w.u64(st.has_cached ? 1 : 0);
  w.f64(st.cached);
}
template <class T>
void put(io::ByteWriter& w, const std::vector<T>& v) {
  w.u64(v.size());
  for (const T& x : v) put(w, x);
}

void get(io::ByteReader& r, int64_t& v) { v = static_cast<int64_t>(r.u64()); }
void get(io::ByteReader& r, Tensor& t) { t = r.tensor(); }
void get(io::ByteReader& r, Rng::State& st) {
  for (uint64_t& x : st.s) x = r.u64();
  st.has_cached = r.flag();
  st.cached = r.f64();
}
// Every element takes at least one u64 word, which bounds the count.
template <class T>
void get(io::ByteReader& r, std::vector<T>& v) {
  v.resize(r.count(sizeof(uint64_t)));
  for (T& x : v) get(r, x);
}

}  // namespace

uint64_t hash_model(nn::Module& model) {
  // FNV-1a of each tensor's bytes, chained so tensor boundaries count.
  uint64_t h = 0xCBF29CE484222325ull;
  for (const Tensor* t : nn::checkpoint_tensors(model)) {
    h ^= io::fnv1a(reinterpret_cast<const char*>(t->data()),
                   static_cast<size_t>(t->numel()) * sizeof(float));
    h *= 0x100000001B3ull;
  }
  return h;
}

void capture_optimizer(optim::Optimizer& opt, TrainState& st) {
  st.opt_scalars = opt.state_scalars();
  st.opt_tensors.clear();
  for (Tensor* t : opt.state_tensors()) {
    // Deep copy: the optimizer keeps mutating its buffers after the
    // snapshot is taken.
    Tensor copy = Tensor::uninit(t->shape());
    std::memcpy(copy.data(), std::as_const(*t).data(),
                static_cast<size_t>(t->numel()) * sizeof(float));
    st.opt_tensors.push_back(std::move(copy));
  }
}

void restore_optimizer(optim::Optimizer& opt, const TrainState& st) {
  std::vector<Tensor*> slots = opt.state_tensors();
  if (slots.size() != st.opt_tensors.size())
    throw std::runtime_error(
        "train state: optimizer slot count mismatch (snapshot " +
        std::to_string(st.opt_tensors.size()) + ", optimizer " +
        std::to_string(slots.size()) + ") -- resuming with a different "
        "optimizer configuration than the one that produced the snapshot");
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i]->shape() != st.opt_tensors[i].shape())
      throw std::runtime_error("train state: optimizer slot shape mismatch");
    std::memcpy(slots[i]->data(), std::as_const(st.opt_tensors[i]).data(),
                static_cast<size_t>(slots[i]->numel()) * sizeof(float));
  }
  opt.set_state_scalars(st.opt_scalars);
}

void save_train_state(const TrainState& st, const std::string& path) {
  io::ByteWriter w;
  w.u64(static_cast<uint64_t>(st.next_epoch));
  w.u64(static_cast<uint64_t>(st.global_step));
  w.u64(st.low_rank_phase ? 1 : 0);
  w.f64(st.svd_seconds);
  w.f64(st.cumulative_seconds);
  for (uint64_t x : st.policy) w.u64(x);
  w.u64(st.model_hash);
  put(w, st.rng);
  put(w, st.worker_rngs);
  put(w, st.opt_scalars);
  put(w, st.opt_tensors);
  // v2 tail: moving per-layer ranks + stateful-reducer buffers.
  put(w, st.layer_ranks);
  put(w, st.reducer.scalars);
  put(w, st.reducer.tensors);
  io::write_envelope(path, kTrainStateMagicV2, {}, w.data());
}

TrainState load_train_state(const std::string& path) {
  const std::string what = "train state " + path;
  const std::vector<char> file = io::read_file(path, what);
  io::Envelope env = io::read_envelope(
      file, {kTrainStateMagicV1, kTrainStateMagicV2}, {}, what);
  io::ByteReader& r = env.payload;
  const bool v1 = env.magic == kTrainStateMagicV1;
  TrainState st;
  st.next_epoch = static_cast<int64_t>(r.u64());
  st.global_step = static_cast<int64_t>(r.u64());
  st.low_rank_phase = r.flag();
  st.svd_seconds = r.f64();
  st.cumulative_seconds = r.f64();
  // v1 wrote 3 policy words; the 4-word layouts of the legacy kinds are
  // their 3-word layouts zero-extended, so reading 3 + leaving word 3 at 0
  // decodes identically.
  const size_t n_policy_words = v1 ? 3 : 4;
  for (size_t i = 0; i < n_policy_words; ++i) st.policy[i] = r.u64();
  if (v1 && st.policy[0] >= 2)
    r.fail("v1 snapshot with policy kind word " +
           std::to_string(st.policy[0]) + ", which no v1 writer produced");
  st.model_hash = r.u64();
  get(r, st.rng);
  get(r, st.worker_rngs);
  get(r, st.opt_scalars);
  get(r, st.opt_tensors);
  if (!v1) {
    get(r, st.layer_ranks);
    get(r, st.reducer.scalars);
    get(r, st.reducer.tensors);
  }
  r.expect_end();
  return st;
}

SnapshotPaths snapshot_paths(const std::string& dir) {
  return {dir + "/model.ckpt", dir + "/state.ckpt"};
}

bool snapshot_exists(const std::string& dir) {
  const SnapshotPaths p = snapshot_paths(dir);
  return std::filesystem::exists(p.model) && std::filesystem::exists(p.state);
}

void save_snapshot(nn::Module& model, TrainState st, const std::string& dir) {
  PF_TRACE_SCOPE_C("ckpt.save", st.next_epoch);
  std::filesystem::create_directories(dir);
  const SnapshotPaths p = snapshot_paths(dir);
  st.model_hash = hash_model(model);
  nn::save_checkpoint(model, p.model);
  save_train_state(st, p.state);
}

TrainState load_snapshot(nn::Module& model, const std::string& dir) {
  PF_TRACE_SCOPE("ckpt.load");
  const SnapshotPaths p = snapshot_paths(dir);
  TrainState st = load_train_state(p.state);
  nn::load_checkpoint(model, p.model);
  if (hash_model(model) != st.model_hash)
    throw std::runtime_error(
        "train state: torn snapshot in " + dir +
        " (weights and state are from different epochs -- the writer "
        "crashed between the two files); restart from scratch or an older "
        "snapshot");
  return st;
}

}  // namespace pf::core
