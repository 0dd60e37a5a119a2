#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "runtime/buffer_pool.h"

namespace pf {

namespace {

[[noreturn]] void fail(const std::string& msg) { throw std::runtime_error(msg); }

void check(bool cond, const std::string& msg) {
  if (!cond) fail(msg);
}

// Row-major strides for a shape.
std::vector<int64_t> strides_of(const Shape& shape) {
  std::vector<int64_t> s(shape.size());
  int64_t acc = 1;
  for (int64_t i = static_cast<int64_t>(shape.size()) - 1; i >= 0; --i) {
    s[static_cast<size_t>(i)] = acc;
    acc *= shape[static_cast<size_t>(i)];
  }
  return s;
}

}  // namespace

namespace detail {

Storage::~Storage() {
  runtime::BufferPool::instance().release(data, capacity);
}

std::shared_ptr<Storage> alloc_storage(int64_t numel) {
  if (numel <= 0) return nullptr;
  int64_t cap = 0;
  float* p = runtime::BufferPool::instance().acquire(numel, &cap);
  return std::make_shared<Storage>(p, cap);
}

}  // namespace detail

int64_t shape_numel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  numel_ = shape_numel(shape_);
  storage_ = detail::alloc_storage(numel_);
  if (storage_) std::memset(storage_->data, 0, static_cast<size_t>(numel_) * sizeof(float));
}

Tensor::Tensor(Shape shape, float fill) : shape_(std::move(shape)) {
  numel_ = shape_numel(shape_);
  storage_ = detail::alloc_storage(numel_);
  if (storage_) std::fill_n(storage_->data, numel_, fill);
}

Tensor::Tensor(Shape shape, std::vector<float> data) : shape_(std::move(shape)) {
  check(static_cast<int64_t>(data.size()) == shape_numel(shape_),
        "Tensor: data size does not match shape " + shape_str(shape_));
  numel_ = static_cast<int64_t>(data.size());
  storage_ = detail::alloc_storage(numel_);
  if (storage_)
    std::memcpy(storage_->data, data.data(),
                static_cast<size_t>(numel_) * sizeof(float));
}

Tensor Tensor::uninit(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = shape_numel(t.shape_);
  t.storage_ = detail::alloc_storage(t.numel_);
  return t;
}

Tensor Tensor::arange(int64_t n) {
  Tensor t = uninit(Shape{n});
  float* p = t.data();
  for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(i);
  return t;
}

Tensor Tensor::from_vector(std::vector<float> v) {
  const int64_t n = static_cast<int64_t>(v.size());
  return Tensor(Shape{n}, std::move(v));
}

void Tensor::unshare() {
  auto fresh = detail::alloc_storage(numel_);
  if (fresh)
    std::memcpy(fresh->data, storage_->data + offset_,
                static_cast<size_t>(numel_) * sizeof(float));
  storage_ = std::move(fresh);
  offset_ = 0;
  runtime::BufferPool::instance().note_cow_unshare();
}

int64_t Tensor::size(int64_t d) const {
  if (d < 0) d += dim();
  check(d >= 0 && d < dim(), "Tensor::size: dim out of range");
  return shape_[static_cast<size_t>(d)];
}

float& Tensor::at(std::initializer_list<int64_t> idx) {
  const auto s = strides_of(shape_);
  int64_t off = 0;
  size_t k = 0;
  for (int64_t i : idx) off += i * s[k++];
  return (*this)[off];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  return const_cast<Tensor*>(this)->at(idx);
}

Tensor Tensor::reshape(Shape new_shape) const {
  int64_t known = 1;
  int64_t infer = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      check(infer == -1, "reshape: at most one -1 dim");
      infer = static_cast<int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer >= 0) {
    check(known != 0 && numel() % known == 0, "reshape: cannot infer dim");
    new_shape[static_cast<size_t>(infer)] = numel() / known;
  }
  check(shape_numel(new_shape) == numel(),
        "reshape: numel mismatch " + shape_str(shape_) + " -> " +
            shape_str(new_shape));
  // Zero-copy: every Tensor is a contiguous window, so a renumbering of the
  // same elements aliases the same storage.
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.storage_ = storage_;
  out.offset_ = offset_;
  out.numel_ = numel_;
  return out;
}

Tensor Tensor::flatten() const { return reshape(Shape{numel()}); }

Tensor Tensor::squeeze() const {
  Shape s;
  for (int64_t d : shape_)
    if (d != 1) s.push_back(d);
  return reshape(std::move(s));
}

Tensor Tensor::narrow(int64_t start, int64_t len) const {
  check(dim() >= 1, "narrow: rank-0 tensor");
  check(start >= 0 && len >= 0 && start + len <= shape_[0],
        "narrow: out of range");
  const int64_t row = shape_[0] == 0 ? 0 : numel_ / shape_[0];
  Tensor out;
  out.shape_ = shape_;
  out.shape_[0] = len;
  out.numel_ = len * row;
  out.offset_ = offset_ + start * row;
  out.storage_ = out.numel_ > 0 ? storage_ : nullptr;
  if (out.numel_ == 0) out.offset_ = 0;
  return out;
}

Tensor Tensor::transpose(const std::vector<int64_t>& perm) const {
  check(static_cast<int64_t>(perm.size()) == dim(),
        "transpose: perm size mismatch");
  Shape new_shape(perm.size());
  for (size_t i = 0; i < perm.size(); ++i)
    new_shape[i] = shape_[static_cast<size_t>(perm[i])];
  Tensor out = uninit(new_shape);
  const auto in_strides = strides_of(shape_);
  const auto out_strides = strides_of(new_shape);
  const int64_t n = numel();
  const int64_t nd = dim();
  const float* src = data();
  float* dst = out.data();
  std::vector<int64_t> idx(static_cast<size_t>(nd), 0);
  for (int64_t flat = 0; flat < n; ++flat) {
    // idx holds the multi-index in the *output* layout.
    int64_t s = 0;
    for (int64_t d = 0; d < nd; ++d)
      s += idx[static_cast<size_t>(d)] *
           in_strides[static_cast<size_t>(perm[static_cast<size_t>(d)])];
    dst[flat] = src[s];
    // Increment multi-index.
    for (int64_t d = nd - 1; d >= 0; --d) {
      if (++idx[static_cast<size_t>(d)] < new_shape[static_cast<size_t>(d)])
        break;
      idx[static_cast<size_t>(d)] = 0;
    }
  }
  return out;
}

Tensor Tensor::t() const {
  check(dim() == 2, "t(): tensor must be 2-D");
  const int64_t r = shape_[0], c = shape_[1];
  Tensor out = uninit(Shape{c, r});
  const float* src = data();
  float* dst = out.data();
  // 16x16 tiles, each written row by row: a walk over whole rows of the
  // source writes floats r apart, which at power-of-two r thrashes a few
  // cache sets (a 256x1024 transpose took ~1 ms, tiled ~0.15 ms).
  constexpr int64_t kTile = 16;
  for (int64_t i0 = 0; i0 < r; i0 += kTile)
    for (int64_t j0 = 0; j0 < c; j0 += kTile) {
      const int64_t i1 = std::min(r, i0 + kTile), j1 = std::min(c, j0 + kTile);
      for (int64_t j = j0; j < j1; ++j)
        for (int64_t i = i0; i < i1; ++i) dst[j * r + i] = src[i * c + j];
    }
  return out;
}

Tensor& Tensor::fill(float v) {
  if (empty()) return *this;
  // Every element is overwritten, so a shared buffer can be replaced by a
  // fresh one without copying the old contents.
  if (storage_ && storage_.use_count() > 1) {
    storage_ = detail::alloc_storage(numel_);
    offset_ = 0;
  }
  std::fill_n(storage_->data + offset_, numel_, v);
  return *this;
}

Tensor& Tensor::add_(const Tensor& other, float alpha) {
  check(same_shape(other), "add_: shape mismatch " + shape_str(shape_) +
                               " vs " + shape_str(other.shape_));
  const float* src = other.data();
  float* dst = data();  // COW before the loop, not per element
  for (int64_t i = 0; i < numel_; ++i) dst[i] += alpha * src[i];
  return *this;
}

Tensor& Tensor::mul_(float s) {
  float* dst = data();
  for (int64_t i = 0; i < numel_; ++i) dst[i] *= s;
  return *this;
}

Tensor& Tensor::apply_(const std::function<float(float)>& f) {
  float* dst = data();
  for (int64_t i = 0; i < numel_; ++i) dst[i] = f(dst[i]);
  return *this;
}

Tensor& Tensor::copy_from(const Tensor& src) {
  if (this == &src) return *this;
  if (src.empty()) {
    *this = src;
    return *this;
  }
  if (!storage_ || storage_.use_count() > 1 || numel_ != src.numel_) {
    storage_ = detail::alloc_storage(src.numel_);
    offset_ = 0;
    numel_ = src.numel_;
  }
  shape_ = src.shape_;
  std::memcpy(storage_->data + offset_, src.data(),
              static_cast<size_t>(numel_) * sizeof(float));
  return *this;
}

float Tensor::sum() const {
  const float* p = data();
  double acc = 0;
  for (int64_t i = 0; i < numel_; ++i) acc += p[i];
  return static_cast<float>(acc);
}

float Tensor::mean() const {
  check(!empty(), "mean of empty tensor");
  return sum() / static_cast<float>(numel_);
}

float Tensor::min() const {
  check(!empty(), "min of empty tensor");
  const float* p = data();
  return *std::min_element(p, p + numel_);
}

float Tensor::max() const {
  check(!empty(), "max of empty tensor");
  const float* p = data();
  return *std::max_element(p, p + numel_);
}

float Tensor::abs_max() const {
  const float* p = data();
  float m = 0;
  for (int64_t i = 0; i < numel_; ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

float Tensor::norm() const {
  const float* p = data();
  double acc = 0;
  for (int64_t i = 0; i < numel_; ++i)
    acc += static_cast<double>(p[i]) * p[i];
  return static_cast<float>(std::sqrt(acc));
}

int64_t Tensor::argmax() const {
  check(!empty(), "argmax of empty tensor");
  const float* p = data();
  return static_cast<int64_t>(std::max_element(p, p + numel_) - p);
}

Shape broadcast_shape(const Shape& a, const Shape& b) {
  const size_t n = std::max(a.size(), b.size());
  Shape out(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t da = i < n - a.size() ? 1 : a[i - (n - a.size())];
    const int64_t db = i < n - b.size() ? 1 : b[i - (n - b.size())];
    check(da == db || da == 1 || db == 1,
          "broadcast: incompatible shapes " + shape_str(a) + " vs " +
              shape_str(b));
    out[i] = std::max(da, db);
  }
  return out;
}

namespace {

template <typename F>
Tensor binary_op(const Tensor& a, const Tensor& b, F f) {
  if (a.shape() == b.shape()) {  // fast path
    Tensor out = Tensor::uninit(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    const int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
    return out;
  }
  const Shape& as = a.shape();
  const Shape& bs = b.shape();
  if (bs.size() <= as.size() &&
      std::equal(bs.begin(), bs.end(), as.end() - std::ssize(bs))) {
    // b repeats along a's leading dims (a bias row over a batch): the same
    // f per element as the strided walk below, without its per-element
    // index arithmetic.
    Tensor out = Tensor::uninit(as);
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    const int64_t n = b.numel(), rows = n > 0 ? a.numel() / n : 0;
    for (int64_t r = 0; r < rows; ++r)
      for (int64_t j = 0; j < n; ++j) po[r * n + j] = f(pa[r * n + j], pb[j]);
    return out;
  }
  const Shape os = broadcast_shape(as, bs);
  Tensor out = Tensor::uninit(os);
  const size_t nd = os.size();
  // Pad shapes on the left with 1s, compute broadcast strides (0 on size-1).
  auto padded_strides = [&](const Shape& s) {
    std::vector<int64_t> st(nd, 0);
    int64_t acc = 1;
    for (int64_t i = static_cast<int64_t>(s.size()) - 1; i >= 0; --i) {
      const size_t oi = nd - s.size() + static_cast<size_t>(i);
      st[oi] = (s[static_cast<size_t>(i)] == 1) ? 0 : acc;
      acc *= s[static_cast<size_t>(i)];
    }
    return st;
  };
  const auto sa = padded_strides(a.shape());
  const auto sb = padded_strides(b.shape());
  std::vector<int64_t> idx(nd, 0);
  const int64_t n = out.numel();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t flat = 0; flat < n; ++flat) {
    int64_t ia = 0, ib = 0;
    for (size_t d = 0; d < nd; ++d) {
      ia += idx[d] * sa[d];
      ib += idx[d] * sb[d];
    }
    po[flat] = f(pa[ia], pb[ib]);
    for (int64_t d = static_cast<int64_t>(nd) - 1; d >= 0; --d) {
      if (++idx[static_cast<size_t>(d)] < os[static_cast<size_t>(d)]) break;
      idx[static_cast<size_t>(d)] = 0;
    }
  }
  return out;
}

// Out-of-place unary map: writes f(a[i]) into a fresh (uninitialized)
// tensor, avoiding the copy-then-overwrite a COW `Tensor out = a` would do.
template <typename F>
Tensor unary_op(const Tensor& a, F f) {
  Tensor out = Tensor::uninit(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i]);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, [](float x, float y) { return x / y; });
}

Tensor operator+(const Tensor& a, const Tensor& b) { return add(a, b); }
Tensor operator-(const Tensor& a, const Tensor& b) { return sub(a, b); }
Tensor operator*(const Tensor& a, const Tensor& b) { return mul(a, b); }
Tensor operator/(const Tensor& a, const Tensor& b) { return div(a, b); }

Tensor operator*(const Tensor& a, float s) {
  return unary_op(a, [s](float v) { return v * s; });
}
Tensor operator*(float s, const Tensor& a) { return a * s; }
Tensor operator+(const Tensor& a, float s) {
  return unary_op(a, [s](float v) { return v + s; });
}
Tensor operator-(const Tensor& a) { return a * -1.0f; }

Tensor exp(const Tensor& a) {
  return unary_op(a, [](float v) { return std::exp(v); });
}
Tensor log(const Tensor& a) {
  return unary_op(a, [](float v) { return std::log(v); });
}
Tensor sqrt(const Tensor& a) {
  return unary_op(a, [](float v) { return std::sqrt(v); });
}
Tensor abs(const Tensor& a) {
  return unary_op(a, [](float v) { return std::fabs(v); });
}
Tensor pow(const Tensor& a, float p) {
  return unary_op(a, [p](float v) { return std::pow(v, p); });
}
Tensor clamp(const Tensor& a, float lo, float hi) {
  return unary_op(a, [lo, hi](float v) { return std::clamp(v, lo, hi); });
}

Tensor reduce_to_shape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  // Sum over leading extra dims first.
  Tensor cur = t;
  while (cur.dim() > static_cast<int64_t>(target.size()))
    cur = sum_axis(cur, 0, /*keepdim=*/false);
  // Then sum over broadcasted (size-1 in target) dims.
  for (int64_t d = 0; d < cur.dim(); ++d) {
    if (target[static_cast<size_t>(d)] == 1 && cur.size(d) != 1)
      cur = sum_axis(cur, d, /*keepdim=*/true);
  }
  check(cur.shape() == target, "reduce_to_shape: cannot reduce " +
                                   shape_str(t.shape()) + " to " +
                                   shape_str(target));
  return cur;
}

namespace {

// Decompose a shape around `axis` into (outer, n, inner) extents.
struct AxisSplit {
  int64_t outer, n, inner;
};

AxisSplit split_axis(const Shape& s, int64_t axis) {
  AxisSplit sp{1, s[static_cast<size_t>(axis)], 1};
  for (int64_t i = 0; i < axis; ++i) sp.outer *= s[static_cast<size_t>(i)];
  for (size_t i = static_cast<size_t>(axis) + 1; i < s.size(); ++i)
    sp.inner *= s[i];
  return sp;
}

Shape reduced_shape(const Shape& s, int64_t axis, bool keepdim) {
  Shape out = s;
  if (keepdim) {
    out[static_cast<size_t>(axis)] = 1;
  } else {
    out.erase(out.begin() + axis);
  }
  return out;
}

}  // namespace

Tensor sum_axis(const Tensor& t, int64_t axis, bool keepdim) {
  if (axis < 0) axis += t.dim();
  check(axis >= 0 && axis < t.dim(), "sum_axis: bad axis");
  const auto sp = split_axis(t.shape(), axis);
  Tensor out(reduced_shape(t.shape(), axis, keepdim));
  const float* src = t.data();
  float* dst = out.data();
  for (int64_t o = 0; o < sp.outer; ++o)
    for (int64_t k = 0; k < sp.n; ++k) {
      const float* row = src + (o * sp.n + k) * sp.inner;
      float* orow = dst + o * sp.inner;
      for (int64_t i = 0; i < sp.inner; ++i) orow[i] += row[i];
    }
  return out;
}

Tensor mean_axis(const Tensor& t, int64_t axis, bool keepdim) {
  if (axis < 0) axis += t.dim();
  Tensor out = sum_axis(t, axis, keepdim);
  out.mul_(1.0f / static_cast<float>(t.size(axis)));
  return out;
}

Tensor max_axis(const Tensor& t, int64_t axis, bool keepdim) {
  if (axis < 0) axis += t.dim();
  check(axis >= 0 && axis < t.dim(), "max_axis: bad axis");
  const auto sp = split_axis(t.shape(), axis);
  Tensor out(reduced_shape(t.shape(), axis, keepdim),
             -std::numeric_limits<float>::infinity());
  const float* src = t.data();
  float* dst = out.data();
  for (int64_t o = 0; o < sp.outer; ++o)
    for (int64_t k = 0; k < sp.n; ++k) {
      const float* row = src + (o * sp.n + k) * sp.inner;
      float* orow = dst + o * sp.inner;
      for (int64_t i = 0; i < sp.inner; ++i)
        orow[i] = std::max(orow[i], row[i]);
    }
  return out;
}

std::vector<int64_t> argmax_rows(const Tensor& t) {
  check(t.dim() == 2, "argmax_rows: 2-D tensor required");
  const int64_t rows = t.size(0), cols = t.size(1);
  std::vector<int64_t> out(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = t.data() + r * cols;
    out[static_cast<size_t>(r)] = static_cast<int64_t>(
        std::max_element(row, row + cols) - row);
  }
  return out;
}

Tensor concat(const std::vector<Tensor>& parts, int64_t axis) {
  check(!parts.empty(), "concat: no inputs");
  if (axis < 0) axis += parts[0].dim();
  Shape os = parts[0].shape();
  int64_t total = 0;
  for (const Tensor& p : parts) {
    check(p.dim() == parts[0].dim(), "concat: rank mismatch");
    for (int64_t d = 0; d < p.dim(); ++d)
      check(d == axis || p.size(d) == parts[0].size(d),
            "concat: shape mismatch on non-concat axis");
    total += p.size(axis);
  }
  os[static_cast<size_t>(axis)] = total;
  Tensor out = Tensor::uninit(os);
  const auto sp = split_axis(os, axis);
  float* base = out.data();
  int64_t offset = 0;
  for (const Tensor& p : parts) {
    const int64_t pn = p.size(axis);
    const float* src = p.data();
    for (int64_t o = 0; o < sp.outer; ++o) {
      float* dst = base + (o * sp.n + offset) * sp.inner;
      const float* s = src + o * pn * sp.inner;
      std::copy(s, s + pn * sp.inner, dst);
    }
    offset += pn;
  }
  return out;
}

Tensor slice(const Tensor& t, int64_t axis, int64_t start, int64_t len) {
  if (axis < 0) axis += t.dim();
  check(axis >= 0 && axis < t.dim(), "slice: bad axis");
  check(start >= 0 && start + len <= t.size(axis), "slice: out of range");
  if (axis == 0) return t.narrow(start, len);  // zero-copy view
  const auto sp = split_axis(t.shape(), axis);
  Shape os = t.shape();
  os[static_cast<size_t>(axis)] = len;
  Tensor out = Tensor::uninit(os);
  const float* base = t.data();
  float* obase = out.data();
  for (int64_t o = 0; o < sp.outer; ++o) {
    const float* src = base + (o * sp.n + start) * sp.inner;
    float* dst = obase + o * len * sp.inner;
    std::copy(src, src + len * sp.inner, dst);
  }
  return out;
}

Tensor pad_slice(const Tensor& piece, const Shape& full_shape, int64_t axis,
                 int64_t start) {
  int64_t ax = axis < 0 ? axis + static_cast<int64_t>(full_shape.size()) : axis;
  Tensor out(full_shape);
  const auto sp = split_axis(full_shape, ax);
  const int64_t len = piece.size(ax);
  const float* base = piece.data();
  float* obase = out.data();
  for (int64_t o = 0; o < sp.outer; ++o) {
    const float* src = base + o * len * sp.inner;
    float* dst = obase + (o * sp.n + start) * sp.inner;
    std::copy(src, src + len * sp.inner, dst);
  }
  return out;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return std::numeric_limits<float>::infinity();
  float m = 0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float diff = std::fabs(pa[i] - pb[i]);
    if (diff > atol + rtol * std::fabs(pb[i])) return false;
  }
  return true;
}

}  // namespace pf
