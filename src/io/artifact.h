// The framing, byte codec and crash-safe write behind every on-disk artifact
// (nn/serialize.h, core/checkpoint.h, quant/qcheckpoint.h; DESIGN.md §9
// lists the magics). Those files define only their payloads; a framed
// artifact is
//
//   magic u64 | fixed header bytes | FNV-1a(payload) u64 | length u64 | payload
//
// with host-endian integers. Readers are total: ByteReader rejects a count,
// rank, dim or length the bytes left cannot back before allocating, and
// every error is a std::runtime_error, so a file decodes exactly or throws.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace pf::io {

uint64_t fnv1a(const char* p, size_t n);

// `fill` writes the complete contents to `<path>.tmp`, which is then renamed
// over `path` (atomic on POSIX). On any failure the temp file is removed and
// `path` is untouched, so a crash mid-write -- real or injected via
// fault::ScopedWriteCrash -- never destroys the previous good file.
void atomic_write(const std::string& path,
                  const std::function<void(std::ofstream&)>& fill);

// A framed artifact, or unframed bytes (the v0 checkpoint), written with
// atomic_write; every field passes through fault::on_write_bytes.
void write_envelope(const std::string& path, uint64_t magic,
                    std::initializer_list<uint8_t> header,
                    const std::vector<char>& payload);
void write_file(const std::string& path, const std::vector<char>& bytes);

class ByteWriter {
 public:
  void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u64(uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void bytes(const void* p, size_t n);
  void shape(const Shape& s);    // rank | dims
  void tensor(const Tensor& t);  // shape | float data
  const std::vector<char>& data() const { return buf_; }

 private:
  std::vector<char> buf_;
};

// Bounds-checked cursor over bytes it does not own. Errors are prefixed
// with `what` (e.g. "checkpoint <path>").
class ByteReader {
 public:
  static constexpr uint64_t kMaxRank = 16;

  ByteReader(const char* p, size_t n, std::string what)
      : p_(p), left_(n), what_(std::move(what)) {}

  uint8_t u8() { return static_cast<uint8_t>(*bytes(1)); }
  uint64_t u64() { uint64_t v; bytes(&v, sizeof(v)); return v; }
  double f64() { double v; bytes(&v, sizeof(v)); return v; }
  bool flag();  // a u64 that must be 0 or 1
  // A u64 count, rejected unless `count * min_elem_bytes` bytes are left.
  size_t count(size_t min_elem_bytes);
  const char* bytes(size_t n);  // points into the underlying bytes
  void bytes(void* dst, size_t n);
  Shape shape();  // rank <= kMaxRank, dims >= 0, numel fits int64
  Tensor floats(Shape s);
  Tensor tensor() { return floats(shape()); }

  size_t left() const { return left_; }
  void expect_end() const;  // rejects trailing bytes
  [[noreturn]] void fail(const std::string& msg) const;

 private:
  const char* p_;
  size_t left_;
  std::string what_;
};

// The whole file, read once with its size known.
std::vector<char> read_file(const std::string& path, const std::string& what);

struct Envelope {
  uint64_t magic;
  ByteReader payload;  // views the `file` passed to read_envelope
};

// Checks that the magic is one of `magics`, the header bytes equal
// `header`, the length equals the bytes after it and the checksum matches.
Envelope read_envelope(const std::vector<char>& file,
                       std::initializer_list<uint64_t> magics,
                       std::initializer_list<uint8_t> header,
                       const std::string& what);
Envelope read_envelope(std::vector<char>&&, std::initializer_list<uint64_t>,
                       std::initializer_list<uint8_t>,
                       const std::string&) = delete;

}  // namespace pf::io
