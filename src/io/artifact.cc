#include "io/artifact.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "fault/fault.h"

namespace pf::io {

namespace {

// Every artifact byte goes through here: the fault hook lets tests crash a
// write at an exact byte offset (simulated kill -9).
void write_bytes(std::ofstream& os, const void* p, size_t n) {
  if (n == 0) return;
  fault::on_write_bytes(static_cast<int64_t>(n));
  os.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
}

}  // namespace

uint64_t fnv1a(const char* p, size_t n) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 0x100000001B3ull;
  }
  return h;
}

void atomic_write(const std::string& path,
                  const std::function<void(std::ofstream&)>& fill) {
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("artifact: cannot open " + tmp);
    fill(os);
    os.flush();
    if (!os) throw std::runtime_error("artifact: write failed: " + tmp);
  } catch (...) {
    std::remove(tmp.c_str());  // never leave half-written temp files behind
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("artifact: rename to " + path + " failed");
  }
}

void write_envelope(const std::string& path, uint64_t magic,
                    std::initializer_list<uint8_t> header,
                    const std::vector<char>& payload) {
  const uint64_t checksum = fnv1a(payload.data(), payload.size());
  const uint64_t length = payload.size();
  atomic_write(path, [&](std::ofstream& os) {
    write_bytes(os, &magic, sizeof(magic));
    write_bytes(os, header.begin(), header.size());
    write_bytes(os, &checksum, sizeof(checksum));
    write_bytes(os, &length, sizeof(length));
    write_bytes(os, payload.data(), payload.size());
  });
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  atomic_write(path, [&](std::ofstream& os) {
    write_bytes(os, bytes.data(), bytes.size());
  });
}

void ByteWriter::bytes(const void* p, size_t n) {
  if (n == 0) return;
  const size_t at = buf_.size();
  buf_.resize(at + n);
  std::memcpy(buf_.data() + at, p, n);
}

void ByteWriter::shape(const Shape& s) {
  u64(s.size());
  for (int64_t d : s) u64(static_cast<uint64_t>(d));
}

void ByteWriter::tensor(const Tensor& t) {
  shape(t.shape());
  bytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
}

void ByteReader::fail(const std::string& msg) const {
  throw std::runtime_error(what_ + ": " + msg);
}

const char* ByteReader::bytes(size_t n) {
  if (n > left_)
    fail("truncated: " + std::to_string(n) + " bytes wanted, " +
         std::to_string(left_) + " left");
  p_ += n;
  left_ -= n;
  return p_ - n;
}

void ByteReader::bytes(void* dst, size_t n) {
  const char* src = bytes(n);
  if (n) std::memcpy(dst, src, n);
}

bool ByteReader::flag() {
  const uint64_t v = u64();
  if (v > 1) fail("flag word " + std::to_string(v) + " is not 0 or 1");
  return v != 0;
}

size_t ByteReader::count(size_t min_elem_bytes) {
  const uint64_t n = u64();
  if (n > left_ / min_elem_bytes)
    fail("count " + std::to_string(n) + " exceeds the bytes left");
  return static_cast<size_t>(n);
}

Shape ByteReader::shape() {
  const uint64_t rank = u64();
  if (rank > kMaxRank) fail("implausible rank " + std::to_string(rank));
  Shape s(rank);
  int64_t numel = 1;
  for (int64_t& d : s) {
    d = static_cast<int64_t>(u64());
    if (d < 0) fail("negative dim " + std::to_string(d));
    if (__builtin_mul_overflow(numel, d, &numel)) fail("numel overflows");
  }
  return s;
}

Tensor ByteReader::floats(Shape s) {
  const auto numel = static_cast<uint64_t>(shape_numel(s));
  if (numel > left_ / sizeof(float))
    fail("tensor " + shape_str(s) + " exceeds the bytes left");
  Tensor t = Tensor::uninit(std::move(s));
  bytes(t.data(), numel * sizeof(float));
  return t;
}

void ByteReader::expect_end() const {
  if (left_ != 0) fail(std::to_string(left_) + " trailing bytes");
}

std::vector<char> read_file(const std::string& path,
                            const std::string& what) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = is ? std::streamoff(is.tellg()) : -1;
  if (size < 0) throw std::runtime_error(what + ": cannot open");
  std::vector<char> file(static_cast<size_t>(size));
  if (!is.seekg(0).read(file.data(), size))
    throw std::runtime_error(what + ": read failed");
  return file;
}

Envelope read_envelope(const std::vector<char>& file,
                       std::initializer_list<uint64_t> magics,
                       std::initializer_list<uint8_t> header,
                       const std::string& what) {
  ByteReader in(file.data(), file.size(), what);
  const uint64_t magic = in.u64();
  if (std::find(magics.begin(), magics.end(), magic) == magics.end())
    in.fail("bad magic");
  for (const uint8_t want : header)
    if (in.u8() != want)
      in.fail("unsupported format version or wrong artifact kind");
  const uint64_t checksum = in.u64();
  const uint64_t length = in.u64();
  if (length != in.left())
    in.fail("payload length " + std::to_string(length) + ", but " +
            std::to_string(in.left()) + " bytes follow");
  const char* payload = in.bytes(length);
  if (fnv1a(payload, length) != checksum)
    in.fail("checksum mismatch (corrupt or truncated artifact)");
  return {magic, ByteReader(payload, length, what)};
}

}  // namespace pf::io
