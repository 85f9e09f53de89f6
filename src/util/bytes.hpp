// Bounds-checked big-endian byte buffer I/O, used by every wire codec in
// the library (MRT, DNS, RTR, TLV). Readers never throw on truncated or
// malformed input; they report failure through Result.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace ripki::util {

using Bytes = std::vector<std::uint8_t>;

/// Big-endian loads and stores on raw bytes, for a codec that bounds-checks
/// a fixed-size block once and then reads or writes each of its fields.
inline std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
inline std::uint32_t load_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}
inline void store_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}
inline void store_u32(std::uint8_t* p, std::uint32_t v) {
  store_u16(p, static_cast<std::uint16_t>(v >> 16));
  store_u16(p + 2, static_cast<std::uint16_t>(v));
}

/// Serialises primitives in network byte order into a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts `reuse` as the output buffer: contents are cleared but the
  /// capacity is kept, so encode-into-scratch loops stop allocating once
  /// the buffer has grown to the working-set size.
  explicit ByteWriter(Bytes&& reuse) : buf_(std::move(reuse)) { buf_.clear(); }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void put_u32(std::uint32_t v) {
    put_u16(static_cast<std::uint16_t>(v >> 16));
    put_u16(static_cast<std::uint16_t>(v));
  }
  void put_u64(std::uint64_t v);
  void put_bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }
  void put_string(std::string_view s) { buf_.insert(buf_.end(), s.begin(), s.end()); }
  /// Appends `n` bytes for the caller to fill, in one bounds-checked step:
  /// the pointer is valid until the next write.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  /// Overwrites a previously written big-endian u16/u32 at `offset`;
  /// used for back-patching length fields.
  void patch_u16(std::size_t offset, std::uint16_t v);
  void patch_u32(std::size_t offset, std::uint32_t v);

  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Deserialises primitives in network byte order from a fixed view.
/// All reads are bounds-checked; failure leaves the cursor untouched.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool at_end() const { return remaining() == 0; }

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  /// Copies out `n` bytes.
  Result<Bytes> bytes(std::size_t n);
  /// Zero-copy view of the next `n` bytes (valid while the backing span is).
  Result<std::span<const std::uint8_t>> view(std::size_t n);
  Result<std::string> string(std::size_t n);

  /// Skips `n` bytes (error when fewer remain).
  Result<void> skip(std::size_t n);
  /// Moves the cursor to an absolute offset within the buffer.
  Result<void> seek(std::size_t offset);

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ripki::util
