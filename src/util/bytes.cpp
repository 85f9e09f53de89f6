#include "util/bytes.hpp"

#include <cassert>

namespace ripki::util {

void ByteWriter::put_u64(std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8)
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  assert(offset + 2 <= buf_.size());
  store_u16(buf_.data() + offset, v);
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  assert(offset + 4 <= buf_.size());
  store_u32(buf_.data() + offset, v);
}

Result<std::uint8_t> ByteReader::u8() {
  if (remaining() < 1) return Err("byte reader: truncated u8");
  return data_[pos_++];
}

Result<std::uint16_t> ByteReader::u16() {
  if (remaining() < 2) return Err("byte reader: truncated u16");
  const std::uint16_t v = load_u16(data_.data() + pos_);
  pos_ += 2;
  return v;
}

Result<std::uint32_t> ByteReader::u32() {
  if (remaining() < 4) return Err("byte reader: truncated u32");
  const std::uint32_t v = load_u32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<std::uint64_t> ByteReader::u64() {
  if (remaining() < 8) return Err("byte reader: truncated u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 8;
  return v;
}

Result<Bytes> ByteReader::bytes(std::size_t n) {
  if (remaining() < n) return Err("byte reader: truncated bytes");
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Result<std::span<const std::uint8_t>> ByteReader::view(std::size_t n) {
  if (remaining() < n) return Err("byte reader: truncated view");
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Result<std::string> ByteReader::string(std::size_t n) {
  if (remaining() < n) return Err("byte reader: truncated string");
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

Result<void> ByteReader::skip(std::size_t n) {
  if (remaining() < n) return Err("byte reader: skip past end");
  pos_ += n;
  return {};
}

Result<void> ByteReader::seek(std::size_t offset) {
  if (offset > data_.size()) return Err("byte reader: seek past end");
  pos_ = offset;
  return {};
}

}  // namespace ripki::util
