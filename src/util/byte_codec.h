// Fixed-width little-endian byte encoding shared by every binary format in
// the library (the CXPL plan, the CXMF manifest, the canonical shard
// encodings), plus the FNV-1a hash those formats checksum with. Output is
// byte-stable on every host: no native-endian copies, no padding.

#ifndef CEXTEND_UTIL_BYTE_CODEC_H_
#define CEXTEND_UTIL_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/sanitize.h"

namespace cextend {

template <typename T>
void PutFixed(std::string* out, T v) {
  const auto u = static_cast<uint64_t>(v);
  for (size_t i = 0; i < sizeof(T); ++i) {
    out->push_back(static_cast<char>(u >> (8 * i)));
  }
}
inline void PutU32(std::string* out, uint32_t v) { PutFixed(out, v); }
inline void PutU64(std::string* out, uint64_t v) { PutFixed(out, v); }
inline void PutI64(std::string* out, int64_t v) { PutFixed(out, v); }

/// Bounds-checked cursor over an encoded byte string. Every read returns
/// false, consuming nothing, when fewer bytes remain than it needs; callers
/// turn that into a format error. The string must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : data_(bytes) {}

  bool U32(uint32_t* v) { return Fixed(v); }
  bool U64(uint64_t* v) { return Fixed(v); }
  bool I64(int64_t* v) { return Fixed(v); }

  bool Bytes(size_t n, std::string* out) {
    if (remaining() < n) return false;
    out->assign(data_, pos_, n);
    pos_ += n;
    return true;
  }

  /// Byte offset of the next read.
  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  bool Fixed(T* v) {
    if (remaining() < sizeof(T)) return false;
    uint64_t u = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      u |= uint64_t{static_cast<uint8_t>(data_[pos_ + i])} << (8 * i);
    }
    *v = static_cast<T>(u);
    pos_ += sizeof(T);
    return true;
  }

  const std::string& data_;
  size_t pos_ = 0;
};

inline constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// FNV-1a: folds `n` bytes into the running hash `h` (start from
/// kFnv1aBasis). Wraparound is the point, hence the sanitizer suppression.
CEXTEND_NO_SANITIZE_INTEGER
inline uint64_t Fnv1a(uint64_t h, const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace cextend

#endif  // CEXTEND_UTIL_BYTE_CODEC_H_
