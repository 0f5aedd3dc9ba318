// Little-endian binary encoding helpers for log records and catalogs.
#ifndef SEMCC_UTIL_CODING_H_
#define SEMCC_UTIL_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/result.h"

namespace semcc {

inline void PutU8(std::string* dst, uint8_t v) {
  dst->push_back(static_cast<char>(v));
}

inline void PutU16(std::string* dst, uint16_t v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void PutU32(std::string* dst, uint32_t v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void PutU64(std::string* dst, uint64_t v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutU32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

/// \brief Cursor over an encoded buffer; all Get* return false on underrun.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (data_.size() < 1) return false;
    *v = static_cast<uint8_t>(data_.front());
    data_.remove_prefix(1);
    return true;
  }
  bool GetU16(uint16_t* v) { return GetRaw(v); }
  bool GetU32(uint32_t* v) { return GetRaw(v); }
  bool GetU64(uint64_t* v) { return GetRaw(v); }

  bool GetLengthPrefixed(std::string* out) {
    uint32_t len;
    if (!GetU32(&len) || data_.size() < len) return false;
    out->assign(data_.data(), len);
    data_.remove_prefix(len);
    return true;
  }

  bool empty() const { return data_.empty(); }
  size_t remaining() const { return data_.size(); }

 private:
  template <typename T>
  bool GetRaw(T* v) {
    if (data_.size() < sizeof(T)) return false;
    std::memcpy(v, data_.data(), sizeof(T));
    data_.remove_prefix(sizeof(T));
    return true;
  }
  std::string_view data_;
};

}  // namespace semcc

#endif  // SEMCC_UTIL_CODING_H_
