// 64-bit FNV-1a, the one hash behind the replay fingerprints (ElasticTrace)
// and the calibration fingerprint that keys the config-search memo. Doubles
// enter via their IEEE-754 bit pattern (the contract is bit-identity, not
// approximate equality) and integers byte by byte, lowest first, so the
// stream does not depend on the host's byte order.
#ifndef SRC_COMMON_FNV1A_H_
#define SRC_COMMON_FNV1A_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace varuna {

class Fnv1a {
 public:
  void U64(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      Byte(static_cast<unsigned char>(value >> (8 * byte)));
    }
  }

  void F64(double value) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }

  void Str(std::string_view value) {
    U64(value.size());
    for (const char c : value) {
      Byte(static_cast<unsigned char>(c));
    }
  }

  uint64_t hash() const { return hash_; }

 private:
  void Byte(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ULL;
  }

  uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace varuna

#endif  // SRC_COMMON_FNV1A_H_
