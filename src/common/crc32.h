// CRC32 (Castagnoli polynomial) used for key → vBucket mapping, exactly the
// role CRC32 plays in the paper's Figure 5, for storage-engine record
// checksums, GSI partitioning and the flight recorder's key hash.
//
// One portable implementation, slicing-by-8: eight constexpr 256-entry
// tables fold 8 input bytes per step (about 5x the byte-at-a-time loop);
// the last n % 8 bytes go through the first table one at a time. There is no
// intrinsic and no CPU dispatch, so every build and host computes the same
// values the same way. The values are the standard CRC32C ones
// (Crc32("123456789") == 0xE3069283), and the on-disk record checksums
// depend on them never changing.
#ifndef COUCHKV_COMMON_CRC32_H_
#define COUCHKV_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace couchkv {

// Computes CRC32C over `data`. `seed` allows incremental computation:
// Crc32(b, Crc32(a)) == Crc32(a + b).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

}  // namespace couchkv

#endif  // COUCHKV_COMMON_CRC32_H_
