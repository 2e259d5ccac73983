#ifndef DINOMO_COMMON_HASH_H_
#define DINOMO_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

#include "common/slice.h"

namespace dinomo {

/// 64-bit FNV-1a hash over an arbitrary byte range.
uint64_t Fnv1a64(const void* data, size_t len);

/// 64-bit avalanche mix (the MurmurHash3 finalizer). Used to spread keys
/// that are themselves small integers across the hash ring and hash table.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Hash of a byte-slice key (variable-length user keys).
inline uint64_t HashSlice(const Slice& s) { return Fnv1a64(s.data(), s.size()); }

/// Hash with an extra seed, for Bloom filters and virtual ring nodes.
uint64_t HashSeeded(const void* data, size_t len, uint64_t seed);

/// CRC-32C (Castagnoli polynomial). Used as the integrity check in
/// log-entry commit markers. Runs the SSE4.2 crc32 instruction when the
/// CPU has it (checked once per process), else a byte-at-a-time table
/// loop; both compute the same polynomial, so the value is the same.
uint32_t Crc32c(const void* data, size_t len);

namespace detail {

/// The two Crc32c paths, named so a test can compare them.
uint32_t Crc32cPortable(const void* data, size_t len);
/// Only valid when Crc32cHardwareAvailable() is true.
uint32_t Crc32cHardware(const void* data, size_t len);
bool Crc32cHardwareAvailable();

}  // namespace detail

}  // namespace dinomo

#endif  // DINOMO_COMMON_HASH_H_
