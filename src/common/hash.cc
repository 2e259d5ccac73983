#include "common/hash.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dinomo {

uint64_t Fnv1a64(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashSeeded(const void* data, size_t len, uint64_t seed) {
  return Mix64(Fnv1a64(data, len) ^ Mix64(seed));
}

namespace detail {
namespace {

// Table-driven CRC-32C (Castagnoli), generated at first use.
struct Crc32cTable {
  std::array<uint32_t, 256> entries;

  Crc32cTable() {
    constexpr uint32_t kPoly = 0x82f63b78u;  // reversed 0x1EDC6F41
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      entries[i] = crc;
    }
  }
};

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t len) {
  static const Crc32cTable table;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table.entries[(crc ^ p[i]) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

#if defined(__x86_64__)

// A function attribute, not a global -msse4.2: hostbench/ builds src/
// through add_subdirectory and never sees flags set in the top-level
// CMakeLists, and the binary must still run on a CPU without SSE4.2.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const void* data,
                                                          size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc64 = 0xffffffffu;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // x86 loads need no alignment
    crc64 = _mm_crc32_u64(crc64, word);
  }
  auto crc = static_cast<uint32_t>(crc64);
  for (; len > 0; --len) crc = _mm_crc32_u8(crc, *p++);
  return crc ^ 0xffffffffu;
}

bool Crc32cHardwareAvailable() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
}

#else

uint32_t Crc32cHardware(const void* data, size_t len) {
  return Crc32cPortable(data, len);
}

bool Crc32cHardwareAvailable() { return false; }

#endif

}  // namespace detail

uint32_t Crc32c(const void* data, size_t len) {
  return detail::Crc32cHardwareAvailable() ? detail::Crc32cHardware(data, len)
                                           : detail::Crc32cPortable(data, len);
}

}  // namespace dinomo
