#include "format/crc32.hpp"

#include <array>

namespace dmr::format {

namespace {

// Slicing-by-16: table k maps a byte to its CRC contribution when it is
// followed by k more bytes, so one step folds 16 input bytes with 16
// independent lookups instead of a 16-long dependency chain.
constexpr std::size_t kSlices = 16;
using Tables = std::array<std::array<std::uint32_t, 256>, kSlices>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t i = 0; i < 256; ++i) {
    for (std::size_t s = 1; s < kSlices; ++s) {
      const std::uint32_t prev = t[s - 1][i];
      t[s][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian 32-bit load; compilers turn it into one load on
/// little-endian hosts, and it stays correct on big-endian ones.
inline std::uint32_t load_le32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Contribution of the 4 bytes of `w` when followed by `after` more bytes.
inline std::uint32_t fold4(std::uint32_t w, std::size_t after) {
  return kTables[after + 3][w & 0xFFu] ^ kTables[after + 2][(w >> 8) & 0xFFu] ^
         kTables[after + 1][(w >> 16) & 0xFFu] ^ kTables[after][w >> 24];
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= kSlices; n -= kSlices, p += kSlices) {
    c = fold4(load_le32(p) ^ c, 12) ^ fold4(load_le32(p + 4), 8) ^
        fold4(load_le32(p + 8), 4) ^ fold4(load_le32(p + 12), 0);
  }
  for (; n > 0; --n, ++p) {
    c = kTables[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace dmr::format
