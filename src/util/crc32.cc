#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace blazeit {

namespace {

/// kTables[0] is the classic byte-at-a-time table; kTables[k][i] is the
/// CRC of byte i followed by k zero bytes, so eight lookups (one per
/// table) advance the state over eight bytes at once.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = BuildTables();

}  // namespace

uint32_t Crc32UpdateBytewise(uint32_t state, const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    state = kTables[0][(state ^ p[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32Update(uint32_t state, const void* data, size_t size) {
  // Slice-by-8 reads each 8-byte step as two little-endian words; other
  // byte orders keep the bytewise loop.
  if constexpr (std::endian::native != std::endian::little) {
    return Crc32UpdateBytewise(state, data, size);
  }
  const auto* p = static_cast<const unsigned char*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= state;
    state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  return Crc32UpdateBytewise(state, p, size);
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Finalize(Crc32Update(kCrc32Init, data, size));
}

}  // namespace blazeit
