#include "src/common/checksum.h"

#include <bit>
#include <cstring>

namespace mal {
namespace {

constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ULL;

// The first n (at most 8) bytes at p as a little-endian word; the bytes
// past n read as zero.
uint64_t LoadLittleEndian(const char* p, size_t n) {
  uint64_t word = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&word, p, n);
  } else {
    for (size_t i = 0; i < n; ++i) {
      word |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    }
  }
  return word;
}

// An odd multiply, a rotate and an add each invert, so for a fixed word
// this is a bijection of the state, and for a fixed state one of the word.
uint64_t Step(uint64_t state, uint64_t word) {
  return std::rotl(state + word * kPrime2, 31) * kPrime1;
}

}  // namespace

uint64_t Checksum(std::string_view bytes) {
  const char* p = bytes.data();
  size_t n = bytes.size();
  const uint64_t seed = kPrime3 ^ (static_cast<uint64_t>(n) * kPrime1);
  uint64_t h = seed;
  if (n >= 32) {
    // Four independent lanes, one word each per 32-byte block, so the
    // multiplies of neighbouring words overlap. Folding the lanes with
    // Step keeps the result a bijection of each lane's state.
    uint64_t lanes[4] = {seed, seed + kPrime1, seed + kPrime2, seed + kPrime3};
    for (; n >= 32; p += 32, n -= 32) {
      for (int i = 0; i < 4; ++i) {
        lanes[i] = Step(lanes[i], LoadLittleEndian(p + 8 * i, 8));
      }
    }
    h = Step(Step(Step(lanes[0], lanes[1]), lanes[2]), lanes[3]);
  }
  for (; n >= 8; p += 8, n -= 8) {
    h = Step(h, LoadLittleEndian(p, 8));
  }
  if (n > 0) {
    h = Step(h, LoadLittleEndian(p, n));
  }
  // Avalanche: xor-shifts and odd multiplies, each invertible.
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace mal
