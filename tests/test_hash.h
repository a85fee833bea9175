// 64-bit FNV-1a over raw bytes: the digest the bit-pinning tests record.
#pragma once

#include <cstddef>
#include <cstdint>

namespace calibre::testing_hash {

inline std::uint64_t fnv1a_bytes(const void* data, std::size_t bytes,
                                 std::uint64_t hash = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace calibre::testing_hash
