// FNV-1a 64-bit hashing: the one content hash behind policy fingerprints,
// scenario content hashes and fleet result-file keys.
//
// The repository hashes with the offset basis 1469598103934665603
// (0x14650fb0739d0383): the standard FNV basis 14695981039346656037 with its
// last digit dropped. Every persisted fingerprint, result-file name and
// benchmark digest is computed with it, so it can never change. The standard
// basis is kept alongside for the test suite's golden determinism hashes,
// which were captured with it.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace drlnoc::util {

class Fnv1a64 {
 public:
  static constexpr std::uint64_t kRepoBasis = 1469598103934665603ULL;
  static constexpr std::uint64_t kStandardBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  explicit Fnv1a64(std::uint64_t basis = kRepoBasis) : h_(basis) {}

  Fnv1a64& byte(unsigned char b) {
    h_ ^= b;
    h_ *= kPrime;
    return *this;
  }
  Fnv1a64& bytes(std::string_view s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
    return *this;
  }
  /// Little-endian bytes of `v`, independent of the host byte order.
  Fnv1a64& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
    return *this;
  }
  /// The IEEE-754 bit pattern of `v`.
  Fnv1a64& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

/// `v` as 16 lowercase hex digits: the printed form of every hash above.
inline std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

/// True when `s` is exactly 16 lowercase hex digits (a printed hash).
inline bool is_hex16(std::string_view s) {
  if (s.size() != 16) return false;
  for (const char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

}  // namespace drlnoc::util
