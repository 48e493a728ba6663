// Determinism helpers.
//
// The simulation's claim to validity is that two runs of the same
// scenario produce byte-identical event streams. Hash-ordered containers
// break that silently: iteration order depends on the standard library,
// the hash seed and the insertion history, so any decision or output
// derived from a range-for over an `unordered_map` can differ between
// runs or toolchains. `osap-lint` (rule DET-1, see docs/LINT.md) bans
// such traversals in the modeled layers. A table that is walked is an
// ordered container keyed by its id (`std::map`/`std::set`, which order by
// the ids' `operator<`) or a vector indexed by a dense id; hash maps stay
// for lookups only.
//
// `det::Fnv1a` is the runtime witness for the same property: the
// Simulation folds every fired event into an FNV-1a digest, and the
// double-run tier-1 test asserts that identical scenarios produce
// identical digests.
#pragma once

#include <cstddef>
#include <cstdint>

namespace osap::det {

/// 64-bit FNV-1a accumulator. Folding in the (time, insertion sequence)
/// pair of every fired event yields a digest of the entire event stream;
/// any ordering divergence between two runs changes it with overwhelming
/// probability.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  constexpr void mix_bytes(const unsigned char* data, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= data[i];
      hash_ *= kPrime;
    }
  }

  constexpr void mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= kPrime;
    }
  }

  /// Mix a double through its bit pattern (the virtual clock is a
  /// double); identical streams mix identical bits on any platform.
  void mix(double v) noexcept {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    __builtin_memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }

  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = kOffsetBasis;
};

}  // namespace osap::det
