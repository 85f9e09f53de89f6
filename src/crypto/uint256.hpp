// Fixed-width 256-bit unsigned arithmetic for the toy RSA scheme.
// Little-endian limb order (limb 0 = least significant 64 bits).
//
// This is deliberately simple, constant-size arithmetic. Division works on
// machine words: a one-limb divisor takes one hardware division per limb,
// a wider one shift-and-subtracts over the quotient's bits only. modexp
// and the Miller-Rabin rounds multiply in the Montgomery domain; mulmod
// and modexp_schoolbook keep the reference path, a full product through
// an internal 512-bit type reduced by binary long division.
// Not constant-time and not intended to be: see rsa.hpp for the threat
// model of the simulation.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace ripki::util {
class Prng;
}

namespace ripki::crypto {

class U256 {
 public:
  constexpr U256() : limbs_{0, 0, 0, 0} {}
  constexpr explicit U256(std::uint64_t v) : limbs_{v, 0, 0, 0} {}
  constexpr U256(std::uint64_t l3, std::uint64_t l2, std::uint64_t l1, std::uint64_t l0)
      : limbs_{l0, l1, l2, l3} {}

  static U256 from_bytes_be(const std::uint8_t* data, std::size_t len);
  std::array<std::uint8_t, 32> to_bytes_be() const;
  std::string to_hex() const;

  bool is_zero() const;
  bool is_odd() const { return (limbs_[0] & 1) != 0; }
  /// Index of the highest set bit plus one (0 for zero).
  int bit_length() const;
  bool bit(int i) const;

  // Comparison.
  int compare(const U256& other) const;
  bool operator==(const U256& other) const { return compare(other) == 0; }
  bool operator!=(const U256& other) const { return compare(other) != 0; }
  bool operator<(const U256& other) const { return compare(other) < 0; }
  bool operator<=(const U256& other) const { return compare(other) <= 0; }
  bool operator>(const U256& other) const { return compare(other) > 0; }
  bool operator>=(const U256& other) const { return compare(other) >= 0; }

  /// Wrapping add/sub modulo 2^256.
  U256 add(const U256& other) const;
  U256 sub(const U256& other) const;

  U256 shl1() const;
  U256 shr1() const;

  /// Full product reduced mod `mod` (mod must be non-zero).
  static U256 mulmod(const U256& a, const U256& b, const U256& mod);
  /// a mod m (m non-zero).
  static U256 mod(const U256& a, const U256& m);
  /// Floor division a / d (d non-zero), remainder via `rem` when non-null.
  /// A divisor below 2^64 costs four 128-by-64 divisions; a wider one
  /// a.bit_length() - d.bit_length() + 1 shift-and-subtract steps.
  static U256 divmod(const U256& a, const U256& d, U256* rem);
  /// base^exp mod m (m non-zero). Odd moduli > 1 (every RSA modulus) take
  /// a Montgomery fast path: short exponents run a binary ladder, long
  /// ones a 4-bit fixed-window ladder over a precomputed power table. The
  /// per-modulus Montgomery constants are memoized thread-locally, so
  /// repeated calls under one key (a validator walking a CA's objects)
  /// skip the setup division entirely. Even moduli fall back to
  /// modexp_schoolbook. Not constant-time (see rsa.hpp).
  static U256 modexp(const U256& base, const U256& exp, const U256& m);
  /// Reference square-and-multiply through the generic division-based
  /// reduction — the correctness oracle for modexp in tests and the
  /// baseline in bench/perf_substrates. Never takes the Montgomery path.
  static U256 modexp_schoolbook(const U256& base, const U256& exp,
                                const U256& m);
  /// Greatest common divisor.
  static U256 gcd(U256 a, U256 b);
  /// Modular inverse of a mod m when gcd(a, m) == 1; returns false otherwise.
  static bool modinv(const U256& a, const U256& m, U256& out);

  /// Uniform value in [0, bound) using rejection sampling.
  static U256 random_below(util::Prng& prng, const U256& bound);
  /// Random value with exactly `bits` significant bits (top bit forced 1);
  /// `bits` must be in [2, 256].
  static U256 random_bits(util::Prng& prng, int bits);

  std::uint64_t limb(int i) const { return limbs_[static_cast<std::size_t>(i)]; }
  std::uint64_t low_u64() const { return limbs_[0]; }

 private:
  std::array<std::uint64_t, 4> limbs_;
};

/// Miller-Rabin probabilistic primality test with `rounds` random bases,
/// after trial division by the primes below 100 (which draws nothing).
/// Candidates up to 128 bits run their rounds on two limbs.
bool is_probable_prime(const U256& n, util::Prng& prng, int rounds = 24);

/// Generates a random prime with exactly `bits` bits (top bit set).
U256 generate_prime(util::Prng& prng, int bits);

}  // namespace ripki::crypto
