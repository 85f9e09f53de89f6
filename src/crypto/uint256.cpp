#include "crypto/uint256.hpp"

#include <cassert>
#include <memory>

#include "util/prng.hpp"
#include "util/strings.hpp"

namespace ripki::crypto {

namespace {

/// 512-bit intermediate used only for full products before reduction.
struct U512 {
  std::array<std::uint64_t, 8> limbs{};  // little-endian

  bool bit(int i) const {
    return ((limbs[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1) != 0;
  }
};

U512 full_mul(const U256& a, const U256& b) {
  U512 out;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const __uint128_t cur =
          static_cast<__uint128_t>(a.limb(i)) * b.limb(j) +
          out.limbs[static_cast<std::size_t>(i + j)] + carry;
      out.limbs[static_cast<std::size_t>(i + j)] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.limbs[static_cast<std::size_t>(i + 4)] += carry;
  }
  return out;
}

/// Binary long division: a (512-bit) mod m (256-bit, non-zero).
U256 mod512(const U512& a, const U256& m) {
  assert(!m.is_zero());
  U256 rem;
  for (int i = 511; i >= 0; --i) {
    // rem < m before the shift, so 2*rem + bit < 2m; one conditional
    // subtraction restores rem < m. The transient top-bit carry is
    // handled by wrapping arithmetic: if the shift carried out of bit
    // 255, the true value is rem + 2^256 >= m, so we always subtract.
    const bool carry = rem.bit(255);
    rem = rem.shl1();
    if (a.bit(i)) rem = rem.add(U256(1));
    if (carry || rem >= m) rem = rem.sub(m);
  }
  return rem;
}

/// x << s for 0 <= s < 256; bits shifted past bit 255 are lost.
U256 shift_left(const U256& x, int s) {
  const int words = s / 64;
  const int bits = s % 64;
  std::uint64_t out[4] = {0, 0, 0, 0};
  for (int i = 3; i >= words; --i) {
    out[i] = x.limb(i - words) << bits;
    if (bits != 0 && i > words) out[i] |= x.limb(i - words - 1) >> (64 - bits);
  }
  return U256(out[3], out[2], out[1], out[0]);
}

/// Montgomery (CIOS) arithmetic modulo an odd n < R = 2^(64L), on L-limb
/// residues. RSA moduli run at L = 4; the prime search runs its 128-bit
/// candidates at L = 2, a quarter of the wide multiplies per product. A
/// Montgomery product costs ~2L^2 wide multiplies instead of the
/// 512-iteration bit loop of mod512.
template <int L>
struct MontgomeryContext {
  using Residue = std::array<std::uint64_t, L>;

  Residue n;
  std::uint64_t n0inv;  // -n^{-1} mod 2^64
  Residue r_mod_n;      // R mod n: 1 in Montgomery form
  Residue r2_mod_n;     // R^2 mod n

  explicit MontgomeryContext(const U256& modulus) {
    assert(modulus.is_odd() && modulus.bit_length() <= 64 * L);
    for (int i = 0; i < L; ++i) n[i] = modulus.limb(i);

    // Newton iteration for the inverse of n mod 2^64 (n odd).
    const std::uint64_t x = n[0];
    std::uint64_t inv = x;
    for (int i = 0; i < 6; ++i) inv *= 2 - x * inv;
    n0inv = ~inv + 1;  // -inv mod 2^64

    // R mod n = (R - n) mod n, one division. At L = 4, R = 2^256 wraps to
    // zero, so the wrapping negation of n is exactly R - n.
    std::uint64_t r[4] = {0, 0, 0, 0};
    if constexpr (L < 4) r[L] = 1;
    r_mod_n = residue(U256::mod(U256(r[3], r[2], r[1], r[0]).sub(modulus), modulus));

    // R^2 mod n: 8 modular doublings take R to 2^8 R mod n; each
    // Montgomery squaring of 2^k R gives 2^2k R, so squaring until
    // k = 64L lands on R^2 (5 squarings at L = 4, 4 at L = 2).
    Residue r2 = r_mod_n;
    for (int i = 0; i < 8; ++i) {
      // r2 < n, so 2*r2 < 2n: one conditional subtraction (forced when
      // the shift carries out of the top limb).
      const std::uint64_t carry = r2[L - 1] >> 63;
      for (int j = L - 1; j > 0; --j) r2[j] = (r2[j] << 1) | (r2[j - 1] >> 63);
      r2[0] <<= 1;
      if (carry != 0 || !less(r2, n)) subtract_n(r2);
    }
    for (int k = 8; k < 64 * L; k *= 2) r2 = mul(r2, r2);
    r2_mod_n = r2;
  }

  static Residue residue(const U256& a) {
    Residue out;
    for (int i = 0; i < L; ++i) out[i] = a.limb(i);
    return out;
  }

  static U256 value(const Residue& a) {
    std::uint64_t out[4] = {0, 0, 0, 0};
    for (int i = 0; i < L; ++i) out[i] = a[i];
    return U256(out[3], out[2], out[1], out[0]);
  }

  static bool less(const Residue& a, const Residue& b) {
    for (int i = L - 1; i >= 0; --i) {
      if (a[i] != b[i]) return a[i] < b[i];
    }
    return false;
  }

  /// a -= n, wrapping.
  void subtract_n(Residue& a) const {
    std::uint64_t borrow = 0;
    for (int i = 0; i < L; ++i) {
      const __uint128_t diff =
          static_cast<__uint128_t>(a[i]) - n[i] - borrow;
      a[i] = static_cast<std::uint64_t>(diff);
      borrow = static_cast<std::uint64_t>(diff >> 64) & 1;
    }
  }

  /// Returns a*b*R^{-1} mod n for a, b < n.
  Residue mul(const Residue& a, const Residue& b) const {
    std::uint64_t t[L + 2] = {};
    for (int i = 0; i < L; ++i) {
      // t += a[i] * b
      std::uint64_t carry = 0;
      for (int j = 0; j < L; ++j) {
        const __uint128_t cur =
            static_cast<__uint128_t>(a[i]) * b[j] + t[j] + carry;
        t[j] = static_cast<std::uint64_t>(cur);
        carry = static_cast<std::uint64_t>(cur >> 64);
      }
      __uint128_t cur = static_cast<__uint128_t>(t[L]) + carry;
      t[L] = static_cast<std::uint64_t>(cur);
      t[L + 1] = static_cast<std::uint64_t>(cur >> 64);

      // t = (t + m*n) / 2^64 with m = t[0] * n0inv mod 2^64, which zeroes
      // the low limb: each limb of the sum is written one place down as
      // it is formed, so no separate shift pass runs.
      const std::uint64_t m = t[0] * n0inv;
      carry = static_cast<std::uint64_t>(
          (static_cast<__uint128_t>(m) * n[0] + t[0]) >> 64);
      for (int j = 1; j < L; ++j) {
        const __uint128_t c =
            static_cast<__uint128_t>(m) * n[j] + t[j] + carry;
        t[j - 1] = static_cast<std::uint64_t>(c);
        carry = static_cast<std::uint64_t>(c >> 64);
      }
      cur = static_cast<__uint128_t>(t[L]) + carry;
      t[L - 1] = static_cast<std::uint64_t>(cur);
      t[L] = t[L + 1] + static_cast<std::uint64_t>(cur >> 64);
    }
    // The value sits in t[0..L] with t[L] <= 1 and total < 2n; one
    // conditional subtraction (wrapping when t[L] is set) normalises into
    // [0, n).
    Residue out;
    for (int i = 0; i < L; ++i) out[i] = t[i];
    if (t[L] != 0 || !less(out, n)) subtract_n(out);
    return out;
  }

  /// a in Montgomery form (a < n).
  Residue to_mont(const U256& a) const { return mul(residue(a), r2_mod_n); }
  U256 from_mont(const Residue& a) const {
    Residue one{};
    one[0] = 1;
    return value(mul(a, one));
  }

  /// Bits [4w, 4w+4) of x — the w-th exponent window.
  static unsigned nibble(const U256& x, int w) {
    return static_cast<unsigned>((x.limb(w / 16) >> ((w % 16) * 4)) & 0xF);
  }

  /// a^exp in the Montgomery domain (a already in Montgomery form).
  ///
  /// Short exponents (the RSA public exponent 65537 has weight 2) run the
  /// plain binary ladder; past kFixedWindowMinBits the 16-entry table
  /// pays for itself and a 4-bit fixed window roughly halves the number
  /// of multiplies next to the squarings (bits/4 + 15 instead of ~bits/2
  /// for random exponents — private keys and Miller-Rabin witnesses).
  static constexpr int kFixedWindowMinBits = 64;

  Residue pow(const Residue& a, const U256& exp) const {
    const int bits = exp.bit_length();
    if (bits == 0) return r_mod_n;  // a^0 = 1 (Montgomery form)
    if (bits < kFixedWindowMinBits) {
      Residue result = r_mod_n;
      Residue b = a;
      for (int i = 0; i < bits; ++i) {
        if (exp.bit(i)) result = mul(result, b);
        b = mul(b, b);
      }
      return result;
    }
    Residue table[16];
    table[0] = r_mod_n;
    table[1] = a;
    for (int i = 2; i < 16; ++i) table[i] = mul(table[i - 1], a);
    const int windows = (bits + 3) / 4;
    // The top window is never zero: it contains the exponent's top bit.
    Residue result = table[nibble(exp, windows - 1)];
    for (int w = windows - 2; w >= 0; --w) {
      result = mul(result, result);
      result = mul(result, result);
      result = mul(result, result);
      result = mul(result, result);
      const unsigned window = nibble(exp, w);
      if (window != 0) result = mul(result, table[window]);
    }
    return result;
  }
};

/// Per-thread memo of the last modulus's Montgomery constants. Signature
/// verification walks many objects under one CA key, so consecutive
/// modexp calls overwhelmingly share a modulus; caching the context skips
/// its setup division entirely. Thread-local, so pooled validation shards
/// need no synchronisation.
const MontgomeryContext<4>& montgomery_context(const U256& m) {
  thread_local U256 cached_modulus;
  thread_local std::unique_ptr<MontgomeryContext<4>> cached;
  if (cached == nullptr || cached_modulus != m) {
    cached = std::make_unique<MontgomeryContext<4>>(m);
    cached_modulus = m;
  }
  return *cached;
}

/// Miller-Rabin over an odd n > 97 that fits L limbs.
template <int L>
bool miller_rabin(const U256& n, util::Prng& prng, int rounds) {
  // Write n - 1 = d * 2^r.
  const U256 n_minus_1 = n.sub(U256(1));
  U256 d = n_minus_1;
  int r = 0;
  while (!d.is_odd()) {
    d = d.shr1();
    ++r;
  }

  // All witness arithmetic stays in the Montgomery domain. A residue's
  // Montgomery form is a bijection, so comparing against 1 and n - 1 in
  // that form gives the same verdict at any R.
  const MontgomeryContext<L> ctx(n);
  const auto one_mont = ctx.r_mod_n;
  const auto nm1_mont = ctx.to_mont(n_minus_1);

  for (int round = 0; round < rounds; ++round) {
    // Base in [2, n-2].
    const U256 a = U256::random_below(prng, n.sub(U256(3))).add(U256(2));
    // x = a^d mod n, in Montgomery form (fixed window: d is ~n-sized).
    auto x = ctx.pow(ctx.to_mont(a), d);
    if (x == one_mont || x == nm1_mont) continue;
    bool composite = true;
    for (int i = 0; i < r - 1; ++i) {
      x = ctx.mul(x, x);
      if (x == nm1_mont) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

}  // namespace

U256 U256::from_bytes_be(const std::uint8_t* data, std::size_t len) {
  assert(len <= 32);
  U256 out;
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t bit_pos = (len - 1 - i) * 8;
    out.limbs_[bit_pos / 64] |= static_cast<std::uint64_t>(data[i]) << (bit_pos % 64);
  }
  return out;
}

std::array<std::uint8_t, 32> U256::to_bytes_be() const {
  std::array<std::uint8_t, 32> out{};
  for (int i = 0; i < 32; ++i) {
    const int bit_pos = (31 - i) * 8;
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(limbs_[static_cast<std::size_t>(bit_pos / 64)] >>
                                  (bit_pos % 64));
  }
  return out;
}

std::string U256::to_hex() const {
  const auto bytes = to_bytes_be();
  return util::to_hex(bytes.data(), bytes.size());
}

bool U256::is_zero() const {
  return (limbs_[0] | limbs_[1] | limbs_[2] | limbs_[3]) == 0;
}

int U256::bit_length() const {
  for (int i = 3; i >= 0; --i) {
    if (limbs_[static_cast<std::size_t>(i)] != 0) {
      return i * 64 + 64 - __builtin_clzll(limbs_[static_cast<std::size_t>(i)]);
    }
  }
  return 0;
}

bool U256::bit(int i) const {
  assert(i >= 0 && i < 256);
  return ((limbs_[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1) != 0;
}

int U256::compare(const U256& other) const {
  for (int i = 3; i >= 0; --i) {
    const auto a = limbs_[static_cast<std::size_t>(i)];
    const auto b = other.limbs_[static_cast<std::size_t>(i)];
    if (a != b) return a < b ? -1 : 1;
  }
  return 0;
}

U256 U256::add(const U256& other) const {
  U256 out;
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const unsigned __int128 sum =
        static_cast<unsigned __int128>(limbs_[i]) + other.limbs_[i] + carry;
    out.limbs_[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  return out;
}

U256 U256::sub(const U256& other) const {
  U256 out;
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t a = limbs_[i];
    const std::uint64_t b = other.limbs_[i];
    const std::uint64_t diff = a - b - borrow;
    borrow = (a < b + borrow || (b == UINT64_MAX && borrow != 0)) ? 1 : 0;
    out.limbs_[i] = diff;
  }
  return out;
}

U256 U256::shl1() const {
  U256 out;
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    out.limbs_[i] = (limbs_[i] << 1) | carry;
    carry = limbs_[i] >> 63;
  }
  return out;
}

U256 U256::shr1() const {
  U256 out;
  std::uint64_t carry = 0;
  for (int i = 3; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    out.limbs_[idx] = (limbs_[idx] >> 1) | (carry << 63);
    carry = limbs_[idx] & 1;
  }
  return out;
}

U256 U256::mulmod(const U256& a, const U256& b, const U256& mod) {
  return mod512(full_mul(a, b), mod);
}

U256 U256::mod(const U256& a, const U256& m) {
  U256 rem;
  divmod(a, m, &rem);
  return rem;
}

U256 U256::divmod(const U256& a, const U256& d, U256* rem_out) {
  assert(!d.is_zero());
  U256 quotient;
  U256 rem;
  const int d_bits = d.bit_length();
  if (d_bits <= 64) {
    // One-limb divisor: one 128-by-64 division per limb from the top. The
    // running remainder (< d) is the next division's high word, so every
    // quotient limb fits 64 bits.
    const std::uint64_t divisor = d.limbs_[0];
    std::uint64_t r = 0;
    for (int i = 3; i >= 0; --i) {
      const auto idx = static_cast<std::size_t>(i);
      const __uint128_t num = (static_cast<__uint128_t>(r) << 64) | a.limbs_[idx];
      const auto q = static_cast<std::uint64_t>(num / divisor);
      quotient.limbs_[idx] = q;
      r = a.limbs_[idx] - q * divisor;  // exact: num - q*d < d
    }
    rem.limbs_[0] = r;
  } else if (a >= d) {
    // Wider divisor: shift-and-subtract over the quotient's width only.
    // d is aligned with a's top bit, then each step compares, subtracts
    // at most once, and moves the divisor one bit down.
    const int shift = a.bit_length() - d_bits;
    U256 shifted = shift_left(d, shift);
    rem = a;
    for (int i = shift; i >= 0; --i) {
      if (rem >= shifted) {
        rem = rem.sub(shifted);
        quotient.limbs_[static_cast<std::size_t>(i / 64)] |= 1ULL << (i % 64);
      }
      shifted = shifted.shr1();
    }
  } else {
    rem = a;
  }
  if (rem_out != nullptr) *rem_out = rem;
  return quotient;
}

U256 U256::modexp(const U256& base, const U256& exp, const U256& m) {
  assert(!m.is_zero());
  if (m.is_odd() && m > U256(1)) {
    // Montgomery + fixed window: ~100x faster than the bit-division path.
    const MontgomeryContext<4>& ctx = montgomery_context(m);
    const U256 b0 = base < m ? base : mod(base, m);
    return ctx.from_mont(ctx.pow(ctx.to_mont(b0), exp));
  }
  return modexp_schoolbook(base, exp, m);
}

U256 U256::modexp_schoolbook(const U256& base, const U256& exp, const U256& m) {
  assert(!m.is_zero());
  U256 result = mod(U256(1), m);
  U256 b = mod(base, m);
  const int bits = exp.bit_length();
  for (int i = 0; i < bits; ++i) {
    if (exp.bit(i)) result = mulmod(result, b, m);
    b = mulmod(b, b, m);
  }
  return result;
}

U256 U256::gcd(U256 a, U256 b) {
  while (!b.is_zero()) {
    U256 r = mod(a, b);
    a = b;
    b = r;
  }
  return a;
}

bool U256::modinv(const U256& a, const U256& m, U256& out) {
  assert(!m.is_zero());
  // Extended Euclid over the Bezout coefficients' magnitudes. The
  // coefficients t0 = 0, t1 = 1, t2 = t0 - q*t1, ... alternate in sign,
  // so |t2| = |t0| + q*|t1|, and they grow to at most m / gcd(a, m) <= m.
  // Each q*|t1| therefore fits 256 bits: one word product and an add per
  // step, with nothing to reduce. The sign is applied once, at the end.
  U256 r0 = m;
  U256 r1 = mod(a, m);
  U256 t0(0);  // |t0|
  U256 t1(1);  // |t1|
  bool t0_negative = false;
  bool t1_negative = false;
  while (!r1.is_zero()) {
    U256 rem;
    const U256 q = divmod(r0, r1, &rem);
    const U512 qt1 = full_mul(q, t1);
    assert((qt1.limbs[4] | qt1.limbs[5] | qt1.limbs[6] | qt1.limbs[7]) == 0);
    const U256 t2 =
        t0.add(U256(qt1.limbs[3], qt1.limbs[2], qt1.limbs[1], qt1.limbs[0]));
    r0 = r1;
    r1 = rem;
    t0 = t1;
    t1 = t2;
    t0_negative = t1_negative;
    t1_negative = !t1_negative;
  }
  if (r0 != U256(1)) return false;
  out = t0_negative ? m.sub(t0) : t0;
  return true;
}

U256 U256::random_below(util::Prng& prng, const U256& bound) {
  assert(!bound.is_zero());
  const int bits = bound.bit_length();
  for (;;) {
    U256 candidate;
    for (int i = 0; i < (bits + 63) / 64; ++i)
      candidate.limbs_[static_cast<std::size_t>(i)] = prng.next_u64();
    // Mask to the bound's bit width, then reject out-of-range draws.
    const int top_limb = (bits - 1) / 64;
    const int top_bits = bits - top_limb * 64;
    if (top_bits < 64) {
      candidate.limbs_[static_cast<std::size_t>(top_limb)] &=
          (1ULL << top_bits) - 1;
    }
    for (int i = top_limb + 1; i < 4; ++i)
      candidate.limbs_[static_cast<std::size_t>(i)] = 0;
    if (candidate < bound) return candidate;
  }
}

U256 U256::random_bits(util::Prng& prng, int bits) {
  assert(bits >= 2 && bits <= 256);
  U256 out;
  for (int i = 0; i < (bits + 63) / 64; ++i)
    out.limbs_[static_cast<std::size_t>(i)] = prng.next_u64();
  const int top_limb = (bits - 1) / 64;
  const int top_bits = bits - top_limb * 64;
  if (top_bits < 64) {
    out.limbs_[static_cast<std::size_t>(top_limb)] &= (1ULL << top_bits) - 1;
  }
  for (int i = top_limb + 1; i < 4; ++i) out.limbs_[static_cast<std::size_t>(i)] = 0;
  out.limbs_[static_cast<std::size_t>(top_limb)] |= 1ULL << ((bits - 1) % 64);
  return out;
}

bool is_probable_prime(const U256& n, util::Prng& prng, int rounds) {
  static constexpr std::uint64_t kSmallPrimes[] = {
      2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41,
      43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97};
  if (n < U256(2)) return false;
  for (std::uint64_t p : kSmallPrimes) {
    const U256 pv(p);
    if (n == pv) return true;
    if (U256::mod(n, pv).is_zero()) return false;
  }

  // n is odd here (even n was rejected by the sieve); 128-bit candidates,
  // the keypairs' primes, run on two limbs.
  return n.bit_length() <= 128 ? miller_rabin<2>(n, prng, rounds)
                               : miller_rabin<4>(n, prng, rounds);
}

U256 generate_prime(util::Prng& prng, int bits) {
  assert(bits >= 8 && bits <= 256);
  for (;;) {
    U256 candidate = U256::random_bits(prng, bits);
    if (!candidate.is_odd()) candidate = candidate.add(U256(1));
    if (is_probable_prime(candidate, prng)) return candidate;
  }
}

}  // namespace ripki::crypto
