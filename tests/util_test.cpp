#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/prng.hpp"
#include "util/result.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/url.hpp"

#include <set>
#include <sstream>

namespace ripki::util {
namespace {

// --- Result ----------------------------------------------------------------

TEST(Result, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(r.value_or(3), 7);
}

TEST(Result, HoldsError) {
  Result<int> r = Err("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().message, "boom");
  EXPECT_EQ(r.value_or(3), 3);
}

TEST(Result, VoidSpecialization) {
  Result<void> ok;
  EXPECT_TRUE(ok.ok());
  Result<void> bad = Err("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
}

// --- Prng -------------------------------------------------------------------

TEST(Prng, DeterministicForSeed) {
  Prng a(123);
  Prng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Prng, DifferentSeedsDiverge) {
  Prng a(1);
  Prng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Prng, UniformRespectsBound) {
  Prng prng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(prng.uniform(bound), bound);
  }
}

TEST(Prng, UniformCoversSmallRange) {
  Prng prng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(prng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Prng, UniformRangeInclusive) {
  Prng prng(11);
  bool lo_seen = false;
  bool hi_seen = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = prng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo_seen |= v == -3;
    hi_seen |= v == 3;
  }
  EXPECT_TRUE(lo_seen);
  EXPECT_TRUE(hi_seen);
}

TEST(Prng, Uniform01InRange) {
  Prng prng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = prng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Prng, BernoulliExtremes) {
  Prng prng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(prng.bernoulli(0.0));
    EXPECT_TRUE(prng.bernoulli(1.0));
  }
}

TEST(Prng, BernoulliApproximatesProbability) {
  Prng prng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += prng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Prng, ZipfStaysInRange) {
  Prng prng(23);
  for (int i = 0; i < 2000; ++i) {
    const auto k = prng.zipf(100, 1.1);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 100u);
  }
}

TEST(Prng, ZipfFavoursLowRanks) {
  Prng prng(29);
  std::uint64_t low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (prng.zipf(1000, 1.0) <= 10) ++low;
  }
  // For s=1, P(k <= 10) ≈ H(10)/H(1000) ≈ 0.39; far above uniform (1%).
  EXPECT_GT(low, static_cast<std::uint64_t>(n) / 5);
}

TEST(Prng, GeometricAtLeastOne) {
  Prng prng(31);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto k = prng.geometric_at_least_one(3.0);
    EXPECT_GE(k, 1u);
    sum += static_cast<double>(k);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.25);
}

TEST(Prng, PermutationIsPermutation) {
  Prng prng(37);
  const auto perm = prng.permutation(50);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Prng, SplitProducesIndependentStream) {
  Prng a(41);
  Prng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Mix64, AvalanchesSingleBit) {
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_NE(mix64(0), mix64(1));
}

// --- ByteWriter / ByteReader -------------------------------------------------

TEST(Bytes, RoundTripPrimitives) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0x1234);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0102030405060708ULL);
  w.put_string("hi");
  const Bytes buf = std::move(w).take();

  ByteReader r(buf);
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64().value(), 0x0102030405060708ULL);
  EXPECT_EQ(r.string(2).value(), "hi");
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.put_u16(0x0102);
  w.put_u32(0x03040506);
  const Bytes buf = std::move(w).take();
  const Bytes expected = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(buf, expected);
}

TEST(Bytes, TruncatedReadsFail) {
  const Bytes buf = {1, 2, 3};
  ByteReader r(buf);
  EXPECT_FALSE(r.u32().ok());
  // Failed read leaves the cursor untouched.
  EXPECT_EQ(r.u16().value(), 0x0102);
  EXPECT_FALSE(r.u16().ok());
  EXPECT_EQ(r.u8().value(), 3);
}

TEST(Bytes, SkipAndSeek) {
  const Bytes buf = {1, 2, 3, 4};
  ByteReader r(buf);
  EXPECT_TRUE(r.skip(2).ok());
  EXPECT_EQ(r.u8().value(), 3);
  EXPECT_TRUE(r.seek(0).ok());
  EXPECT_EQ(r.u8().value(), 1);
  EXPECT_FALSE(r.seek(5).ok());
  EXPECT_FALSE(r.skip(10).ok());
}

TEST(Bytes, PatchBackfillsLengths) {
  ByteWriter w;
  w.put_u16(0);
  w.put_u32(0);
  w.put_u8(9);
  w.patch_u16(0, 0xBEEF);
  w.patch_u32(2, 0xCAFEBABE);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u16().value(), 0xBEEF);
  EXPECT_EQ(r.u32().value(), 0xCAFEBABEu);
}

TEST(Bytes, ViewAliasesWithoutCopy) {
  const Bytes buf = {10, 20, 30};
  ByteReader r(buf);
  const auto view = r.view(2).value();
  EXPECT_EQ(view.data(), buf.data());
  EXPECT_EQ(view.size(), 2u);
}

// --- strings -----------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(to_lower("AkAMai"), "akamai");
  EXPECT_TRUE(iequals("AKAMAI", "akamai"));
  EXPECT_FALSE(iequals("akamai", "akama"));
  EXPECT_TRUE(icontains("INTERNAP-BLK Network Services", "internap"));
  EXPECT_FALSE(icontains("Cloudflare Inc", "akamai"));
  EXPECT_TRUE(icontains("anything", ""));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("www.example.com", "www."));
  EXPECT_FALSE(starts_with("example.com", "www."));
  EXPECT_TRUE(ends_with("a495.g.akamai.net", ".akamai.net"));
  EXPECT_FALSE(ends_with("net", ".akamai.net"));
}

TEST(Strings, ParseU64) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616", v));  // overflow
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("12a", v));
  EXPECT_FALSE(parse_u64("-1", v));
}

TEST(Strings, HexAndFormat) {
  const std::vector<std::uint8_t> data = {0x00, 0xFF, 0x5A};
  EXPECT_EQ(to_hex(data), "00ff5a");
  EXPECT_EQ(format_percent(0.0612, 1), "6.1%");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(42), "42");
}

TEST(Strings, JsonEscapeCoversEveryBranch) {
  EXPECT_EQ(json_escape("example.com"), "example.com");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(json_escape("\x01\x1f"), "\\u0001\\u001f");
  // DEL and UTF-8 bytes (U+00E9) pass through unchanged.
  EXPECT_EQ(json_escape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
}

// --- stats ---------------------------------------------------------------

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  EXPECT_EQ(acc.mean(), 0.0);
  acc.add(2);
  acc.add(4);
  acc.add(6);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(), 4.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 6.0);
  EXPECT_NEAR(acc.variance(), 8.0 / 3.0, 1e-12);
}

TEST(Stats, AccumulatorMerge) {
  Accumulator a;
  Accumulator b;
  a.add(1);
  a.add(2);
  b.add(3);
  b.add(4);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
}

TEST(Stats, BinnerAssignsPaperBins) {
  RankBinner binner(1'000'000, 10'000);
  EXPECT_EQ(binner.bin_count(), 100u);
  EXPECT_EQ(binner.bin_index(1), 0u);
  EXPECT_EQ(binner.bin_index(10'000), 0u);
  EXPECT_EQ(binner.bin_index(10'001), 1u);
  EXPECT_EQ(binner.bin_index(1'000'000), 99u);
  EXPECT_EQ(binner.bin_index(2'000'000), 99u);  // clamped
  EXPECT_EQ(binner.bin_lo(0), 1u);
  EXPECT_EQ(binner.bin_hi(0), 10'000u);
  EXPECT_EQ(binner.bin_lo(99), 990'001u);
  EXPECT_EQ(binner.bin_hi(99), 1'000'000u);
}

TEST(Stats, BinnerAccumulates) {
  RankBinner binner(100, 10);
  binner.add(5, 1.0);
  binner.add(7, 3.0);
  binner.add(95, 10.0);
  EXPECT_DOUBLE_EQ(binner.bin(0).mean(), 2.0);
  EXPECT_DOUBLE_EQ(binner.bin(9).mean(), 10.0);
  const auto means = binner.bin_means();
  EXPECT_EQ(means.size(), 10u);
  EXPECT_DOUBLE_EQ(means[1], 0.0);  // empty bin reports 0
}

TEST(Stats, BinnerRoundsUpPartialBin) {
  RankBinner binner(95, 10);
  EXPECT_EQ(binner.bin_count(), 10u);
  EXPECT_EQ(binner.bin_hi(9), 95u);
}

// --- table ----------------------------------------------------------------

TEST(Table, AlignsColumns) {
  TextTable table({"name", "count"});
  table.add_row({"a", "1"});
  table.add_row({"long-name", "22"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-name  22"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  TextTable table({"k", "v"});
  table.add_row({"a,b", "say \"hi\""});
  table.add_row({"two\nlines", "plain"});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_EQ(os.str(),
            "k,v\n\"a,b\",\"say \"\"hi\"\"\"\n\"two\nlines\",plain\n");
}

// --- URL helpers ------------------------------------------------------------

TEST(Url, SplitTarget) {
  const UrlTarget split = split_target("/v1/domain/x?verbose=1&raw");
  EXPECT_EQ(split.path, "/v1/domain/x");
  EXPECT_EQ(split.query, "verbose=1&raw");

  EXPECT_EQ(split_target("/metrics").path, "/metrics");
  EXPECT_TRUE(split_target("/metrics").query.empty());
  // Only the FIRST '?' splits; later ones belong to the query.
  EXPECT_EQ(split_target("/p?a=1?b=2").query, "a=1?b=2");
  EXPECT_TRUE(split_target("").path.empty());
}

TEST(Url, PercentDecode) {
  EXPECT_EQ(percent_decode("10.0.0.0%2F16").value_or(""), "10.0.0.0/16");
  EXPECT_EQ(percent_decode("a%20b%2fc").value_or(""), "a b/c");  // lowercase hex
  EXPECT_EQ(percent_decode("plain").value_or(""), "plain");
  // '+' is a path character here, not a form-encoded space.
  EXPECT_EQ(percent_decode("a+b").value_or(""), "a+b");
  EXPECT_FALSE(percent_decode("bad%zz").has_value());
  EXPECT_FALSE(percent_decode("trunc%2").has_value());
  EXPECT_FALSE(percent_decode("bare%").has_value());
}

TEST(Url, SplitPathSegments) {
  const auto segments = split_path_segments("/v1/prefix/10.0.0.0%2F16/65001");
  ASSERT_TRUE(segments.has_value());
  ASSERT_EQ(segments->size(), 4u);
  EXPECT_EQ((*segments)[0], "v1");
  EXPECT_EQ((*segments)[2], "10.0.0.0/16");

  // Empty segments collapse; root is an empty list.
  EXPECT_EQ(split_path_segments("/v1//domain/")->size(), 2u);
  EXPECT_TRUE(split_path_segments("/")->empty());
  // A bad escape in ANY segment poisons the whole split.
  EXPECT_FALSE(split_path_segments("/v1/bad%GG").has_value());
}

}  // namespace
}  // namespace ripki::util
