// Small string helpers shared across parsers and report printers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ripki::util {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

/// True when `haystack` contains `needle` case-insensitively.
bool icontains(std::string_view haystack, std::string_view needle);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Joins items with `sep`.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Parses a non-negative decimal integer; fails on any non-digit or overflow.
bool parse_u64(std::string_view s, std::uint64_t& out);

/// Hex encoding of arbitrary bytes (lowercase, no separators).
std::string to_hex(const std::uint8_t* data, std::size_t len);
std::string to_hex(const std::vector<std::uint8_t>& data);

/// Escapes `s` for the inside of a JSON string literal: `"`, `\`, `\n`,
/// `\r` and `\t` become two-character escapes, other bytes below 0x20
/// become `\u00XX`, and every other byte (UTF-8 included) passes through.
std::string json_escape(std::string_view s);

/// One CSV field, RFC 4180-style: quoted (with `"` doubled) when it holds
/// a comma, a quote or a newline; returned unchanged otherwise.
std::string csv_escape(std::string_view field);

/// printf-style number formatting helpers for report tables.
std::string format_percent(double fraction, int decimals = 2);
std::string format_count(std::uint64_t n);  // thousands separators

}  // namespace ripki::util
