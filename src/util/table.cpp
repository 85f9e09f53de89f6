#include "util/table.hpp"

#include <algorithm>
#include <cassert>

#include "util/strings.hpp"

namespace ripki::util {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
  assert(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  }
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c] << std::string(widths[c] - row[c].size(), ' ');
      os << (c + 1 == row.size() ? "\n" : "  ");
    }
  };
  emit(header_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) rule += widths[c] + (c + 1 == widths.size() ? 0 : 2);
  os << std::string(rule, '-') << "\n";
  for (const auto& row : rows_) emit(row);
}

void TextTable::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << csv_escape(row[c]) << (c + 1 == row.size() ? "\n" : ",");
    }
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

}  // namespace ripki::util
