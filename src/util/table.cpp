#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace drlnoc::util {

std::string fmt(double value, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << value;
  return oss.str();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& value) {
  rows_.back().push_back(value);
  return *this;
}

Table& Table::cell(const char* value) { return cell(std::string(value)); }

Table& Table::cell(double value, int precision) {
  return cell(fmt(value, precision));
}

Table& Table::cell(long long value) { return cell(std::to_string(value)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& text = c < cells.size() ? cells[c] : std::string{};
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << text;
    }
    os << '\n';
  };

  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
}

}  // namespace drlnoc::util
