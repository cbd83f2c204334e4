// Fixed-width console tables for the benchmark harnesses.
// Every bench binary prints its paper table/figure through this formatter so
// the output stays uniform and machine-greppable.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace drlnoc::util {

/// Column-aligned text table. Cells are strings; numeric helpers format
/// with fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent cell() calls append to it.
  Table& row();
  Table& cell(const std::string& value);
  Table& cell(const char* value);
  Table& cell(double value, int precision = 3);
  Table& cell(long long value);
  Table& cell(int value) { return cell(static_cast<long long>(value)); }
  Table& cell(std::size_t value) {
    return cell(static_cast<long long>(value));
  }

  /// Renders with column padding and a header underline.
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (helper shared with log lines).
std::string fmt(double value, int precision = 3);

}  // namespace drlnoc::util
