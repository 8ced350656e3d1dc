// Aligned text-table printer.
//
// Every figure-reproduction bench prints its series through this so the
// output is uniform and diffable.
#pragma once

#include <string>
#include <vector>

namespace sap {

/// Accumulates rows of cells and renders them with per-column alignment.
///
/// Usage:
///   Table t({"dataset", "k", "rate"});
///   t.add_row({"Diabetes", "5", "0.947"});
///   std::cout << t.str();
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append one row; must have exactly as many cells as the header.
  void add_row(std::vector<std::string> cells);

  /// Render with two-space gutters, header underline, right-aligned numerics.
  [[nodiscard]] std::string str() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  /// Raw cells, for machine-readable re-emission (see bench_util's JSON).
  [[nodiscard]] const std::vector<std::string>& header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& row_data() const noexcept {
    return rows_;
  }

  /// Format a double with fixed precision (helper for cells).
  static std::string num(double v, int precision = 3);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sap
