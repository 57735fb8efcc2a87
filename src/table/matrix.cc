#include "table/matrix.h"

#include <algorithm>

namespace tabsketch::table {

Matrix::Matrix(size_t rows, size_t cols, std::vector<double> values)
    : rows_(rows), cols_(cols), values_(std::move(values)) {
  TABSKETCH_CHECK(values_.size() == rows * cols)
      << "value count " << values_.size() << " != " << rows << "*" << cols;
}

void Matrix::Fill(double value) {
  std::fill(values_.begin(), values_.end(), value);
}

TableView Matrix::View() const {
  return TableView(values_.data(), rows_, cols_, cols_);
}

TableView Matrix::Window(size_t row, size_t col, size_t rows,
                         size_t cols) const {
  TABSKETCH_CHECK(row + rows <= rows_ && col + cols <= cols_)
      << "window (" << row << "," << col << ")+" << rows << "x" << cols
      << " exceeds " << rows_ << "x" << cols_;
  return TableView(values_.data() + row * cols_ + col, rows, cols, cols_);
}

Matrix TableView::ToMatrix() const {
  Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    auto src = Row(r);
    std::copy(src.begin(), src.end(), out.Row(r).begin());
  }
  return out;
}

}  // namespace tabsketch::table
