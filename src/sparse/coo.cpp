#include "sparse/coo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace evedge::sparse {

namespace {

[[nodiscard]] bool coord_less(const CooEntry& a, const CooEntry& b) noexcept {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}

void validate_extents(int height, int width) {
  if (height <= 0 || width <= 0) {
    throw std::invalid_argument("CooChannel extents must be positive: " +
                                std::to_string(height) + "x" +
                                std::to_string(width));
  }
}

}  // namespace

CooChannel::CooChannel(int height, int width)
    : height_(height), width_(width) {
  validate_extents(height, width);
}

CooChannel CooChannel::from_entries(int height, int width,
                                    std::vector<CooEntry> entries) {
  CooChannel ch(height, width);
  std::sort(entries.begin(), entries.end(), coord_less);
  ch.entries_.reserve(entries.size());
  for (const CooEntry& e : entries) {
    if (e.row < 0 || e.row >= height || e.col < 0 || e.col >= width) {
      throw std::invalid_argument("COO entry outside channel extents");
    }
    if (!ch.entries_.empty() && ch.entries_.back().row == e.row &&
        ch.entries_.back().col == e.col) {
      ch.entries_.back().value += e.value;
    } else {
      ch.entries_.push_back(e);
    }
  }
  std::erase_if(ch.entries_,
                [](const CooEntry& e) { return e.value == 0.0f; });
  return ch;
}

CooChannel CooChannel::from_sorted_entries(int height, int width,
                                           std::vector<CooEntry> entries) {
  CooChannel ch(height, width);
  ch.entries_ = std::move(entries);
  return ch;
}

double CooChannel::density() const noexcept {
  const auto total = static_cast<double>(height_) * width_;
  return total > 0.0 ? static_cast<double>(entries_.size()) / total : 0.0;
}

void CooChannel::prune_negative() noexcept {
  row_ptr_valid_ = false;
  std::erase_if(entries_, [](const CooEntry& e) { return e.value < 0.0f; });
}

void CooChannel::accumulate(std::int32_t row, std::int32_t col, float value) {
  if (row < 0 || row >= height_ || col < 0 || col >= width_) {
    throw std::out_of_range("CooChannel::accumulate outside extents");
  }
  if (value == 0.0f) return;
  row_ptr_valid_ = false;
  const CooEntry probe{row, col, 0.0f};
  auto it = std::lower_bound(entries_.begin(), entries_.end(), probe,
                             coord_less);
  if (it != entries_.end() && it->row == row && it->col == col) {
    it->value += value;
    if (it->value == 0.0f) entries_.erase(it);
  } else {
    entries_.insert(it, CooEntry{row, col, value});
  }
}

float CooChannel::at(std::int32_t row, std::int32_t col) const noexcept {
  const CooEntry probe{row, col, 0.0f};
  const auto it = std::lower_bound(entries_.begin(), entries_.end(), probe,
                                   coord_less);
  if (it != entries_.end() && it->row == row && it->col == col) {
    return it->value;
  }
  return 0.0f;
}

const std::vector<std::int32_t>& CooChannel::row_ptr() const {
  if (!row_ptr_valid_) {
    row_ptr_.assign(static_cast<std::size_t>(height_) + 1, 0);
    for (const CooEntry& e : entries_) {
      ++row_ptr_[static_cast<std::size_t>(e.row) + 1];
    }
    for (std::size_t r = 1; r < row_ptr_.size(); ++r) {
      row_ptr_[r] += row_ptr_[r - 1];
    }
    row_ptr_valid_ = true;
  }
  return row_ptr_;
}

std::span<const CooEntry> CooChannel::row_span(std::int32_t row) const {
  if (row < 0 || row >= height_) {
    throw std::out_of_range("CooChannel::row_span outside extents");
  }
  const auto& ptr = row_ptr();
  const auto lo = static_cast<std::size_t>(ptr[static_cast<std::size_t>(row)]);
  const auto hi =
      static_cast<std::size_t>(ptr[static_cast<std::size_t>(row) + 1]);
  return std::span<const CooEntry>(entries_.data() + lo, hi - lo);
}

double CooChannel::value_sum() const noexcept {
  double acc = 0.0;
  for (const CooEntry& e : entries_) acc += static_cast<double>(e.value);
  return acc;
}

void CooChannel::validate() const {
  validate_extents(height_, width_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const CooEntry& e = entries_[i];
    if (e.row < 0 || e.row >= height_ || e.col < 0 || e.col >= width_) {
      throw std::logic_error("COO entry outside extents");
    }
    if (e.value == 0.0f) throw std::logic_error("explicit zero stored");
    if (i > 0 && !coord_less(entries_[i - 1], e)) {
      throw std::logic_error("COO entries not strictly sorted");
    }
  }
}

CooChannel add(const CooChannel& a, const CooChannel& b, float scale_b) {
  if (a.height() != b.height() || a.width() != b.width()) {
    throw std::invalid_argument("CooChannel add: extent mismatch");
  }
  CooChannel out(a.height(), a.width());
  std::vector<CooEntry> merged;
  merged.reserve(a.nnz() + b.nnz());
  std::size_t i = 0;
  std::size_t j = 0;
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  while (i < ea.size() || j < eb.size()) {
    if (j >= eb.size() ||
        (i < ea.size() && coord_less(ea[i], eb[j]))) {
      merged.push_back(ea[i++]);
    } else if (i >= ea.size() || coord_less(eb[j], ea[i])) {
      merged.push_back(CooEntry{eb[j].row, eb[j].col,
                                eb[j].value * scale_b});
      ++j;
    } else {
      const float v = ea[i].value + eb[j].value * scale_b;
      if (v != 0.0f) merged.push_back(CooEntry{ea[i].row, ea[i].col, v});
      ++i;
      ++j;
    }
  }
  std::erase_if(merged, [](const CooEntry& e) { return e.value == 0.0f; });
  return CooChannel::from_entries(a.height(), a.width(), std::move(merged));
}

CooChannel scale(const CooChannel& a, float factor) {
  std::vector<CooEntry> entries = a.entries();
  for (CooEntry& e : entries) e.value *= factor;
  return CooChannel::from_entries(a.height(), a.width(), std::move(entries));
}

}  // namespace evedge::sparse
