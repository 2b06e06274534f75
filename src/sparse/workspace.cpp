#include "sparse/workspace.hpp"

namespace evedge::sparse {

float* ConvScratch::col_buffer(std::size_t size) {
  if (col.size() < size) col.resize(size);
  return col.data();
}

std::uint8_t* ConvScratch::active_buffer(std::size_t size) {
  if (active.size() < size) active.resize(size, 0);
  return active.data();
}

std::int16_t* ConvScratch::qin_buffer(std::size_t size) {
  if (qin.size() < size) qin.resize(size);
  return qin.data();
}

std::int16_t* ConvScratch::qcol_buffer(std::size_t size) {
  if (qcol.size() < size) qcol.resize(size);
  return qcol.data();
}

std::int32_t* ConvScratch::iacc_buffer(std::size_t size) {
  if (iacc.size() < size) iacc.resize(size);
  return iacc.data();
}

std::vector<float>& Workspace::packed_slot(int key) {
  return packed_slots_[key];
}

std::size_t Workspace::retained_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& [key, packed] : packed_slots_) {
    bytes += packed.capacity() * sizeof(float);
  }
  const ConvScratch& s = scratch_;
  bytes += s.col.capacity() * sizeof(float);
  bytes += s.active.capacity() * sizeof(std::uint8_t);
  bytes += s.sites.capacity() * sizeof(std::int32_t);
  bytes += s.taps.capacity() * sizeof(GatherTap);
  bytes += s.site_ptr.capacity() * sizeof(std::size_t);
  bytes += s.rank.capacity() * sizeof(std::int32_t);
  bytes += s.cursor.capacity() * sizeof(std::size_t);
  bytes += s.tap_stage.capacity() * sizeof(GatherTap);
  bytes += s.tap_site.capacity() * sizeof(std::int32_t);
  bytes += s.packed_w.capacity() * sizeof(float);
  bytes += s.qin.capacity() * sizeof(std::int16_t);
  bytes += s.qcol.capacity() * sizeof(std::int16_t);
  bytes += s.qtaps.capacity() * sizeof(std::int16_t);
  bytes += s.iacc.capacity() * sizeof(std::int32_t);
  return bytes;
}

void Workspace::clear() noexcept {
  scratch_ = ConvScratch{};
  packed_slots_.clear();
}

}  // namespace evedge::sparse
