#include "nn/lif.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <type_traits>

namespace evedge::nn {

void validate_lif(const LifParams& params) {
  if (params.leak <= 0.0f || params.leak > 1.0f) {
    throw std::invalid_argument("LIF leak must be in (0, 1]");
  }
  if (params.v_threshold <= 0.0f) {
    throw std::invalid_argument("LIF threshold must be > 0");
  }
}

LifState::LifState(TensorShape shape, LifParams params,
                   std::vector<float> channel_leak,
                   std::vector<float> channel_threshold)
    : shape_(shape), params_(params), membrane_(sparse::site_major(shape)) {
  validate_lif(params_);
  sparse::validate_shape(shape_);
  if (!channel_leak.empty() &&
      static_cast<int>(channel_leak.size()) != shape_.c) {
    throw std::invalid_argument("per-channel leak size mismatch");
  }
  if (!channel_threshold.empty() &&
      static_cast<int>(channel_threshold.size()) != shape_.c) {
    throw std::invalid_argument("per-channel threshold size mismatch");
  }
  for (float l : channel_leak) {
    if (l <= 0.0f || l > 1.0f) {
      throw std::invalid_argument("per-channel leak out of (0, 1]");
    }
  }
  for (float v : channel_threshold) {
    if (v <= 0.0f) {
      throw std::invalid_argument("per-channel threshold must be > 0");
    }
  }
  const auto c_count = static_cast<std::size_t>(shape_.c);
  const std::size_t row = static_cast<std::size_t>(shape_.w) * c_count;
  leak_row_.resize(row);
  threshold_row_.resize(row);
  // Whole 8-byte words, the tail zero: the spike scan reads words.
  fire_row_.assign((row + 7) / 8 * 8, 0);
  for (std::size_t i = 0; i < row; ++i) {
    const std::size_t c = i % c_count;
    leak_row_[i] = channel_leak.empty() ? params_.leak : channel_leak[c];
    threshold_row_[i] = channel_threshold.empty() ? params_.v_threshold
                                                  : channel_threshold[c];
  }
  if (std::has_single_bit(c_count)) {
    channel_shift_ = std::countr_zero(c_count);
  }
}

namespace {

/// One LIF step over `len` contiguous elements. The update is
/// branch-free — an integer mask selects the reset value where the
/// element fires — so the loop vectorizes, and each element's
/// arithmetic (u * leak + in, then u - vth on a soft reset) is the
/// branchy update's, so the results are bitwise equal to it. Each
/// element's spike goes to `spike` as 1 or 0 (a float spike row, or a
/// byte flag row for the spike scan).
template <bool kSoftReset, typename Spike>
std::uint32_t advance(float* __restrict u, const float* __restrict in,
                      const float* __restrict leak,
                      const float* __restrict vth, Spike* __restrict spike,
                      std::size_t len) noexcept {
  std::uint32_t fired = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const float v = u[i] * leak[i] + in[i];
    const std::uint32_t fire = v >= vth[i] ? 0xFFFFFFFFu : 0u;
    const float reset = kSoftReset ? v - vth[i] : 0.0f;
    u[i] = std::bit_cast<float>((std::bit_cast<std::uint32_t>(v) & ~fire) |
                                (std::bit_cast<std::uint32_t>(reset) & fire));
    if constexpr (std::is_same_v<Spike, float>) {
      spike[i] = std::bit_cast<float>(fire & std::bit_cast<std::uint32_t>(1.0f));
    } else {
      spike[i] = static_cast<Spike>(fire & 1u);
    }
    fired += fire & 1u;
  }
  return fired;
}

void require_shape(const DenseTensor& current, const TensorShape& want) {
  if (!(current.shape() == want)) {
    throw std::invalid_argument("LIF step: input shape mismatch");
  }
}

}  // namespace

template <typename Spike>
std::uint32_t LifState::advance_row(int n, int y, const float* current,
                                    Spike* spike_row) noexcept {
  const std::size_t len = leak_row_.size();
  const std::size_t off =
      (static_cast<std::size_t>(n) * static_cast<std::size_t>(shape_.h) +
       static_cast<std::size_t>(y)) *
      len;
  float* u = membrane_.raw() + off;
  const float* in = current + off;
  return params_.soft_reset
             ? advance<true>(u, in, leak_row_.data(), threshold_row_.data(),
                             spike_row, len)
             : advance<false>(u, in, leak_row_.data(), threshold_row_.data(),
                              spike_row, len);
}

template <typename Emit>
void LifState::for_each_spike(Emit&& emit) const {
  // Eight flags per word, visited lowest set bit first: a word with no
  // spike costs one test, and one with spikes one step per spike.
  const auto c_count = static_cast<std::size_t>(shape_.c);
  for (std::size_t i0 = 0; i0 < fire_row_.size(); i0 += 8) {
    std::uint64_t word;
    std::memcpy(&word, fire_row_.data() + i0, sizeof word);
    // Flag j must sit at bit 8j, as it does on a little-endian host.
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    while (word != 0) {
      const std::size_t i =
          i0 + static_cast<std::size_t>(std::countr_zero(word) >> 3);
      word &= word - 1;
      const std::size_t x =
          channel_shift_ >= 0 ? i >> channel_shift_ : i / c_count;
      emit(static_cast<int>(x), i - x * c_count);
    }
  }
}

void LifState::step_sites(const DenseTensor& current, DenseTensor& spikes) {
  require_shape(current, site_shape());
  spikes.reset(shape_);
  if (shape_.c == 1) {
    // One channel: a site-major row is the NCHW spike row itself.
    for (int n = 0; n < shape_.n; ++n) {
      for (int y = 0; y < shape_.h; ++y) {
        spikes_ += advance_row(n, y, current.raw(),
                               spikes.raw() + spikes.offset(n, 0, y, 0));
      }
    }
    ++steps_;
    return;
  }
  const std::size_t plane = spikes.stride_c();
  const auto w = static_cast<std::size_t>(shape_.w);
  for (int n = 0; n < shape_.n; ++n) {
    for (int y = 0; y < shape_.h; ++y) {
      const std::uint32_t fired =
          advance_row(n, y, current.raw(), fire_row_.data());
      // Zero this row of every channel plane while it is about to be
      // written anyway, then set the spikes.
      float* out = spikes.raw() + spikes.offset(n, 0, y, 0);
      for (int c = 0; c < shape_.c; ++c) {
        std::fill_n(out + static_cast<std::size_t>(c) * plane, w, 0.0f);
      }
      if (fired == 0) continue;
      spikes_ += fired;
      for_each_spike([&](int x, std::size_t c) {
        out[c * plane + static_cast<std::size_t>(x)] = 1.0f;
      });
    }
  }
  ++steps_;
}

void LifState::step_sites(const DenseTensor& current, SpikeCoo& spikes_out) {
  require_shape(current, site_shape());
  spikes_out.resize(static_cast<std::size_t>(shape_.n));
  for (auto& sample : spikes_out) {
    sample.resize(static_cast<std::size_t>(shape_.c));
    for (auto& entries : sample) entries.clear();
  }
  for (int n = 0; n < shape_.n; ++n) {
    auto& lists = spikes_out[static_cast<std::size_t>(n)];
    for (int y = 0; y < shape_.h; ++y) {
      const std::uint32_t fired =
          advance_row(n, y, current.raw(), fire_row_.data());
      if (fired == 0) continue;
      spikes_ += fired;
      // Sites in row-major order, so every channel's list stays sorted.
      for_each_spike([&](int x, std::size_t c) {
        lists[c].push_back(sparse::CooEntry{y, x, 1.0f});
      });
    }
  }
  ++steps_;
}

DenseTensor LifState::step(const DenseTensor& current) {
  require_shape(current, shape_);
  DenseTensor sites;
  sparse::to_site_major(current, sites);
  DenseTensor spikes;
  step_sites(sites, spikes);
  return spikes;
}

void LifState::step_sparse(const DenseTensor& current, SpikeCoo& spikes_out) {
  require_shape(current, shape_);
  DenseTensor sites;
  sparse::to_site_major(current, sites);
  step_sites(sites, spikes_out);
}

void LifState::reset() noexcept {
  for (float& v : membrane_.data()) v = 0.0f;
  steps_ = 0;
  spikes_ = 0;
}

double LifState::mean_firing_rate() const noexcept {
  const double sites = static_cast<double>(shape_.element_count()) *
                       static_cast<double>(steps_);
  return sites > 0.0 ? static_cast<double>(spikes_) / sites : 0.0;
}

}  // namespace evedge::nn
