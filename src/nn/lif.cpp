#include "nn/lif.hpp"

#include <stdexcept>
#include <utility>

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
    : shape_(shape),
      params_(params),
      channel_leak_(std::move(channel_leak)),
      channel_threshold_(std::move(channel_threshold)),
      membrane_(shape) {
  validate_lif(params_);
  sparse::validate_shape(shape_);
  if (!channel_leak_.empty() &&
      static_cast<int>(channel_leak_.size()) != shape_.c) {
    throw std::invalid_argument("per-channel leak size mismatch");
  }
  if (!channel_threshold_.empty() &&
      static_cast<int>(channel_threshold_.size()) != shape_.c) {
    throw std::invalid_argument("per-channel threshold size mismatch");
  }
  for (float l : channel_leak_) {
    if (l <= 0.0f || l > 1.0f) {
      throw std::invalid_argument("per-channel leak out of (0, 1]");
    }
  }
  for (float v : channel_threshold_) {
    if (v <= 0.0f) {
      throw std::invalid_argument("per-channel threshold must be > 0");
    }
  }
}

DenseTensor LifState::step(const DenseTensor& current) {
  if (!(current.shape() == shape_)) {
    throw std::invalid_argument("LIF step: input shape mismatch");
  }
  DenseTensor spikes(shape_);
  const auto plane = static_cast<std::size_t>(shape_.h) *
                     static_cast<std::size_t>(shape_.w);
  for (int n = 0; n < shape_.n; ++n) {
    for (int c = 0; c < shape_.c; ++c) {
      const float leak = channel_leak_.empty()
                             ? params_.leak
                             : channel_leak_[static_cast<std::size_t>(c)];
      const float vth =
          channel_threshold_.empty()
              ? params_.v_threshold
              : channel_threshold_[static_cast<std::size_t>(c)];
      const std::size_t base =
          (static_cast<std::size_t>(n) * static_cast<std::size_t>(shape_.c) +
           static_cast<std::size_t>(c)) *
          plane;
      for (std::size_t i = 0; i < plane; ++i) {
        float u = membrane_.data()[base + i] * leak +
                  current.data()[base + i];
        if (u >= vth) {
          spikes.data()[base + i] = 1.0f;
          u = params_.soft_reset ? u - vth : 0.0f;
          ++spikes_;
        }
        membrane_.data()[base + i] = u;
      }
    }
  }
  ++steps_;
  return spikes;
}

void LifState::step_sparse(const DenseTensor& current, SpikeCoo& spikes_out) {
  if (!(current.shape() == shape_)) {
    throw std::invalid_argument("LIF step: input shape mismatch");
  }
  spikes_out.assign(static_cast<std::size_t>(shape_.n),
                    std::vector<std::vector<sparse::CooEntry>>(
                        static_cast<std::size_t>(shape_.c)));
  const auto w = static_cast<std::size_t>(shape_.w);
  const auto plane = static_cast<std::size_t>(shape_.h) * w;
  for (int n = 0; n < shape_.n; ++n) {
    for (int c = 0; c < shape_.c; ++c) {
      const float leak = channel_leak_.empty()
                             ? params_.leak
                             : channel_leak_[static_cast<std::size_t>(c)];
      const float vth =
          channel_threshold_.empty()
              ? params_.v_threshold
              : channel_threshold_[static_cast<std::size_t>(c)];
      const std::size_t base =
          (static_cast<std::size_t>(n) * static_cast<std::size_t>(shape_.c) +
           static_cast<std::size_t>(c)) *
          plane;
      float* u = membrane_.raw() + base;
      const float* in = current.raw() + base;
      auto& entries =
          spikes_out[static_cast<std::size_t>(n)][static_cast<std::size_t>(c)];
      for (int y = 0; y < shape_.h; ++y) {
        for (int x = 0; x < shape_.w; ++x) {
          const std::size_t i = static_cast<std::size_t>(y) * w +
                                static_cast<std::size_t>(x);
          float v = u[i] * leak + in[i];
          if (v >= vth) {
            entries.push_back(sparse::CooEntry{y, x, 1.0f});
            v = params_.soft_reset ? v - vth : 0.0f;
            ++spikes_;
          }
          u[i] = v;
        }
      }
    }
  }
  ++steps_;
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
