#include "nn/optim.h"

#include <cmath>

#include "common/check.h"

namespace calibre::nn {

Sgd::Sgd(std::vector<ag::VarPtr> params, const SgdConfig& config)
    : params_(std::move(params)), config_(config) {
  if (config_.momentum != 0.0f) {
    momentum_buffers_.reserve(params_.size());
    for (const ag::VarPtr& p : params_) {
      momentum_buffers_.emplace_back(p->value.rows(), p->value.cols());
    }
  }
}

namespace {

// y + a·x rounded as Tensor::axpy_ rounds it. tensor.cc compiles with GCC's
// default contraction, which fuses that product into an FMA exactly when
// the target has fast hardware FMA (FP_FAST_FMAF: CALIBRE_NATIVE=ON on an
// FMA host) and nowhere else. This file compiles with -ffp-contract=off, so
// the FMA here is explicit and every other product is rounded on its own.
inline float axpy(float a, float x, float y) {
#if defined(FP_FAST_FMAF)
  return std::fma(a, x, y);
#else
  return y + a * x;
#endif
}

// One pass over one parameter, rounding each element in the order the
// whole-tensor passes did: g = grad + wd·v, then buf·m, then + g (never
// contracted into an FMA: those were two passes), then v + (−lr)·buf.
template <bool kDecay, bool kMomentum>
void sgd_pass(float* __restrict value, const float* __restrict grad,
              float* __restrict buf, std::size_t n, const SgdConfig& config) {
  const float neg_lr = -config.learning_rate;
  const float decay = config.weight_decay;
  const float momentum = config.momentum;
  for (std::size_t i = 0; i < n; ++i) {
    float g = grad[i];
    if constexpr (kDecay) g = axpy(decay, value[i], g);
    if constexpr (kMomentum) {
      g = buf[i] * momentum + g;
      buf[i] = g;
    }
    value[i] = axpy(neg_lr, g, value[i]);
  }
}

}  // namespace

void Sgd::step() {
  const bool decay = config_.weight_decay != 0.0f;
  const bool momentum = config_.momentum != 0.0f;
  const auto pass = decay ? (momentum ? &sgd_pass<true, true>
                                      : &sgd_pass<true, false>)
                          : (momentum ? &sgd_pass<false, true>
                                      : &sgd_pass<false, false>);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    ag::VarPtr& p = params_[i];
    if (p->grad.size() == 0) continue;  // parameter unused in this graph
    CALIBRE_CHECK(p->grad.same_shape(p->value));
    pass(p->value.data(), p->grad.data(),
         momentum ? momentum_buffers_[i].data() : nullptr,
         static_cast<std::size_t>(p->value.size()), config_);
  }
}

void Sgd::zero_grad() {
  for (const ag::VarPtr& p : params_) p->zero_grad();
}

void ema_update(const std::vector<ag::VarPtr>& target,
                const std::vector<ag::VarPtr>& online, float m) {
  CALIBRE_CHECK(target.size() == online.size());
  for (std::size_t i = 0; i < target.size(); ++i) {
    CALIBRE_CHECK(target[i]->value.same_shape(online[i]->value));
    target[i]->value.scale_(m);
    target[i]->value.axpy_(1.0f - m, online[i]->value);
  }
}

void copy_parameters(const std::vector<ag::VarPtr>& dst,
                     const std::vector<ag::VarPtr>& src) {
  CALIBRE_CHECK(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    CALIBRE_CHECK(dst[i]->value.same_shape(src[i]->value));
    dst[i]->value = src[i]->value;
  }
}

}  // namespace calibre::nn
