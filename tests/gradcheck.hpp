#pragma once
/// Test-only numerical gradient checking for the autograd tape.
///
/// `build` must construct the forward computation on a fresh tape using the
/// supplied parameters and return a scalar (1×1) loss tensor. The check
/// perturbs every parameter entry with central differences and compares
/// against the analytic gradient from backward().

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "nn/tape.hpp"

namespace ns::testing {

using BuildFn = std::function<nn::TensorId(nn::Tape&)>;

inline float eval_loss(const BuildFn& build) {
  nn::Tape tape;
  const nn::TensorId loss = build(tape);
  EXPECT_EQ(tape.value(loss).rows(), 1u);
  EXPECT_EQ(tape.value(loss).cols(), 1u);
  return tape.value(loss).at(0, 0);
}

/// Checks d(loss)/d(param) for every entry of every parameter.
inline void expect_gradients_match(std::vector<nn::Parameter*> params,
                                   const BuildFn& build, float eps = 5e-3f,
                                   float tol = 4e-2f) {
  // Analytic pass.
  for (nn::Parameter* p : params) p->zero_grad();
  {
    nn::Tape tape;
    const nn::TensorId loss = build(tape);
    tape.backward(loss);
  }
  // Numeric pass, entry by entry.
  std::size_t checked = 0;
  for (nn::Parameter* p : params) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const float saved = p->value.data()[i];
      p->value.data()[i] = saved + eps;
      const float up = eval_loss(build);
      p->value.data()[i] = saved - eps;
      const float down = eval_loss(build);
      p->value.data()[i] = saved;
      const float numeric = (up - down) / (2.0f * eps);
      const float analytic = p->grad.data()[i];
      const float scale =
          std::max({1.0f, std::abs(numeric), std::abs(analytic)});
      EXPECT_NEAR(analytic, numeric, tol * scale)
          << "param entry " << i << " (checked=" << checked << ")";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace ns::testing
