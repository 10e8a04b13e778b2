#pragma once
/// Test-only helpers for recorded programs: one-shot evaluation and
/// numerical gradient checking.
///
/// `build` must record the forward computation on a fresh `Program` using
/// the supplied parameters and return a scalar (1×1) loss tensor. The check
/// perturbs every parameter entry with central differences and compares
/// against the analytic gradient from a training executor's backward().

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "nn/executor.hpp"

namespace ns::testing {

/// Value of `id` after one forward of a fresh training-mode executor over
/// `prog` (training mode keeps every node readable).
inline nn::Matrix forward_value(const nn::Program& prog, nn::TensorId id) {
  nn::Executor exec(prog, nn::ExecMode::kTraining);
  exec.forward();
  return exec.value(id);
}

using BuildFn = std::function<nn::TensorId(nn::Program&)>;

inline float eval_loss(const BuildFn& build) {
  nn::Program prog;
  const nn::TensorId loss = build(prog);
  EXPECT_EQ(prog.rows(loss), 1u);
  EXPECT_EQ(prog.cols(loss), 1u);
  return forward_value(prog, loss).at(0, 0);
}

/// Checks d(loss)/d(param) for every entry of every parameter.
inline void expect_gradients_match(std::vector<nn::Parameter*> params,
                                   const BuildFn& build, float eps = 5e-3f,
                                   float tol = 4e-2f) {
  // Analytic pass.
  for (nn::Parameter* p : params) p->zero_grad();
  {
    nn::Program prog;
    const nn::TensorId loss = build(prog);
    nn::Executor(prog, nn::ExecMode::kTraining).backward(loss);
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
