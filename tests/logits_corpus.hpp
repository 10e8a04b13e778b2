#pragma once
/// \file logits_corpus.hpp
/// The classifier-bits corpus: every classifier kind x a fixed set of
/// generated formulas, each run forward and backward once through the
/// training executor. `tests/golden_logits.inc` (builds with FMA) and
/// `tests/golden_logits_no_fma.inc` (builds without) hold the logit bits
/// and a hash of every parameter gradient the product kernels produced on
/// this grid; test_nn_executor replays the one for its build and
/// gen_trajectory_golden logits reprints it. Unlike the eager oracle,
/// which calls the same kernels as the executor, the tables see any change
/// to the float operations of matmul / AᵀB / SpMM (or any other op) as a
/// changed bit.

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "graph/graph.hpp"
#include "nn/executor.hpp"
#include "nn/models.hpp"

namespace ns::testing {

/// Parity and adder miters, community and random 3-SAT. Node counts
/// (variables + clauses, 2·variables + clauses) are not multiples of 4, so
/// the kernels' row tails run as well as their full blocks.
inline std::vector<std::pair<std::string, CnfFormula>> logits_formulas() {
  std::vector<std::pair<std::string, CnfFormula>> out;
  out.emplace_back("parity_5", gen::parity_equivalence(5, false, 1));
  out.emplace_back("parity_7_bug", gen::parity_equivalence(7, true, 2));
  out.emplace_back("parity_9", gen::parity_equivalence(9, false, 3));
  out.emplace_back("adder_3", gen::adder_equivalence(3, false, 4));
  out.emplace_back("adder_4_bug", gen::adder_equivalence(4, true, 5));
  out.emplace_back("adder_5_scrambled",
                   gen::scramble(gen::adder_equivalence(5, false, 6), 7));
  out.emplace_back("community_41", gen::community_sat(41, 173, 4, 0.8, 8));
  out.emplace_back("community_67", gen::community_sat(67, 287, 5, 0.8, 9));
  out.emplace_back("ksat_13_57", gen::random_ksat(13, 57, 3, 10));
  out.emplace_back("ksat_30_127", gen::random_ksat(30, 127, 3, 11));
  out.emplace_back("ksat_51_219", gen::random_ksat(51, 219, 3, 12));
  out.emplace_back("ksat_70_297", gen::random_ksat(70, 297, 3, 13));
  return out;
}

/// Every Table-2 classifier, in `ClassifierKind` order.
inline constexpr nn::ClassifierKind kLogitsKinds[] = {
    nn::ClassifierKind::kNeuroSat, nn::ClassifierKind::kGin,
    nn::ClassifierKind::kNeuroSelectNoAttention,
    nn::ClassifierKind::kNeuroSelect};

struct LogitsBits {
  std::uint32_t logit = 0;     ///< bit pattern of the 1×1 logit
  std::uint64_t grad_hash = 0; ///< FNV-1a over every parameter gradient
};

/// Seeded model with every 1×1 parameter (the ReZero attention gates and
/// the head bias) opened at 0.5, as ExecutorParityTest does, so the
/// attention block reaches the logit and its weights get gradients. One
/// forward and one backward of a BCE loss through the training executor.
inline LogitsBits logits_bits(nn::ClassifierKind kind, const CnfFormula& f) {
  auto model = nn::make_classifier(kind, 7);
  for (nn::Parameter* p : model->parameters()) {
    if (p->value.rows() == 1 && p->value.cols() == 1) p->value.fill(0.5f);
  }
  const nn::GraphBatch g = nn::GraphBatch::build(f);
  nn::Program prog;
  const nn::TensorId logit = model->forward_logits(prog, g);
  const nn::TensorId loss = prog.bce_with_logits(logit, 1.0f, 2.0f);
  for (nn::Parameter* p : model->parameters()) p->zero_grad();
  nn::Executor exec(prog, nn::ExecMode::kTraining);
  exec.forward();
  exec.backward(loss);

  LogitsBits out;
  std::memcpy(&out.logit, exec.value(logit).data(), sizeof(out.logit));
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const nn::Parameter* p : model->parameters()) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p->grad.data());
    for (std::size_t i = 0; i < p->grad.size() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  out.grad_hash = h;
  return out;
}

}  // namespace ns::testing
