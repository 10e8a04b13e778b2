/// Program/executor split: bitwise parity against the seed eager tape
/// (tests/eager_reference.hpp), the checked-in classifier bits
/// (tests/golden_logits.inc), recording-time shape diagnostics, the
/// inference-mode contract (no gradients, recycled intermediates), and the
/// liveness planner's buffer reuse.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>

#include "eager_reference.hpp"
#include "gen/generators.hpp"
#include "graph/graph.hpp"
#include "logits_corpus.hpp"
#include "nn/executor.hpp"
#include "nn/models.hpp"
#include "runtime/thread_pool.hpp"

namespace ns::nn {
namespace {

/// Bitwise equality: every float identical down to the bit pattern
/// (memcmp, so NaN payloads and signed zeros count too).
::testing::AssertionResult bitwise_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << a.rows() << "x" << a.cols() << " vs " << b.rows()
           << "x" << b.cols();
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first mismatch at flat index " << i << ": " << a.data()[i]
             << " vs " << b.data()[i];
    }
  }
  return ::testing::AssertionFailure() << "memcmp mismatch";
}

/// Opens every 1×1 parameter — the ReZero attention gates and the head
/// bias — at 0.5. Fresh models start the gates at exactly 0, where the
/// attention block adds 0 to the logit and every attention weight gets a
/// zero gradient, so an attention bug would be invisible.
void open_gates(SatClassifier& model) {
  for (Parameter* p : model.parameters()) {
    if (p->value.rows() == 1 && p->value.cols() == 1) p->value.fill(0.5f);
  }
}

std::vector<Matrix> snapshot_grads(const std::vector<Parameter*>& params) {
  std::vector<Matrix> out;
  out.reserve(params.size());
  for (Parameter* p : params) out.push_back(p->grad);
  return out;
}

class ExecutorParityTest
    : public ::testing::TestWithParam<std::tuple<ClassifierKind, int>> {
 protected:
  ~ExecutorParityTest() override { runtime::set_global_thread_count(0); }
};

/// The heart of the refactor's acceptance: for every classifier, at 1 and
/// 8 threads, with the attention gates open, the planned executor's forward
/// values and parameter gradients are bit-for-bit those of the seed eager
/// tape.
TEST_P(ExecutorParityTest, ForwardAndGradientsMatchEagerBitwise) {
  const auto [kind, threads] = GetParam();
  runtime::set_global_thread_count(static_cast<std::size_t>(threads));

  auto model = make_classifier(kind, 7);
  open_gates(*model);
  const GraphBatch g = GraphBatch::build(gen::random_ksat(12, 40, 3, 77));
  const std::vector<Parameter*> params = model->parameters();

  Program prog;
  const TensorId logit = model->forward_logits(prog, g);
  const TensorId loss = prog.bce_with_logits(logit, 1.0f, 2.0f);

  // Reference pass: replay the recorded program on the verbatim seed tape.
  for (Parameter* p : params) p->zero_grad();
  testing::EagerTape eager;
  testing::replay_on_eager(prog, eager);
  eager.backward(loss);
  const Matrix eager_logit = eager.value(logit);
  const Matrix eager_loss = eager.value(loss);
  const std::vector<Matrix> eager_grads = snapshot_grads(params);

  // Executor pass into the same Parameter objects, grads re-zeroed.
  for (Parameter* p : params) p->zero_grad();
  Executor exec(prog, ExecMode::kTraining);
  exec.forward();
  EXPECT_TRUE(bitwise_equal(exec.value(logit), eager_logit));
  EXPECT_TRUE(bitwise_equal(exec.value(loss), eager_loss));
  exec.backward(loss);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(params[i]->grad, eager_grads[i]))
        << "parameter " << i << " of " << model->name();
  }

  // Inference-mode executor on a loss-free recording (the deployment
  // shape, where the logit is the program output): same logit bits,
  // without any gradient state.
  Program iprog;
  const TensorId ilogit = model->forward_logits(iprog, g);
  Executor inf(iprog, ExecMode::kInference);
  inf.forward();
  EXPECT_TRUE(bitwise_equal(inf.value(ilogit), eager_logit));
}

std::string parity_case_name(
    const ::testing::TestParamInfo<std::tuple<ClassifierKind, int>>& info) {
  static const char* const names[] = {"NeuroSat", "Gin",
                                      "NeuroSelectNoAttention", "NeuroSelect"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) +
         "_t" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAt1And8Threads, ExecutorParityTest,
    ::testing::Combine(::testing::Values(ClassifierKind::kNeuroSat,
                                         ClassifierKind::kGin,
                                         ClassifierKind::kNeuroSelectNoAttention,
                                         ClassifierKind::kNeuroSelect),
                       ::testing::Values(1, 8)),
    parity_case_name);

struct LogitsGolden {
  int kind;  // ClassifierKind
  std::size_t formula;
  std::uint32_t logit;
  std::uint64_t grad_hash;
};

// One table per contraction mode: a build that fuses `y += a*x` into an
// FMA (x86 with __FMA__, as -march=native gives on an FMA host; aarch64)
// rounds once where a build without FMA rounds twice, so the bits differ.
const LogitsGolden kLogitsGolden[] = {
#if defined(__FMA__) || defined(__aarch64__)
#include "golden_logits.inc"
#else
#include "golden_logits_no_fma.inc"
#endif
};

class GoldenLogitsTest : public ::testing::TestWithParam<int> {
 protected:
  ~GoldenLogitsTest() override { runtime::set_global_thread_count(0); }
};

/// The eager oracle above shares the executor's product kernels, so a
/// kernel that changed a float operation would pass it. The checked-in
/// table was printed by an earlier build's kernels: every classifier's
/// logit and gradient bits must reproduce it, at one thread and at three
/// (uneven row chunks per pool worker).
TEST_P(GoldenLogitsTest, ClassifierBitsMatchCheckedInTable) {
  runtime::set_global_thread_count(static_cast<std::size_t>(GetParam()));
  const auto formulas = testing::logits_formulas();
  ASSERT_EQ(std::size(kLogitsGolden),
            std::size(testing::kLogitsKinds) * formulas.size());
  for (const LogitsGolden& g : kLogitsGolden) {
    const testing::LogitsBits b = testing::logits_bits(
        static_cast<ClassifierKind>(g.kind), formulas[g.formula].second);
    EXPECT_EQ(b.logit, g.logit)
        << "classifier " << g.kind << " on " << formulas[g.formula].first;
    EXPECT_EQ(b.grad_hash, g.grad_hash)
        << "classifier " << g.kind << " on " << formulas[g.formula].first;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenLogitsTest, ::testing::Values(1, 3));

TEST(ExecutorTest, RepeatedForwardIsBitwiseDeterministic) {
  auto model = make_classifier(ClassifierKind::kNeuroSelect, 3);
  const GraphBatch g = GraphBatch::build(gen::random_ksat(10, 32, 3, 5));
  Program prog;
  const TensorId logit = model->forward_logits(prog, g);
  Executor exec(prog, ExecMode::kInference);
  exec.forward();
  const Matrix first = exec.value(logit);
  exec.forward();
  EXPECT_TRUE(bitwise_equal(exec.value(logit), first));
}

TEST(ExecutorTest, InferenceSessionMatchesPredictProbability) {
  auto model = make_classifier(ClassifierKind::kNeuroSelectNoAttention, 9);
  const GraphBatch g = GraphBatch::build(gen::random_ksat(9, 30, 3, 11));
  InferenceSession session(*model, g);
  const float p1 = session.predict_probability();
  const float p2 = model->predict_probability(g);
  EXPECT_EQ(p1, p2);
  // Re-querying the session is stable too.
  EXPECT_EQ(session.predict_probability(), p1);
}

// --- workspace planner ----------------------------------------------------

TEST(ExecutorTest, InferencePlanReusesBuffersAcrossLiveRanges) {
  auto model = make_classifier(ClassifierKind::kNeuroSelect, 21);
  const GraphBatch g = GraphBatch::build(gen::random_ksat(12, 40, 3, 13));
  Program prog;
  model->forward_logits(prog, g);

  Executor inf(prog, ExecMode::kInference);
  Executor train(prog, ExecMode::kTraining);
  // Liveness planning must beat the one-buffer-per-node baseline by a wide
  // margin on a real model graph, in both dimensions.
  EXPECT_LT(inf.workspace_elements(), prog.total_value_elements());
  EXPECT_LT(2 * inf.workspace_elements(),
            prog.total_value_elements());
  EXPECT_LT(inf.workspace_buffers(), train.workspace_buffers());
}

TEST(ExecutorTest, TrainingModeKeepsEveryValueReadable) {
  // Training executors may not recycle: backward reads any forward value.
  Parameter w(Matrix::ones(2, 2));
  Program prog;
  const TensorId x = prog.param(&w);
  const TensorId a = prog.relu(x);
  const TensorId b = prog.add_scalar(a, 2.0f);
  const TensorId c = prog.mean_rows(b);
  Executor exec(prog, ExecMode::kTraining);
  exec.forward();
  EXPECT_FLOAT_EQ(exec.value(a).at(0, 0), 1.0f);  // intermediate still live
  EXPECT_FLOAT_EQ(exec.value(b).at(1, 1), 3.0f);
  EXPECT_FLOAT_EQ(exec.value(c).at(0, 0), 3.0f);
}

// --- inference-mode contract ---------------------------------------------

TEST(ExecutorTest, InferenceBackwardThrows) {
  Parameter w(Matrix::ones(1, 1));
  Program prog;
  const TensorId loss = prog.add_scalar(prog.param(&w), 2.0f);
  Executor exec(prog, ExecMode::kInference);
  exec.forward();
  EXPECT_THROW(exec.backward(loss), std::logic_error);
}

TEST(ExecutorTest, InferenceAllocatesNoGradientStorage) {
  Parameter w(Matrix::ones(1, 1));
  Program prog;
  const TensorId x = prog.param(&w);
  const TensorId y = prog.add_scalar(x, 2.0f);
  Executor exec(prog, ExecMode::kInference);
  exec.forward();
  EXPECT_FALSE(exec.has_grad(y));
  EXPECT_THROW(exec.grad(y), std::logic_error);
}

TEST(ExecutorTest, ConstantsNeverGetGradientStorage) {
  Parameter w(Matrix::ones(1, 1));
  Program prog;
  const TensorId c = prog.constant(Matrix::ones(1, 1));
  const TensorId x = prog.param(&w);
  const TensorId loss = prog.hadamard(c, x);
  Executor exec(prog, ExecMode::kTraining);
  exec.forward();
  exec.backward(loss);
  EXPECT_FALSE(exec.has_grad(c));
  EXPECT_THROW(exec.grad(c), std::logic_error);
  EXPECT_TRUE(exec.has_grad(x));
  EXPECT_FLOAT_EQ(w.grad.at(0, 0), 1.0f);
}

TEST(ExecutorTest, NodesRecordedAfterPlanningAreNeitherRunNorRead) {
  // An executor plans the instructions recorded before it was built. Growing
  // the program afterwards must not run the new node (it owns no slot), and
  // every accessor must refuse it; a new executor runs it.
  for (const ExecMode mode : {ExecMode::kInference, ExecMode::kTraining}) {
    Parameter w(Matrix(2, 2, 1.5f));
    Program prog;
    const TensorId planned = prog.relu(prog.param(&w));
    Executor exec(prog, mode);
    const TensorId late = prog.add_scalar(planned, 2.0f);
    exec.forward();
    EXPECT_FLOAT_EQ(exec.value(planned).at(1, 1), 1.5f);
    EXPECT_THROW(exec.value(late), std::logic_error);
    EXPECT_THROW(exec.has_grad(late), std::logic_error);
    EXPECT_THROW(exec.grad(late), std::logic_error);
    EXPECT_THROW(exec.backward(late), std::logic_error);
    if (mode == ExecMode::kTraining) {
      exec.backward(planned);  // the planned part still trains
      EXPECT_FLOAT_EQ(w.grad.at(0, 1), 1.0f);
    }

    Executor fresh(prog, mode);
    fresh.forward();
    EXPECT_FLOAT_EQ(fresh.value(late).at(0, 0), 3.5f);
  }
}

TEST(ExecutorTest, InferenceValueOfRecycledIntermediateThrows) {
  // In a long enough chain the planner recycles early buffers; reading one
  // back must be a diagnosed error, not stale data.
  Program prog;
  TensorId t = prog.constant(Matrix::ones(4, 4));
  const TensorId first_compute = prog.relu(t);
  t = first_compute;
  for (int i = 0; i < 4; ++i) t = prog.relu(prog.add_scalar(t, 1.5f));
  Executor exec(prog, ExecMode::kInference);
  exec.forward();
  EXPECT_NO_THROW(exec.value(t));  // final output is always live
  EXPECT_THROW(exec.value(first_compute), std::logic_error);
}

// --- recording-time shape diagnostics ------------------------------------

/// Expects `fn()` to throw std::invalid_argument whose message contains
/// `needle` (the op name, so the diagnostic identifies the bad call).
template <typename Fn>
void expect_shape_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument mentioning '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
  }
}

TEST(ProgramShapeTest, MatmulInnerDimensionMismatch) {
  Program prog;
  const TensorId a = prog.constant(Matrix::ones(2, 3));
  const TensorId b = prog.constant(Matrix::ones(2, 3));
  expect_shape_error([&] { prog.matmul(a, b); }, "matmul");
}

TEST(ProgramShapeTest, MatmulAtBRowCountMismatch) {
  Program prog;
  const TensorId a = prog.constant(Matrix::ones(4, 3));
  const TensorId b = prog.constant(Matrix::ones(5, 3));
  expect_shape_error([&] { prog.matmul_at_b(a, b); }, "matmul_at_b");
}

TEST(ProgramShapeTest, MeanRowsOfNoRowsRejected) {
  Program prog;
  const TensorId a = prog.constant(Matrix(0, 3));
  expect_shape_error([&] { prog.mean_rows(a); }, "mean_rows");
}

TEST(ProgramShapeTest, ElementwiseShapeMismatch) {
  Program prog;
  const TensorId a = prog.constant(Matrix::ones(2, 3));
  const TensorId b = prog.constant(Matrix::ones(3, 2));
  expect_shape_error([&] { prog.add(a, b); }, "add");
  expect_shape_error([&] { prog.sub(a, b); }, "sub");
  expect_shape_error([&] { prog.hadamard(a, b); }, "hadamard");
}

TEST(ProgramShapeTest, SpmmColumnMismatch) {
  const SparseMatrix s =
      SparseMatrix::from_coo(2, 3, {0}, {1}, {1.0f});  // needs 3-row operand
  Program prog;
  const TensorId x = prog.constant(Matrix::ones(4, 2));
  expect_shape_error([&] { prog.spmm(&s, x); }, "spmm");
}

TEST(ProgramShapeTest, BiasRowMustBeSingleRow) {
  Program prog;
  const TensorId x = prog.constant(Matrix::ones(4, 3));
  const TensorId b = prog.constant(Matrix::ones(2, 3));
  expect_shape_error([&] { prog.add_row_broadcast(x, b); },
                     "add_row_broadcast");
}

TEST(ProgramShapeTest, SliceOutOfRange) {
  Program prog;
  const TensorId a = prog.constant(Matrix::ones(2, 5));
  expect_shape_error([&] { prog.slice_cols(a, 3, 4); }, "slice_cols");
}

TEST(ProgramShapeTest, ConcatRowMismatch) {
  Program prog;
  const TensorId a = prog.constant(Matrix::ones(2, 2));
  const TensorId b = prog.constant(Matrix::ones(3, 2));
  expect_shape_error([&] { prog.concat_cols(a, b); }, "concat_cols");
}

TEST(ProgramShapeTest, PermutationMustMatchRowsAndBeInRange) {
  Program prog;
  const TensorId a = prog.constant(Matrix::ones(3, 2));
  expect_shape_error([&] { prog.permute_rows(a, {0, 1}); }, "permute_rows");
  expect_shape_error([&] { prog.permute_rows(a, {0, 1, 7}); },
                     "permute_rows");
}

TEST(ProgramShapeTest, BceRequiresScalarLogit) {
  Program prog;
  const TensorId a = prog.constant(Matrix::ones(2, 1));
  expect_shape_error([&] { prog.bce_with_logits(a, 1.0f); },
                     "bce_with_logits");
}

TEST(ProgramShapeTest, RowMulRequiresColumnVector) {
  Program prog;
  const TensorId x = prog.constant(Matrix::ones(3, 2));
  const TensorId s = prog.constant(Matrix::ones(3, 2));
  expect_shape_error([&] { prog.row_mul(x, s); }, "row_mul");
}

TEST(ProgramShapeTest, InvalidOperandHandleIsDiagnosed) {
  Program prog;
  expect_shape_error([&] { prog.relu(TensorId{5}); }, "TensorId 5");
  expect_shape_error([&] { prog.relu(TensorId{-1}); }, "TensorId");
}

TEST(ProgramShapeTest, ValidRecordingsStillSucceed) {
  // The validation layer must not reject well-formed graphs.
  Program prog;
  const TensorId a = prog.constant(Matrix::ones(2, 3));
  const TensorId b = prog.constant(Matrix::ones(3, 2));
  const TensorId y = prog.matmul(a, b);
  EXPECT_EQ(prog.rows(y), 2u);
  EXPECT_EQ(prog.cols(y), 2u);
  Executor exec(prog, ExecMode::kInference);
  exec.forward();
  EXPECT_FLOAT_EQ(exec.value(y).at(0, 0), 3.0f);
}

}  // namespace
}  // namespace ns::nn
