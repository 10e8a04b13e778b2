#pragma once
/// \file models.hpp
/// The paper's NeuroSelect classifier (Sec. 4) and the two baselines of
/// Table 2, each recording its forward pass onto a `Program`:
///
///  - `NeuroSelectModel`: L Hybrid-Graph-Transformer layers, each = 3
///    message-passing layers (Eqs. 6–7) + a linear-attention block over
///    variable nodes (Eqs. 8–9); mean READOUT over variables (Eq. 10) + MLP.
///    The attention block can be disabled for the "w/o attention" ablation.
///  - `GinModel`: Graph Isomorphism Network on the variable–clause graph
///    (the G4SATBench baseline).
///  - `NeuroSatModel`: literal–clause graph with LSTM message passing
///    (the NeuroSAT baseline).
///
/// Every model records one forward over one `GraphBatch`, the cached
/// sparse operators of one CNF instance (DESIGN.md §13).

#include <memory>
#include <string_view>

#include "graph/graph.hpp"
#include "nn/executor.hpp"
#include "nn/layers.hpp"
#include "nn/sparse.hpp"

namespace ns::nn {

/// Cached sparse operators for the variable–clause graph. Transposes (for
/// the backward pass) are cached inside each SparseMatrix on first use.
struct VcGraphTensors {
  std::size_t num_vars = 0;
  std::size_t num_clauses = 0;
  SparseMatrix svc;  ///< vars×clauses, mean-normalized (Eq. 6)
  SparseMatrix scv;  ///< clauses×vars, mean-normalized
  SparseMatrix avc;  ///< vars×clauses, raw signed weights (GIN sum)
  SparseMatrix acv;  ///< clauses×vars, raw signed weights

  static VcGraphTensors build(const graph::VcGraph& g);
};

/// Cached sparse operators for the literal–clause graph (NeuroSAT).
struct LcGraphTensors {
  std::size_t num_lits = 0;
  std::size_t num_clauses = 0;
  SparseMatrix mlc;  ///< lits×clauses incidence
  SparseMatrix mcl;  ///< clauses×lits incidence
  std::vector<std::uint32_t> flip;  ///< row permutation pairing l with ~l

  static LcGraphTensors build(const graph::LcGraph& g);
};

/// Everything a classifier may need for one instance.
struct GraphBatch {
  VcGraphTensors vc;
  LcGraphTensors lc;

  static GraphBatch build(const CnfFormula& f);
};

/// Common interface of the Table-2 classifiers. The logit is for the
/// positive class "the frequency-guided deletion policy wins" (label 1).
class SatClassifier : public Module {
 public:
  virtual std::string_view name() const = 0;

  /// Records the forward pass over one instance's graph on `prog` and
  /// returns its (1×1) logit. The graph must have at least one variable and
  /// one clause.
  virtual TensorId forward_logits(Program& prog, const GraphBatch& g) = 0;

  /// Inference convenience: P(label == 1). Records once and runs an
  /// inference-mode executor (no gradient storage, planned workspace); for
  /// repeated queries on the same graph keep an `InferenceSession` instead.
  float predict_probability(const GraphBatch& g);
};

/// The one verified compile step: runs the recorded program through the
/// static IR verifier, plans an executor, and proves its workspace
/// alias-safe before the first forward(). A corrupted or mis-recorded model
/// is an `audit::AuditError` here, not a wrong probability or gradient
/// downstream. `InferenceSession` and the trainer's compile cache both
/// build their executors through it.
std::unique_ptr<Executor> make_verified_executor(const Program& prog,
                                                 ExecMode mode);

/// Records a classifier's forward over one instance once, then re-executes
/// it against a liveness-planned inference workspace. Repeated predictions
/// read the model's *current* parameter values and perform zero heap
/// allocations per call after construction (with a single-thread kernel
/// pool; multi-thread fan-out allocates inside the pool dispatch). The
/// model and the graph whose operators the program binds must outlive the
/// session. Many graphs run as one session each across the pool
/// (`core::classify_batch`).
class InferenceSession {
 public:
  InferenceSession(SatClassifier& model, const GraphBatch& g);

  /// P(label == 1) for the session's graph.
  float predict_probability();

 private:
  Program prog_;
  TensorId logit_;
  std::unique_ptr<Executor> exec_;
};

/// One message-passing layer over the bipartite graph (Eqs. 6–7). The MLPs
/// of the equations are single linear layers, as in the paper.
class MpnnLayer : public Module {
 public:
  MpnnLayer() = default;
  MpnnLayer(std::size_t dim, std::mt19937_64& rng);

  /// (x_vars, x_clauses) -> (x_vars', x_clauses').
  std::pair<TensorId, TensorId> forward(Program& prog, const VcGraphTensors& g,
                                        TensorId xv, TensorId xc);

  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  Linear msg_from_clause_, msg_from_var_;  ///< Eq. 6's MLP(h_u)
  Linear self_var_, self_clause_;          ///< Eq. 7's inner MLP(h_v)
  Linear upd_var_, upd_clause_;            ///< Eq. 7's outer MLP
};

/// SGFormer-style linear attention (Eqs. 8–9): O(N·d²) time, O(N·d) memory.
class LinearAttention : public Module {
 public:
  LinearAttention() = default;
  LinearAttention(std::size_t dim, std::mt19937_64& rng);

  /// Attention over the rows of `z` (one graph's variable nodes).
  TensorId forward(Program& prog, TensorId z);

  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  Linear fq_, fk_, fv_;
};

/// One Hybrid Graph Transformer layer (Sec. 4.3): `mpnn_depth` MPNN layers
/// followed by linear attention over variable nodes (Eqs. 3–5).
class HgtLayer : public Module {
 public:
  HgtLayer() = default;
  HgtLayer(std::size_t dim, std::size_t mpnn_depth, bool use_attention,
           std::mt19937_64& rng);

  std::pair<TensorId, TensorId> forward(Program& prog, const VcGraphTensors& g,
                                        TensorId xv, TensorId xc);

  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  std::vector<MpnnLayer> mpnn_;
  LinearAttention attention_;
  Parameter attention_gate_;  ///< ReZero-style scalar, initialized to 0
  bool use_attention_ = true;
};

/// Hyper-parameters of NeuroSelect (paper Sec. 5.2 defaults).
struct NeuroSelectConfig {
  std::size_t hidden_dim = 32;
  std::size_t num_hgt_layers = 2;
  std::size_t mpnn_per_hgt = 3;
  bool use_attention = true;
  std::uint64_t seed = 1;
};

/// The paper's model (Sec. 4).
class NeuroSelectModel final : public SatClassifier {
 public:
  explicit NeuroSelectModel(const NeuroSelectConfig& config = {});

  std::string_view name() const override {
    return config_.use_attention ? "NeuroSelect" : "NeuroSelect-w/o-attention";
  }
  TensorId forward_logits(Program& prog, const GraphBatch& g) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  const NeuroSelectConfig& config() const { return config_; }

 private:
  NeuroSelectConfig config_;
  Parameter var_embed_;     ///< initial variable embedding (paper: 1)
  Parameter clause_embed_;  ///< initial clause embedding (paper: 0)
  std::vector<HgtLayer> layers_;
  Mlp head_;
};

/// GIN baseline (G4SATBench-style) on the variable–clause graph.
class GinModel final : public SatClassifier {
 public:
  GinModel(std::size_t hidden_dim, std::size_t num_layers, std::uint64_t seed);

  std::string_view name() const override { return "G4SATBench-GIN"; }
  TensorId forward_logits(Program& prog, const GraphBatch& g) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  struct GinLayer {
    Mlp var_mlp;
    Mlp clause_mlp;
  };
  Parameter var_embed_, clause_embed_;
  std::vector<GinLayer> layers_;
  Mlp head_;
};

/// NeuroSAT baseline: literal–clause graph, LSTM message passing.
class NeuroSatModel final : public SatClassifier {
 public:
  NeuroSatModel(std::size_t hidden_dim, std::size_t num_rounds,
                std::uint64_t seed);

  std::string_view name() const override { return "NeuroSAT"; }
  TensorId forward_logits(Program& prog, const GraphBatch& g) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

 private:
  std::size_t rounds_;
  Parameter lit_embed_, clause_embed_;
  Mlp lit_msg_, clause_msg_;
  LstmCell lit_update_, clause_update_;
  Mlp head_;
};

/// Factory covering all Table-2 rows.
enum class ClassifierKind {
  kNeuroSat,
  kGin,
  kNeuroSelectNoAttention,
  kNeuroSelect,
};
std::unique_ptr<SatClassifier> make_classifier(ClassifierKind kind,
                                               std::uint64_t seed);

}  // namespace ns::nn
