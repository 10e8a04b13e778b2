#include "nn/models.hpp"

#include <cmath>

#include "audit/verify_program.hpp"

namespace ns::nn {

std::unique_ptr<Executor> make_verified_executor(const Program& prog,
                                                 ExecMode mode) {
  audit::verify_program_or_throw(prog);
  auto exec = std::make_unique<Executor>(prog, mode);
  audit::verify_workspace_plan_or_throw(prog, exec->plan_snapshot());
  return exec;
}

// ---------------------------------------------------------------------------
// Graph tensor caches
// ---------------------------------------------------------------------------

VcGraphTensors VcGraphTensors::build(const graph::VcGraph& g) {
  VcGraphTensors t;
  t.num_vars = g.num_vars;
  t.num_clauses = g.num_clauses;

  std::vector<std::uint32_t> vr, cr;
  std::vector<float> w;
  vr.reserve(g.edges.size());
  cr.reserve(g.edges.size());
  w.reserve(g.edges.size());
  for (const graph::VcEdge& e : g.edges) {
    vr.push_back(e.var);
    cr.push_back(e.clause);
    w.push_back(e.weight);
  }

  t.avc = SparseMatrix::from_coo(g.num_vars, g.num_clauses, vr, cr, w);
  t.acv = SparseMatrix::from_coo(g.num_clauses, g.num_vars, cr, vr, w);

  t.svc = t.avc;
  t.svc.normalize_rows_by_degree();
  t.scv = t.acv;
  t.scv.normalize_rows_by_degree();
  return t;
}

LcGraphTensors LcGraphTensors::build(const graph::LcGraph& g) {
  LcGraphTensors t;
  t.num_lits = g.num_lits;
  t.num_clauses = g.num_clauses;

  std::vector<std::uint32_t> lr, cr;
  std::vector<float> w(g.edges.size(), 1.0f);
  lr.reserve(g.edges.size());
  cr.reserve(g.edges.size());
  for (const graph::LcGraph::Edge& e : g.edges) {
    lr.push_back(e.lit);
    cr.push_back(e.clause);
  }
  t.mlc = SparseMatrix::from_coo(g.num_lits, g.num_clauses, lr, cr, w);
  t.mcl = SparseMatrix::from_coo(g.num_clauses, g.num_lits, cr, lr, w);

  t.flip.resize(g.num_lits);
  for (std::uint32_t i = 0; i < g.num_lits; ++i) t.flip[i] = i ^ 1u;
  return t;
}

GraphBatch GraphBatch::build(const CnfFormula& f) {
  GraphBatch b;
  b.vc = VcGraphTensors::build(graph::build_vc_graph(f));
  b.lc = LcGraphTensors::build(graph::build_lc_graph(f));
  return b;
}

// ---------------------------------------------------------------------------
// SatClassifier
// ---------------------------------------------------------------------------

float SatClassifier::predict_probability(const GraphBatch& g) {
  InferenceSession session(*this, g);
  return session.predict_probability();
}

// ---------------------------------------------------------------------------
// InferenceSession
// ---------------------------------------------------------------------------

InferenceSession::InferenceSession(SatClassifier& model, const GraphBatch& g)
    : logit_(model.forward_logits(prog_, g)),
      exec_(make_verified_executor(prog_, ExecMode::kInference)) {}

// NS_HOT(inference entry point: one planned forward per query)
float InferenceSession::predict_probability() {
  exec_->forward();
  const float x = exec_->value(logit_).at(0, 0);
  return 1.0f / (1.0f + std::exp(-x));
}

// ---------------------------------------------------------------------------
// MpnnLayer (Eqs. 6-7)
// ---------------------------------------------------------------------------

MpnnLayer::MpnnLayer(std::size_t dim, std::mt19937_64& rng)
    : msg_from_clause_(dim, dim, rng),
      msg_from_var_(dim, dim, rng),
      self_var_(dim, dim, rng),
      self_clause_(dim, dim, rng),
      upd_var_(dim, dim, rng),
      upd_clause_(dim, dim, rng) {}

std::pair<TensorId, TensorId> MpnnLayer::forward(Program& prog,
                                                 const VcGraphTensors& g,
                                                 TensorId xv, TensorId xc) {
  // Messages into variables: mean over incident clauses of MLP(h_c),
  // weighted by the signed edge weight (Eq. 6).
  const TensorId mv =
      prog.spmm(&g.svc, msg_from_clause_.forward(prog, xc));
  const TensorId hv = prog.relu(
      upd_var_.forward(prog, prog.add(mv, self_var_.forward(prog, xv))));
  // Messages into clauses (computed from the pre-update variable features).
  const TensorId mc =
      prog.spmm(&g.scv, msg_from_var_.forward(prog, xv));
  const TensorId hc = prog.relu(upd_clause_.forward(
      prog, prog.add(mc, self_clause_.forward(prog, xc))));
  return {hv, hc};
}

void MpnnLayer::collect_parameters(std::vector<Parameter*>& out) {
  msg_from_clause_.collect_parameters(out);
  msg_from_var_.collect_parameters(out);
  self_var_.collect_parameters(out);
  self_clause_.collect_parameters(out);
  upd_var_.collect_parameters(out);
  upd_clause_.collect_parameters(out);
}

// ---------------------------------------------------------------------------
// LinearAttention (Eqs. 8-9)
// ---------------------------------------------------------------------------

LinearAttention::LinearAttention(std::size_t dim, std::mt19937_64& rng)
    : fq_(dim, dim, rng), fk_(dim, dim, rng), fv_(dim, dim, rng) {}

TensorId LinearAttention::forward(Program& prog, TensorId z) {
  const std::size_t n = prog.rows(z);  // shape metadata; no execution

  const TensorId q = prog.frobenius_normalize(fq_.forward(prog, z));
  const TensorId k = prog.frobenius_normalize(fk_.forward(prog, z));
  const TensorId v = fv_.forward(prog, z);

  // D = diag(1 + (1/N) Q̃ (K̃ᵀ·1)), an N×1 column.
  const TensorId ones = prog.constant(Matrix::ones(n, 1));
  const TensorId invn =
      prog.constant(Matrix(1, 1, 1.0f / static_cast<float>(n)));
  const TensorId kt1 = prog.matmul_at_b(k, ones);  // d×1
  const TensorId qk1 = prog.matmul(q, kt1);        // N×1
  const TensorId d = prog.add_scalar(prog.scalar_mul(qk1, invn), 1.0f);
  const TensorId d_inv = prog.reciprocal(d);

  // Z_out = D⁻¹ [ V + (1/N) Q̃ (K̃ᵀ V) ].
  const TensorId kv = prog.matmul_at_b(k, v);   // d×d
  const TensorId qkv = prog.matmul(q, kv);      // N×d
  const TensorId attn = prog.add(v, prog.scalar_mul(qkv, invn));
  return prog.row_mul(attn, d_inv);
}

void LinearAttention::collect_parameters(std::vector<Parameter*>& out) {
  fq_.collect_parameters(out);
  fk_.collect_parameters(out);
  fv_.collect_parameters(out);
}

// ---------------------------------------------------------------------------
// HgtLayer (Sec. 4.3)
// ---------------------------------------------------------------------------

HgtLayer::HgtLayer(std::size_t dim, std::size_t mpnn_depth, bool use_attention,
                   std::mt19937_64& rng)
    : attention_(dim, rng),
      attention_gate_(Matrix::zeros(1, 1)),
      use_attention_(use_attention) {
  mpnn_.reserve(mpnn_depth);
  for (std::size_t i = 0; i < mpnn_depth; ++i) mpnn_.emplace_back(dim, rng);
}

std::pair<TensorId, TensorId> HgtLayer::forward(Program& prog,
                                                const VcGraphTensors& g,
                                                TensorId xv, TensorId xc) {
  for (MpnnLayer& layer : mpnn_) {
    std::tie(xv, xc) = layer.forward(prog, g, xv, xc);
  }
  if (use_attention_) {
    // Attention only over variable nodes (Eq. 4); clause features pass
    // through from the MPNN (Eq. 5). The block enters through a gated
    // residual (ReZero: x + alpha * attn(x), alpha trained from 0), which
    // keeps the local MPNN signal intact at initialization and lets the
    // optimizer learn how much global context to mix in — the CPU-scale
    // counterpart of SGFormer's GNN+attention combination.
    const TensorId gate = prog.param(&attention_gate_);
    xv = prog.add(prog.scalar_mul(attention_.forward(prog, xv), gate), xv);
  }
  return {xv, xc};
}

void HgtLayer::collect_parameters(std::vector<Parameter*>& out) {
  for (MpnnLayer& layer : mpnn_) layer.collect_parameters(out);
  if (use_attention_) {
    attention_.collect_parameters(out);
    out.push_back(&attention_gate_);
  }
}

// ---------------------------------------------------------------------------
// NeuroSelectModel
// ---------------------------------------------------------------------------

NeuroSelectModel::NeuroSelectModel(const NeuroSelectConfig& config)
    : config_(config) {
  std::mt19937_64 rng(config.seed);
  // Paper Sec. 4.2: initial embedding 1 for variable nodes, 0 for clauses.
  var_embed_ = Parameter(Matrix::ones(1, config.hidden_dim));
  clause_embed_ = Parameter(Matrix::zeros(1, config.hidden_dim));
  layers_.reserve(config.num_hgt_layers);
  for (std::size_t i = 0; i < config.num_hgt_layers; ++i) {
    layers_.emplace_back(config.hidden_dim, config.mpnn_per_hgt,
                         config.use_attention, rng);
  }
  head_ = Mlp({config.hidden_dim, config.hidden_dim, 1}, rng);
}

TensorId NeuroSelectModel::forward_logits(Program& prog,
                                          const GraphBatch& graph) {
  const VcGraphTensors& g = graph.vc;
  TensorId xv = prog.broadcast_row(prog.param(&var_embed_), g.num_vars);
  TensorId xc = prog.broadcast_row(prog.param(&clause_embed_), g.num_clauses);
  for (HgtLayer& layer : layers_) {
    std::tie(xv, xc) = layer.forward(prog, g, xv, xc);
  }
  // Eq. 10: READOUT over variable-node embeddings only.
  const TensorId pooled = prog.mean_rows(xv);
  return head_.forward(prog, pooled);
}

void NeuroSelectModel::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&var_embed_);
  out.push_back(&clause_embed_);
  for (HgtLayer& layer : layers_) layer.collect_parameters(out);
  head_.collect_parameters(out);
}

// ---------------------------------------------------------------------------
// GinModel
// ---------------------------------------------------------------------------

GinModel::GinModel(std::size_t hidden_dim, std::size_t num_layers,
                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  var_embed_ = Parameter(Matrix::ones(1, hidden_dim));
  clause_embed_ = Parameter(Matrix::zeros(1, hidden_dim));
  layers_.reserve(num_layers);
  for (std::size_t i = 0; i < num_layers; ++i) {
    layers_.push_back(GinLayer{
        Mlp({hidden_dim, hidden_dim, hidden_dim}, rng),
        Mlp({hidden_dim, hidden_dim, hidden_dim}, rng),
    });
  }
  head_ = Mlp({2 * hidden_dim, hidden_dim, 1}, rng);
}

TensorId GinModel::forward_logits(Program& prog, const GraphBatch& graph) {
  const VcGraphTensors& g = graph.vc;
  TensorId xv = prog.broadcast_row(prog.param(&var_embed_), g.num_vars);
  TensorId xc = prog.broadcast_row(prog.param(&clause_embed_), g.num_clauses);
  for (GinLayer& layer : layers_) {
    // GIN update: h' = MLP(h + Σ_{u∈N(v)} w_uv h_u)  (sum aggregation,
    // epsilon fixed to 0 as in the GIN-0 variant).
    const TensorId aggv = prog.spmm(&g.avc, xc);
    const TensorId aggc = prog.spmm(&g.acv, xv);
    const TensorId hv = layer.var_mlp.forward(prog, prog.add(xv, aggv));
    const TensorId hc = layer.clause_mlp.forward(prog, prog.add(xc, aggc));
    xv = prog.relu(hv);
    xc = prog.relu(hc);
  }
  const TensorId pooled =
      prog.concat_cols(prog.mean_rows(xv), prog.mean_rows(xc));
  return head_.forward(prog, pooled);
}

void GinModel::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&var_embed_);
  out.push_back(&clause_embed_);
  for (GinLayer& layer : layers_) {
    layer.var_mlp.collect_parameters(out);
    layer.clause_mlp.collect_parameters(out);
  }
  head_.collect_parameters(out);
}

// ---------------------------------------------------------------------------
// NeuroSatModel
// ---------------------------------------------------------------------------

NeuroSatModel::NeuroSatModel(std::size_t hidden_dim, std::size_t num_rounds,
                             std::uint64_t seed)
    : rounds_(num_rounds) {
  std::mt19937_64 rng(seed);
  lit_embed_ = Parameter(Matrix::ones(1, hidden_dim));
  clause_embed_ = Parameter(Matrix::ones(1, hidden_dim));
  lit_msg_ = Mlp({hidden_dim, hidden_dim, hidden_dim}, rng);
  clause_msg_ = Mlp({hidden_dim, hidden_dim, hidden_dim}, rng);
  // Literal update sees [clause messages | flipped-literal state].
  lit_update_ = LstmCell(2 * hidden_dim, hidden_dim, rng);
  clause_update_ = LstmCell(hidden_dim, hidden_dim, rng);
  head_ = Mlp({hidden_dim, hidden_dim, 1}, rng);
}

TensorId NeuroSatModel::forward_logits(Program& prog, const GraphBatch& graph) {
  const LcGraphTensors& g = graph.lc;
  const std::size_t d = lit_update_.hidden_dim();

  LstmCell::State lit_state{
      prog.broadcast_row(prog.param(&lit_embed_), g.num_lits),
      prog.constant(Matrix::zeros(g.num_lits, d))};
  LstmCell::State clause_state{
      prog.broadcast_row(prog.param(&clause_embed_), g.num_clauses),
      prog.constant(Matrix::zeros(g.num_clauses, d))};

  for (std::size_t round = 0; round < rounds_; ++round) {
    // Clauses aggregate messages from their literals.
    const TensorId to_clause =
        prog.spmm(&g.mcl, lit_msg_.forward(prog, lit_state.h));
    clause_state = clause_update_.forward(prog, to_clause, clause_state);
    // Literals aggregate from clauses and see their own negation's state.
    const TensorId to_lit =
        prog.spmm(&g.mlc, clause_msg_.forward(prog, clause_state.h));
    const TensorId flipped = prog.permute_rows(lit_state.h, g.flip);
    lit_state = lit_update_.forward(
        prog, prog.concat_cols(to_lit, flipped), lit_state);
  }
  const TensorId pooled = prog.mean_rows(lit_state.h);
  return head_.forward(prog, pooled);
}

void NeuroSatModel::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&lit_embed_);
  out.push_back(&clause_embed_);
  lit_msg_.collect_parameters(out);
  clause_msg_.collect_parameters(out);
  lit_update_.collect_parameters(out);
  clause_update_.collect_parameters(out);
  head_.collect_parameters(out);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<SatClassifier> make_classifier(ClassifierKind kind,
                                               std::uint64_t seed) {
  switch (kind) {
    case ClassifierKind::kNeuroSat:
      // 4 message-passing rounds: scaled down from NeuroSAT's 26 to keep
      // CPU training tractable at our instance sizes.
      return std::make_unique<NeuroSatModel>(32, 4, seed);
    case ClassifierKind::kGin:
      return std::make_unique<GinModel>(32, 3, seed);
    case ClassifierKind::kNeuroSelectNoAttention: {
      NeuroSelectConfig cfg;
      cfg.use_attention = false;
      cfg.seed = seed;
      return std::make_unique<NeuroSelectModel>(cfg);
    }
    case ClassifierKind::kNeuroSelect:
    default: {
      NeuroSelectConfig cfg;
      cfg.seed = seed;
      return std::make_unique<NeuroSelectModel>(cfg);
    }
  }
}

}  // namespace ns::nn
