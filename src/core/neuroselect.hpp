#pragma once
/// \file neuroselect.hpp
/// The end-to-end NeuroSelect-Kissat driver (paper Sec. 5.4): one CPU
/// inference of the trained classifier picks the clause-deletion policy,
/// then the solver runs with that policy. Also contains the evaluation
/// harness producing Fig. 7 and Table 3.
///
/// Beyond the paper's binary choice, the classifier readout generalizes to
/// *portfolio selection* (GraSS-style): `PortfolioSelector` ranks an
/// arbitrary list of engine configurations with per-config priority heads
/// over the same HGT probability, `label_portfolio` produces deterministic
/// per-config labels (and doubles as the portfolio racer's serial replay
/// oracle — it replays the racer's exact tick-slice schedule), and
/// `train_priority_heads` fits the heads to those labels. This layer only
/// sees plain `solver::SolverOptions` lists; the portfolio layer above
/// supplies them from its config registry.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gen/dataset.hpp"
#include "nn/models.hpp"
#include "policy/deletion_policy.hpp"
#include "solver/solver.hpp"

namespace ns::core {

/// Propagations per proxy-second: the unit of every `InstanceRun` runtime
/// and of Table 3.
inline constexpr double kProxyPropsPerSecond = 100.0;

/// Options of the end-to-end run; otherwise both solves use
/// `solver::SolverOptions{}`.
struct EndToEndOptions {
  std::uint64_t timeout_propagations = 500'000;  ///< the "5000 s" budget
  std::size_t node_cap = 400'000;  ///< Sec. 5.1 graph-size filter
};

/// Per-instance measurements (one dot of Fig. 7(a)).
struct InstanceRun {
  std::string name;
  bool within_cap = true;           ///< small enough for model inference
  policy::PolicyKind chosen = policy::PolicyKind::kDefault;
  double inference_seconds = 0.0;   ///< wall-clock model inference (Fig 7(b))
  double kissat_seconds = 0.0;      ///< proxy runtime, default policy
  double neuroselect_seconds = 0.0; ///< proxy runtime, chosen policy
  bool kissat_solved = false;
  bool neuroselect_solved = false;
};

/// Aggregates (Table 3).
struct EndToEndSummary {
  std::vector<InstanceRun> runs;
  std::size_t solved_kissat = 0;
  std::size_t solved_neuroselect = 0;
  /// Median/average over instances solved by the respective configuration.
  double median_kissat = 0.0;
  double median_neuroselect = 0.0;
  double average_kissat = 0.0;
  double average_neuroselect = 0.0;
  /// Runtime improvements. The paper's headline 5.8% corresponds to the
  /// average (713.28 s -> 671.73 s in its Table 3); at our scale the median
  /// instance is often a near-tie, so both aggregates are reported.
  double median_improvement_percent = 0.0;
  double average_improvement_percent = 0.0;
};

/// Ranked selection over an ordered list of engine configurations — the
/// generalization of the paper's binary policy decision. `ranked` holds
/// config ids best-first; ties in priority keep ascending id order (the
/// same deterministic tie-break the portfolio racer uses).
struct PolicySelection {
  float p_frequency = 0.5f;           ///< raw classifier readout P(label=1)
  std::vector<float> priority;        ///< sigmoid score per config id
  std::vector<std::uint32_t> ranked;  ///< config ids, best first
  std::uint32_t primary = 0;          ///< ranked.front()
};

/// One per-config priority head: weights over the feature vector
/// [p, 1 - p, 1] where p is the classifier probability. The config's
/// ranking score is the logit w·x (reported as sigmoid(w·x)).
using PriorityHead = std::array<float, 3>;

/// Ranks engine configurations from one classifier inference. Heads
/// default to the analytic construction (frequency-deletion configs score
/// sigmoid(4p - 2), others sigmoid(2 - 4p) — the binary paper rule,
/// lifted per config); `train_priority_heads` fits sharper ones.
class PortfolioSelector {
 public:
  /// `model` may be null: selection then runs at p = 0.5 (every head falls
  /// back to its bias ordering). The selector does not own the model.
  PortfolioSelector(nn::SatClassifier* model,
                    std::vector<solver::SolverOptions> configs);

  std::size_t num_configs() const { return configs_.size(); }
  const std::vector<solver::SolverOptions>& configs() const {
    return configs_;
  }
  const std::vector<PriorityHead>& heads() const { return heads_; }

  /// Replaces the heads (size must match num_configs(); extra entries are
  /// dropped, missing ones keep their analytic default).
  void set_heads(const std::vector<PriorityHead>& heads);

  /// The default heads for `configs` (see class comment).
  static std::vector<PriorityHead> analytic_heads(
      const std::vector<solver::SolverOptions>& configs);

  /// `classify_formula(model, formula)`, then `select_from_probability`.
  PolicySelection select(const CnfFormula& formula) const;

  /// Deterministic ranking core: scores every config head at probability
  /// `p` and sorts ids by descending logit, ascending id on ties.
  PolicySelection select_from_probability(float p) const;

 private:
  nn::SatClassifier* model_;
  std::vector<solver::SolverOptions> configs_;
  std::vector<PriorityHead> heads_;
};

/// The paper's binary decision recast as a 2-config selection over
/// {default deletion, frequency deletion}: `primary == 1` exactly when
/// p > 0.5 (bit-equivalent to the historical threshold rule — see
/// `run_instance`).
PolicySelection binary_selection(float p_frequency);

/// Deterministic per-config portfolio label for one instance: each config
/// is replayed serially under the racer's exact schedule — fresh engine,
/// `solve()` slices of `slice_ticks` per-query tick budget until decided,
/// a lifetime budget trips, or race ticks reach `max_ticks` (0 = no cap).
/// `best` is the lexicographic (ticks, id) minimum among decided configs,
/// i.e. the unique winner a `PortfolioRacer` must report at any thread
/// count; -1 when nothing decided.
struct PortfolioLabel {
  std::vector<std::uint64_t> ticks;  ///< race ticks burned, per config
  std::vector<bool> decided;         ///< finished with kSat/kUnsat
  int best = -1;                     ///< winning config id (serial oracle)
  solver::SatResult result = solver::SatResult::kUnknown;  ///< best's result
};

PortfolioLabel label_portfolio(
    const CnfFormula& formula,
    const std::vector<solver::SolverOptions>& configs,
    std::uint64_t slice_ticks, std::uint64_t max_ticks);

/// Priority-head training knobs. A config's target is 1 when it decided
/// within 1.25 × the winner's ticks (the winner itself always qualifies),
/// 0 otherwise; heads are fit by full-batch logistic GD with step 0.5 —
/// deterministic: no RNG, fixed epoch count.
struct PriorityTrainOptions {
  std::uint64_t slice_ticks = 20'000;  ///< must match the racer's slices
  std::uint64_t max_ticks = 2'000'000;
  std::size_t epochs = 200;
};

std::vector<PriorityHead> train_priority_heads(
    nn::SatClassifier* model, const std::vector<gen::NamedInstance>& train,
    const std::vector<solver::SolverOptions>& configs,
    const PriorityTrainOptions& options = {});

/// P(label == 1) from one inference of `model` on `formula`. A null model,
/// or a formula with no variables or no clauses (its graph has no rows to
/// pool), skips inference and returns 0.5 — the selector's model-free
/// fallback.
float classify_formula(nn::SatClassifier* model, const CnfFormula& formula);

/// P(label == 1) for every graph in `batch`: a `runtime::parallel_for` over
/// one-graph `InferenceSession`s, each index writing only its own output
/// (DESIGN.md §13). A graph with no variables or no clauses gets 0.5 and no
/// session, as in `classify_formula`. The model parameters are only read,
/// and no gradient storage is allocated. Bitwise identical to calling
/// `model.predict_probability` per graph, for any thread count.
std::vector<float> classify_batch(
    nn::SatClassifier& model,
    const std::vector<const nn::GraphBatch*>& batch);

/// Solves one instance with NeuroSelect guidance. `model` may be null, in
/// which case the default policy is used (instances beyond the node cap).
InstanceRun run_instance(nn::SatClassifier* model,
                         const gen::NamedInstance& inst,
                         const EndToEndOptions& options);

/// Runs the full test split and aggregates Table 3 / Fig. 7 data.
EndToEndSummary run_end_to_end(nn::SatClassifier& model,
                               const std::vector<gen::NamedInstance>& test,
                               const EndToEndOptions& options);

}  // namespace ns::core
