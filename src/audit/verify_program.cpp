#include "audit/verify_program.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

namespace ns::audit {
namespace {

using nn::Inst;
using nn::Op;
using nn::Program;
using nn::WorkspacePlan;

bool is_leaf(Op op) { return op == Op::kConstant || op == Op::kParam; }

/// Which operand slots an opcode consumes. Everything else about the op
/// (shape function, immediate legality) is handled per-op below; arity is
/// tabulated here so a corrupted operand slot on a nominally-unary op is a
/// distinct diagnostic from a bad shape.
struct Arity {
  bool uses_a = false;
  bool uses_b = false;
};

Arity arity_of(Op op) {
  switch (op) {
    case Op::kConstant:
    case Op::kParam:
      return {false, false};
    case Op::kMatmul:
    case Op::kMatmulAtB:
    case Op::kAdd:
    case Op::kSub:
    case Op::kHadamard:
    case Op::kAddRowBroadcast:
    case Op::kRowMul:
    case Op::kScalarMul:
    case Op::kConcatCols:
      return {true, true};
    case Op::kAddScalar:
    case Op::kReciprocal:
    case Op::kRelu:
    case Op::kSigmoid:
    case Op::kTanh:
    case Op::kSpmm:
    case Op::kFrobeniusNormalize:
    case Op::kBroadcastRow:
    case Op::kSliceCols:
    case Op::kPermuteRows:
    case Op::kMeanRows:
    case Op::kBceWithLogits:
      return {true, false};
  }
  return {false, false};
}

std::string shape_str(std::uint32_t r, std::uint32_t c) {
  return std::to_string(r) + "x" + std::to_string(c);
}

std::string inst_name(const Program& prog, std::int32_t i) {
  return std::string("inst ") + std::to_string(i) + " (" +
         nn::op_name(prog.inst(static_cast<std::size_t>(i)).op) + ")";
}

class ProgramChecker {
 public:
  explicit ProgramChecker(const Program& prog) : prog_(prog) {}

  std::vector<Violation> run() {
    const std::int32_t n = static_cast<std::int32_t>(prog_.num_insts());
    for (std::int32_t i = 0; i < n; ++i) check_inst(i);
    return std::move(out_);
  }

 private:
  void add(const char* rule, std::int32_t i, std::string message) {
    out_.push_back(Violation{rule, std::move(message), i});
  }

  /// Validates one operand slot; returns false when further shape checks
  /// on this instruction would read out-of-range state.
  bool check_operand(std::int32_t i, const char* slot, std::int32_t ref,
                     bool required) {
    if (!required) {
      if (ref != -1) {
        add("ir.arity", i,
            inst_name(prog_, i) + ": operand '" + slot +
                "' must be unused (-1), holds " + std::to_string(ref));
      }
      return true;
    }
    if (ref < 0 || ref >= i) {
      add("ir.def_before_use", i,
          inst_name(prog_, i) + ": operand '" + slot + "' = " +
              std::to_string(ref) +
              " does not name an earlier instruction (must be in [0, " +
              std::to_string(i) + "))");
      return false;
    }
    return true;
  }

  void expect_shape(std::int32_t i, std::uint32_t rows, std::uint32_t cols) {
    const Inst& in = prog_.inst(static_cast<std::size_t>(i));
    if (in.rows != rows || in.cols != cols) {
      add("ir.shape", i,
          inst_name(prog_, i) + ": recorded output shape " +
              shape_str(in.rows, in.cols) + " but operands derive " +
              shape_str(rows, cols));
    }
  }

  void expect_grad(std::int32_t i, bool derived) {
    const Inst& in = prog_.inst(static_cast<std::size_t>(i));
    if (in.requires_grad == derived) return;
    add("ir.requires_grad", i,
        inst_name(prog_, i) +
            (derived
                 ? ": requires_grad is false but a Parameter is upstream — "
                   "an executor would skip its gradient contribution"
                 : ": requires_grad is true but no Parameter is upstream — "
                   "an executor would allocate dead gradient storage"));
  }

  const Inst& at(std::int32_t ref) const {
    return prog_.inst(static_cast<std::size_t>(ref));
  }

  void check_inst(std::int32_t i) {
    const Inst& in = prog_.inst(static_cast<std::size_t>(i));
    const Arity ar = arity_of(in.op);
    const bool a_ok = check_operand(i, "a", in.a, ar.uses_a);
    const bool b_ok = check_operand(i, "b", in.b, ar.uses_b);
    if (!a_ok || !b_ok) return;  // shape checks would index out of range

    switch (in.op) {
      case Op::kConstant: {
        if (in.u0 >= prog_.num_literals()) {
          add("ir.binding", i,
              inst_name(prog_, i) + ": literal pool index " +
                  std::to_string(in.u0) + " out of range (pool has " +
                  std::to_string(prog_.num_literals()) + ")");
          break;
        }
        const nn::Matrix& lit = prog_.literal(in.u0);
        expect_shape(i, static_cast<std::uint32_t>(lit.rows()),
                     static_cast<std::uint32_t>(lit.cols()));
        expect_grad(i, false);
        break;
      }
      case Op::kParam: {
        if (in.param == nullptr) {
          add("ir.binding", i,
              inst_name(prog_, i) + ": null Parameter binding");
          break;
        }
        expect_shape(i, static_cast<std::uint32_t>(in.param->value.rows()),
                     static_cast<std::uint32_t>(in.param->value.cols()));
        expect_grad(i, true);
        break;
      }
      case Op::kMatmul: {
        const Inst& va = at(in.a);
        const Inst& vb = at(in.b);
        if (va.cols != vb.rows) {
          add("ir.operand_shape", i,
              inst_name(prog_, i) + ": inner dimensions differ: A is " +
                  shape_str(va.rows, va.cols) + ", B is " +
                  shape_str(vb.rows, vb.cols));
        }
        expect_shape(i, va.rows, vb.cols);
        expect_grad(i, va.requires_grad || vb.requires_grad);
        break;
      }
      case Op::kMatmulAtB: {
        const Inst& va = at(in.a);
        const Inst& vb = at(in.b);
        if (va.rows != vb.rows) {
          add("ir.operand_shape", i,
              inst_name(prog_, i) + ": row counts differ: A is " +
                  shape_str(va.rows, va.cols) + ", B is " +
                  shape_str(vb.rows, vb.cols));
        }
        expect_shape(i, va.cols, vb.cols);
        expect_grad(i, va.requires_grad || vb.requires_grad);
        break;
      }
      case Op::kAdd:
      case Op::kSub:
      case Op::kHadamard: {
        const Inst& va = at(in.a);
        const Inst& vb = at(in.b);
        if (va.rows != vb.rows || va.cols != vb.cols) {
          add("ir.operand_shape", i,
              inst_name(prog_, i) + ": elementwise operands differ: " +
                  shape_str(va.rows, va.cols) + " vs " +
                  shape_str(vb.rows, vb.cols));
        }
        expect_shape(i, va.rows, va.cols);
        expect_grad(i, va.requires_grad || vb.requires_grad);
        break;
      }
      case Op::kAddScalar:
      case Op::kReciprocal:
      case Op::kRelu:
      case Op::kSigmoid:
      case Op::kTanh:
      case Op::kFrobeniusNormalize: {
        const Inst& va = at(in.a);
        expect_shape(i, va.rows, va.cols);
        expect_grad(i, va.requires_grad);
        break;
      }
      case Op::kSpmm: {
        const Inst& vx = at(in.a);
        if (in.sparse == nullptr) {
          add("ir.binding", i,
              inst_name(prog_, i) + ": null SparseMatrix binding");
          break;
        }
        if (in.sparse->cols() != vx.rows) {
          add("ir.operand_shape", i,
              inst_name(prog_, i) + ": S is " +
                  std::to_string(in.sparse->rows()) + "x" +
                  std::to_string(in.sparse->cols()) + " but X is " +
                  shape_str(vx.rows, vx.cols));
        }
        expect_shape(i, static_cast<std::uint32_t>(in.sparse->rows()),
                     vx.cols);
        expect_grad(i, vx.requires_grad);
        break;
      }
      case Op::kAddRowBroadcast: {
        const Inst& vx = at(in.a);
        const Inst& vb = at(in.b);
        if (vb.rows != 1 || vb.cols != vx.cols) {
          add("ir.operand_shape", i,
              inst_name(prog_, i) + ": bias must be 1x" +
                  std::to_string(vx.cols) + ", got " +
                  shape_str(vb.rows, vb.cols));
        }
        expect_shape(i, vx.rows, vx.cols);
        expect_grad(i, vx.requires_grad || vb.requires_grad);
        break;
      }
      case Op::kBroadcastRow: {
        const Inst& vr = at(in.a);
        if (vr.rows != 1) {
          add("ir.operand_shape", i,
              inst_name(prog_, i) + ": input must be a single row, got " +
                  shape_str(vr.rows, vr.cols));
        }
        if (in.u0 == 0 || in.u0 != in.rows) {
          add("ir.binding", i,
              inst_name(prog_, i) + ": broadcast count u0 = " +
                  std::to_string(in.u0) +
                  " must be nonzero and equal the output row count " +
                  std::to_string(in.rows));
        }
        expect_shape(i, in.u0, vr.cols);
        expect_grad(i, vr.requires_grad);
        break;
      }
      case Op::kRowMul: {
        const Inst& vx = at(in.a);
        const Inst& vs = at(in.b);
        if (vs.rows != vx.rows || vs.cols != 1) {
          add("ir.operand_shape", i,
              inst_name(prog_, i) + ": scale must be " +
                  std::to_string(vx.rows) + "x1, got " +
                  shape_str(vs.rows, vs.cols));
        }
        expect_shape(i, vx.rows, vx.cols);
        expect_grad(i, vx.requires_grad || vs.requires_grad);
        break;
      }
      case Op::kScalarMul: {
        const Inst& vx = at(in.a);
        const Inst& vs = at(in.b);
        if (vs.rows != 1 || vs.cols != 1) {
          add("ir.operand_shape", i,
              inst_name(prog_, i) + ": scale must be 1x1, got " +
                  shape_str(vs.rows, vs.cols));
        }
        expect_shape(i, vx.rows, vx.cols);
        expect_grad(i, vx.requires_grad || vs.requires_grad);
        break;
      }
      case Op::kMeanRows: {
        const Inst& va = at(in.a);
        if (va.rows == 0) {
          add("ir.operand_shape", i,
              inst_name(prog_, i) + ": input has no rows");
        }
        expect_shape(i, 1, va.cols);
        expect_grad(i, va.requires_grad);
        break;
      }
      case Op::kConcatCols: {
        const Inst& va = at(in.a);
        const Inst& vb = at(in.b);
        if (va.rows != vb.rows) {
          add("ir.operand_shape", i,
              inst_name(prog_, i) + ": row counts differ: " +
                  shape_str(va.rows, va.cols) + " vs " +
                  shape_str(vb.rows, vb.cols));
        }
        expect_shape(i, va.rows, va.cols + vb.cols);
        expect_grad(i, va.requires_grad || vb.requires_grad);
        break;
      }
      case Op::kSliceCols: {
        const Inst& va = at(in.a);
        if (static_cast<std::uint64_t>(in.u0) + in.u1 > va.cols) {
          add("ir.binding", i,
              inst_name(prog_, i) + ": slice [" + std::to_string(in.u0) +
                  ", " + std::to_string(in.u0 + in.u1) +
                  ") exceeds input with " + std::to_string(va.cols) +
                  " columns");
        }
        expect_shape(i, va.rows, in.u1);
        expect_grad(i, va.requires_grad);
        break;
      }
      case Op::kPermuteRows: {
        const Inst& va = at(in.a);
        if (in.u0 >= prog_.num_perms()) {
          add("ir.binding", i,
              inst_name(prog_, i) + ": permutation pool index " +
                  std::to_string(in.u0) + " out of range (pool has " +
                  std::to_string(prog_.num_perms()) + ")");
          break;
        }
        const std::vector<std::uint32_t>& perm = prog_.perm(in.u0);
        if (perm.size() != va.rows) {
          add("ir.binding", i,
              inst_name(prog_, i) + ": permutation has " +
                  std::to_string(perm.size()) + " entries for input with " +
                  std::to_string(va.rows) + " rows");
        } else {
          // Bijectivity, re-derived: the recorder only range-checks, but a
          // non-bijective map silently drops/duplicates rows forward and
          // double-accumulates backward.
          std::vector<bool> seen(perm.size(), false);
          for (std::size_t r = 0; r < perm.size(); ++r) {
            if (perm[r] >= perm.size() || seen[perm[r]]) {
              add("ir.binding", i,
                  inst_name(prog_, i) + ": perm entry " + std::to_string(r) +
                      " -> " + std::to_string(perm[r]) +
                      (perm[r] >= perm.size() ? " is out of range"
                                              : " repeats a target row") +
                      " — not a permutation");
              break;
            }
            seen[perm[r]] = true;
          }
        }
        expect_shape(i, va.rows, va.cols);
        expect_grad(i, va.requires_grad);
        break;
      }
      case Op::kBceWithLogits: {
        const Inst& vl = at(in.a);
        if (vl.rows != 1 || vl.cols != 1) {
          add("ir.operand_shape", i,
              inst_name(prog_, i) + ": logit must be 1x1, got " +
                  shape_str(vl.rows, vl.cols));
        }
        expect_shape(i, 1, 1);
        expect_grad(i, vl.requires_grad);
        break;
      }
    }
  }

  const Program& prog_;
  std::vector<Violation> out_;
};

}  // namespace

std::vector<Violation> verify_program(const Program& prog) {
  return ProgramChecker(prog).run();
}

std::vector<Violation> verify_workspace_plan(const Program& prog,
                                             const WorkspacePlan& plan) {
  std::vector<Violation> out;
  const auto add = [&](const char* rule, std::int64_t idx,
                       std::string message) {
    out.push_back(Violation{rule, std::move(message), idx});
  };

  const std::int32_t n = static_cast<std::int32_t>(prog.num_insts());
  if (plan.slot_of.size() != static_cast<std::size_t>(n) ||
      plan.last_use.size() != static_cast<std::size_t>(n)) {
    add("plan.structure", -1,
        "plan tables cover " + std::to_string(plan.slot_of.size()) + "/" +
            std::to_string(plan.last_use.size()) +
            " instructions but the program has " + std::to_string(n));
    return out;  // nothing below can index safely
  }

  // Independently recomputed liveness: last consumer of each value, or n
  // ("live to program end") for outputs — and for everything in training
  // mode, where the backward pass reads all forward values.
  std::vector<std::int32_t> true_last(n, n);
  if (plan.mode == nn::ExecMode::kInference) {
    std::vector<std::int32_t> last(n, -1);
    for (std::int32_t i = 0; i < n; ++i) {
      const Inst& in = prog.inst(static_cast<std::size_t>(i));
      if (in.a >= 0 && in.a < n) last[in.a] = i;
      if (in.b >= 0 && in.b < n) last[in.b] = i;
    }
    for (std::int32_t i = 0; i < n; ++i) {
      true_last[i] = last[i] < 0 ? n : last[i];
    }
  }

  const std::int32_t num_slots =
      static_cast<std::int32_t>(plan.slot_capacity.size());
  for (std::int32_t i = 0; i < n; ++i) {
    const Inst& in = prog.inst(static_cast<std::size_t>(i));
    const std::int32_t slot = plan.slot_of[i];
    if (is_leaf(in.op)) {
      if (slot != -1) {
        add("plan.structure", i,
            inst_name(prog, i) +
                ": leaves read their pool/Parameter storage and must not "
                "own an arena slot, but slot " +
                std::to_string(slot) + " is assigned");
      }
      continue;
    }
    if (slot < 0 || slot >= num_slots) {
      add("plan.structure", i,
          inst_name(prog, i) + ": slot " + std::to_string(slot) +
              " is not a valid arena index (plan has " +
              std::to_string(num_slots) + " slots)");
      continue;
    }
    // A plan may keep a value alive longer than needed (training does, for
    // every value); freeing it before its real last consumer is the bug.
    if (plan.last_use[i] < true_last[i]) {
      add("plan.liveness", i,
          inst_name(prog, i) + ": planned last use " +
              std::to_string(plan.last_use[i]) +
              " precedes actual last consumer " +
              std::to_string(true_last[i]) +
              " — the buffer would be recycled while still needed");
    }
    const std::size_t need =
        static_cast<std::size_t>(in.rows) * static_cast<std::size_t>(in.cols);
    if (plan.slot_capacity[slot] < need) {
      add("plan.capacity", i,
          inst_name(prog, i) + ": slot " + std::to_string(slot) +
              " reserves " + std::to_string(plan.slot_capacity[slot]) +
              " elements but the value needs " + std::to_string(need));
    }
  }
  if (!out.empty()) return out;  // alias check assumes a structurally
                                 // valid slot table

  // Alias safety: group instructions by slot; within a slot, live ranges
  // [def, last_use] must be pairwise disjoint. Sorted by definition index,
  // each tenant must die strictly before the next one is defined.
  std::vector<std::vector<std::int32_t>> tenants(plan.slot_capacity.size());
  for (std::int32_t i = 0; i < n; ++i) {
    if (plan.slot_of[i] >= 0) tenants[plan.slot_of[i]].push_back(i);
  }
  for (std::size_t s = 0; s < tenants.size(); ++s) {
    const std::vector<std::int32_t>& ts = tenants[s];  // ascending by def
    for (std::size_t k = 1; k < ts.size(); ++k) {
      const std::int32_t prev = ts[k - 1];
      const std::int32_t next = ts[k];
      if (plan.last_use[prev] >= next) {
        add("plan.alias", next,
            inst_name(prog, next) + " writes slot " + std::to_string(s) +
                " while " + inst_name(prog, prev) +
                " (planned live through inst " +
                std::to_string(plan.last_use[prev]) +
                ") still owns it — simultaneously-live values aliased");
      }
    }
  }
  return out;
}

void verify_program_or_throw(const Program& prog, const char* where) {
  enforce(verify_program(prog), where);
}

void verify_workspace_plan_or_throw(const Program& prog,
                                    const WorkspacePlan& plan,
                                    const char* where) {
  enforce(verify_workspace_plan(prog, plan), where);
}

}  // namespace ns::audit
