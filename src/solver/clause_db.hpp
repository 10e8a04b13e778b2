#pragma once
/// \file clause_db.hpp
/// Arena-backed clause storage for the CDCL solver.
///
/// All clauses (original and learned) live contiguously in one
/// std::vector<uint32_t>; a clause is addressed by its offset (`ClauseRef`).
/// Layout per clause:
///   word 0: size (number of live literals)
///   word 1: extent (allocated literal slots; >= size). The arena walk
///           strides over `extent`, so shrinking a clause in place leaves
///           traversal intact — the freed slack is reclaimed by the next
///           `garbage_collect`.
///   word 2: flags  — bit 0 learned, bit 1 garbage,
///                    bit 3 used-since-last-reduce; glue (LBD) in bits 8..31
///   word 3..3+size-1: literal codes (slots size..extent-1 are dead slack)
///
/// Garbage collection is a compacting copy: callers first mark clauses
/// garbage, then run `garbage_collect`, then remap every stored ClauseRef
/// through the returned forwarding table. Compaction also squeezes out any
/// shrink slack (copied clauses get extent == size). `check_garbage(frac)`
/// is the trigger predicate for deferred collection: it fires once the
/// dead fraction of the arena reaches `frac`, so long-lived incremental
/// engines can batch many deletions into one relocation pass.

#include <cassert>
#include <cstdint>
#include <vector>

#include "cnf/types.hpp"

namespace ns::solver {

/// Offset of a clause inside the arena.
using ClauseRef = std::uint32_t;
inline constexpr ClauseRef kInvalidClause = static_cast<ClauseRef>(-1);

/// Mutable proxy to one clause inside the arena.
class ClauseView {
 public:
  ClauseView(std::uint32_t* base) : base_(base) {}

  std::uint32_t size() const { return base_[0]; }
  std::uint32_t extent() const { return base_[1]; }

  bool learned() const { return (base_[2] & kLearnedBit) != 0; }
  bool garbage() const { return (base_[2] & kGarbageBit) != 0; }
  bool used() const { return (base_[2] & kUsedBit) != 0; }

  void set_garbage(bool on) { set_flag(kGarbageBit, on); }
  void set_used(bool on) { set_flag(kUsedBit, on); }

  std::uint32_t glue() const { return base_[2] >> kGlueShift; }
  void set_glue(std::uint32_t g) {
    base_[2] = (base_[2] & kFlagMask) | (g << kGlueShift);
  }

  Lit lit(std::uint32_t i) const {
    assert(i < size());
    return Lit::from_code(base_[kHeaderWords + i]);
  }
  void set_lit(std::uint32_t i, Lit l) {
    assert(i < size());
    base_[kHeaderWords + i] = l.code();
  }

  Lit* begin() { return reinterpret_cast<Lit*>(base_ + kHeaderWords); }
  Lit* end() { return begin() + size(); }
  const Lit* begin() const {
    return reinterpret_cast<const Lit*>(base_ + kHeaderWords);
  }
  const Lit* end() const { return begin() + size(); }

  static constexpr std::uint32_t kHeaderWords = 3;
  static constexpr std::uint32_t kLearnedBit = 1u << 0;
  static constexpr std::uint32_t kGarbageBit = 1u << 1;
  static constexpr std::uint32_t kUsedBit = 1u << 3;
  static constexpr std::uint32_t kFlagMask = 0xFFu;
  static constexpr unsigned kGlueShift = 8;

 private:
  friend class ClauseDb;

  void set_flag(std::uint32_t bit, bool on) {
    if (on)
      base_[2] |= bit;
    else
      base_[2] &= ~bit;
  }

  std::uint32_t* base_;
};

/// Read-only proxy to one clause inside the arena. The const counterpart
/// of ClauseView: a `const ClauseDb` hands out these, so inspection paths
/// (statistics, graph extraction, invariant checks) never need — and never
/// get — mutable access to the underlying words.
class ConstClauseView {
 public:
  explicit ConstClauseView(const std::uint32_t* base) : base_(base) {}

  std::uint32_t size() const { return base_[0]; }
  std::uint32_t extent() const { return base_[1]; }

  bool learned() const { return (base_[2] & ClauseView::kLearnedBit) != 0; }
  bool garbage() const { return (base_[2] & ClauseView::kGarbageBit) != 0; }
  bool used() const { return (base_[2] & ClauseView::kUsedBit) != 0; }

  std::uint32_t glue() const { return base_[2] >> ClauseView::kGlueShift; }

  Lit lit(std::uint32_t i) const {
    assert(i < size());
    return Lit::from_code(base_[ClauseView::kHeaderWords + i]);
  }

  const Lit* begin() const {
    return reinterpret_cast<const Lit*>(base_ + ClauseView::kHeaderWords);
  }
  const Lit* end() const { return begin() + size(); }

 private:
  const std::uint32_t* base_;
};

/// The arena itself.
class ClauseDb {
 public:
  static constexpr std::uint32_t kHeaderWords = ClauseView::kHeaderWords;

  /// Appends a clause; returns its reference.
  ClauseRef add(const std::vector<Lit>& lits, bool learned,
                std::uint32_t glue) {
    const ClauseRef ref = static_cast<ClauseRef>(data_.size());
    // Watch entries tag binary clauses in the high bit of a ClauseRef, so
    // the arena must stay below 2^31 words.
    assert(data_.size() + kHeaderWords + lits.size() <
           (std::size_t{1} << 31));
    data_.push_back(static_cast<std::uint32_t>(lits.size()));
    data_.push_back(static_cast<std::uint32_t>(lits.size()));  // extent
    data_.push_back((learned ? ClauseView::kLearnedBit : 0u) |
                    (glue << ClauseView::kGlueShift));
    for (Lit l : lits) data_.push_back(l.code());
    if (learned) ++num_learned_;
    ++num_clauses_;
    return ref;
  }

  ClauseView view(ClauseRef ref) {
    assert(ref + kHeaderWords <= data_.size());
    return ClauseView(data_.data() + ref);
  }

  /// Raw arena base for the BCP inner loop: `ClauseView(raw() + ref)`
  /// without re-deriving the vector data pointer per clause access. Only
  /// valid while no clause is added (BCP never allocates).
  std::uint32_t* raw() { return data_.data(); }
  ConstClauseView view(ClauseRef ref) const {
    assert(ref + kHeaderWords <= data_.size());
    return ConstClauseView(data_.data() + ref);
  }

  /// Shrinks a clause in place (in-processing / strengthening). The clause
  /// keeps its allocated extent, so `for_each` still strides correctly over
  /// the arena; the freed words are accounted as garbage and reclaimed by
  /// the next `garbage_collect`.
  void shrink(ClauseRef ref, std::uint32_t new_size) {
    ClauseView c = view(ref);
    assert(new_size <= c.size());
    garbage_words_ += c.size() - new_size;
    c.base_[0] = new_size;
  }

  /// Marks a clause garbage (idempotent). Does not free memory.
  void mark_garbage(ClauseRef ref) {
    ClauseView c = view(ref);
    if (c.garbage()) return;
    c.set_garbage(true);
    if (c.learned()) --num_learned_;
    --num_clauses_;
    // The clause's shrink slack (extent - size) is already accounted.
    garbage_words_ += kHeaderWords + c.size();
  }

  std::size_t num_clauses() const { return num_clauses_; }
  std::size_t num_learned() const { return num_learned_; }
  std::size_t arena_words() const { return data_.size(); }
  std::size_t garbage_words() const { return garbage_words_; }

  /// Visits every live clause reference in arena order (mutable views).
  template <typename Fn>
  void for_each(Fn&& fn) {
    std::size_t off = 0;
    while (off < data_.size()) {
      const std::uint32_t extent = data_[off + 1];
      ClauseView c(data_.data() + off);
      if (!c.garbage()) fn(static_cast<ClauseRef>(off), c);
      off += kHeaderWords + extent;
    }
  }

  /// Visits every live clause reference in arena order (read-only views).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::size_t off = 0;
    while (off < data_.size()) {
      const std::uint32_t extent = data_[off + 1];
      ConstClauseView c(data_.data() + off);
      if (!c.garbage()) fn(static_cast<ClauseRef>(off), c);
      off += kHeaderWords + extent;
    }
  }

  /// Visits every clause in arena order, garbage included (read-only
  /// views). Audit walks use this to validate the stride structure and the
  /// garbage accounting that `for_each` skips over.
  template <typename Fn>
  void for_each_all(Fn&& fn) const {
    std::size_t off = 0;
    while (off < data_.size()) {
      const std::uint32_t extent = data_[off + 1];
      fn(static_cast<ClauseRef>(off), ConstClauseView(data_.data() + off));
      off += kHeaderWords + extent;
    }
  }

  /// Compacts the arena, dropping garbage clauses and shrink slack. Builds
  /// a forwarding table usable to remap old references; references to
  /// garbage clauses map to kInvalidClause. The forwarding table is valid
  /// until the next mutation of the database. Relocation preserves arena
  /// order, so the old-to-new mapping is monotone — reference comparisons
  /// (deterministic tie-breaks) order identically before and after a
  /// collection.
  void garbage_collect();

  /// True once the dead fraction of the arena (garbage clauses plus shrink
  /// slack) has reached `frac` — the deferred-GC trigger predicate. Never
  /// fires on an all-live arena.
  bool check_garbage(double frac) const {
    return garbage_words_ > 0 &&
           static_cast<double>(garbage_words_) >=
               frac * static_cast<double>(data_.size());
  }

  /// Remaps an old reference after garbage_collect().
  ClauseRef forward(ClauseRef old_ref) const {
    assert(old_ref < forwarding_.size());
    return forwarding_[old_ref];
  }

  /// True when a collection has been run and `forward` is meaningful.
  bool has_forwarding() const { return !forwarding_.empty(); }

  /// The whole old-ref -> new-ref relocation map of the last collection
  /// (ns::audit::check_gc_forwarding re-derives its invariants from this).
  const std::vector<ClauseRef>& forwarding_table() const { return forwarding_; }

  /// Raw arena word access for ns::audit fault-injection tests only —
  /// corrupting a header (size/extent/flags) is otherwise unreachable.
  std::uint32_t& debug_word(std::size_t i) { return data_[i]; }

  /// Mutable relocation map for ns::audit fault-injection tests only — a
  /// corrupt forwarding entry is unreachable through the GC path itself.
  std::vector<ClauseRef>& debug_forwarding() { return forwarding_; }

 private:
  std::vector<std::uint32_t> data_;
  std::vector<ClauseRef> forwarding_;
  std::size_t num_clauses_ = 0;
  std::size_t num_learned_ = 0;
  std::size_t garbage_words_ = 0;
};

}  // namespace ns::solver
