#pragma once
/// \file heap.hpp
/// Indexed binary max-heap over variables keyed by activity, the classic
/// MiniSat `VarOrder` structure. Supports decrease/increase-key via the
/// position index and O(log n) insertion/extraction.

#include <cassert>
#include <cstdint>
#include <vector>

#include "cnf/types.hpp"

namespace ns::solver {

/// Max-heap of variables ordered by an external activity array.
class VarHeap {
 public:
  /// `activity` must outlive the heap and is read on every comparison.
  explicit VarHeap(const std::vector<double>& activity)
      : activity_(activity) {}

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Removes every element (used when the solver is reloaded).
  void clear() {
    heap_.clear();
    pos_.clear();
  }

  bool contains(Var v) const {
    return v < pos_.size() && pos_[v] != kAbsent;
  }

  /// Inserts `v` (no-op if already present).
  void insert(Var v) {
    if (contains(v)) return;
    if (v >= pos_.size()) pos_.resize(v + 1, kAbsent);
    pos_[v] = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(v);
    sift_up(pos_[v]);
  }

  /// Removes and returns the maximum-activity variable.
  Var pop() {
    assert(!heap_.empty());
    const Var top = heap_[0];
    const Var last = heap_.back();
    heap_.pop_back();
    pos_[top] = kAbsent;
    if (!heap_.empty()) {
      heap_[0] = last;
      pos_[last] = 0;
      sift_down(0);
    }
    return top;
  }

  /// Restores heap order after `v`'s activity increased.
  void increased(Var v) {
    if (contains(v)) sift_up(pos_[v]);
  }

  // --- introspection (ns::audit) ----------------------------------------
  const std::vector<Var>& raw_heap() const { return heap_; }

  /// Position of `v` in the raw heap array; kAbsentPos when not present.
  std::uint32_t position(Var v) const {
    return v < pos_.size() ? pos_[v] : kAbsentPos;
  }
  static constexpr std::uint32_t kAbsentPos = static_cast<std::uint32_t>(-1);

 private:
  static constexpr std::uint32_t kAbsent = static_cast<std::uint32_t>(-1);

  bool less(Var a, Var b) const { return activity_[a] < activity_[b]; }

  void sift_up(std::uint32_t i) {
    const Var v = heap_[i];
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 2;
      if (!less(heap_[parent], v)) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i]] = i;
      i = parent;
    }
    heap_[i] = v;
    pos_[v] = i;
  }

  void sift_down(std::uint32_t i) {
    const Var v = heap_[i];
    const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    while (true) {
      std::uint32_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && less(heap_[child], heap_[child + 1])) ++child;
      if (!less(v, heap_[child])) break;
      heap_[i] = heap_[child];
      pos_[heap_[i]] = i;
      i = child;
    }
    heap_[i] = v;
    pos_[v] = i;
  }

  const std::vector<double>& activity_;
  std::vector<Var> heap_;
  std::vector<std::uint32_t> pos_;
};

}  // namespace ns::solver
