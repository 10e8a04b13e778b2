#pragma once
/// \file restart.hpp
/// The restart subsystem: decides when the search unwinds to the root.
/// Owns the Luby sequence position and the fast/slow glue EMAs of the
/// Glucose-style adaptive scheme; the solver reports each conflict's glue
/// and each executed restart, and asks `should_restart` between decisions.

#include <cstdint>

#include "solver/context.hpp"
#include "solver/luby.hpp"

namespace ns::solver {

class RestartScheduler {
 public:
  explicit RestartScheduler(SearchContext& ctx) : ctx_(ctx) {}

  /// Re-initializes schedule state (solver reload).
  void reset() {
    ema_fast_ = 0.0;
    ema_slow_ = 0.0;
    conflicts_at_restart_ = 0;
    luby_count_ = 0;
    next_restart_conflicts_ = ctx_.options->restart_interval;  // luby(1) = 1
  }

  /// Glucose EMA coefficients: the fast and slow glue averages, and the
  /// margin by which the fast one must exceed the slow one to restart.
  static constexpr double kEmaFastAlpha = 1.0 / 32.0;
  static constexpr double kEmaSlowAlpha = 1.0 / 4096.0;
  static constexpr double kRestartMargin = 1.25;

  /// Folds one learned clause's glue into the Glucose EMAs.
  void on_conflict(std::uint32_t glue) {
    ema_fast_ += kEmaFastAlpha * (glue - ema_fast_);
    ema_slow_ += kEmaSlowAlpha * (glue - ema_slow_);
  }

  bool should_restart() const {
    if (ctx_.options->restart_mode == RestartMode::kLuby) {
      return ctx_.stats.conflicts >= next_restart_conflicts_;
    }
    // Glucose EMA: a minimum gap, a warm-up, then fast glue above slow.
    if (ctx_.stats.conflicts - conflicts_at_restart_ <
        ctx_.options->restart_interval) {
      return false;
    }
    if (ctx_.stats.conflicts < 128) return false;  // EMA warm-up
    return ema_fast_ > kRestartMargin * ema_slow_;
  }

  /// Advances the schedule after the solver executed a restart.
  void on_restart() {
    conflicts_at_restart_ = ctx_.stats.conflicts;
    if (ctx_.options->restart_mode == RestartMode::kLuby) {
      ++luby_count_;
      next_restart_conflicts_ =
          ctx_.stats.conflicts +
          luby(luby_count_ + 1) * ctx_.options->restart_interval;
    }
  }

 private:
  SearchContext& ctx_;

  double ema_fast_ = 0.0;
  double ema_slow_ = 0.0;
  std::uint64_t conflicts_at_restart_ = 0;
  std::uint64_t luby_count_ = 0;
  std::uint64_t next_restart_conflicts_ = 0;
};

}  // namespace ns::solver
