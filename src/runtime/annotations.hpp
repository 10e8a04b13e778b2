#pragma once
/// \file annotations.hpp
/// Clang thread-safety annotations (see DESIGN.md §12) plus the minimal
/// annotated synchronization vocabulary the analysis needs to be useful.
///
/// The `NS_*` macros expand to clang's `__attribute__((...))` thread-safety
/// attributes under clang and to nothing elsewhere, so gcc builds are
/// byte-for-byte unaffected. The analysis itself is enabled by the
/// `NS_THREAD_SAFETY=ON` CMake option, which adds `-Werror=thread-safety`
/// when the compiler supports it.
///
/// Clang's analysis only tracks *annotated* capability types — a bare
/// `std::mutex` is invisible to it (libstdc++ ships no annotations) — so
/// this header also provides `Mutex`, `MutexLock`, and `CondVar`: thin,
/// zero-overhead wrappers over the std primitives that carry the
/// attributes. Guarded state is declared `NS_GUARDED_BY(mutex)` and every
/// access is then proven to happen under the right lock at compile time.
///
/// The static half of the discipline is enforced by ns::conlint (ns_lint's
/// concurrency pack, tools/lint_concurrency.cpp, against
/// src/CONCURRENCY.txt, DESIGN.md §16), which checks three comment
/// conventions tree-wide:
///   // NS_ATOMIC(<order>): rationale   on every std::atomic declaration
///       (<order> is the memory-order contract: relaxed, acquire, release,
///       acq_rel, or seq_cst — and the rationale says why it suffices)
///   // NS_MUTEX: rationale             on any *raw* std mutex/condvar
///       declaration (the wrappers below are the sanctioned form; raw std
///       types are invisible to the analysis, so they must justify why)
///   // NS_SUPPRESS(<rule>): rationale  on a line a determinism rule would
///       otherwise reject in a deterministic layer
/// `NS_ACQUIRED_BEFORE` edges double as a declared lock-order graph that
/// conlint checks for cycles.

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define NS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define NS_THREAD_ANNOTATION(x)  // no-op off clang: plain gcc/msvc builds
#endif

/// Marks a type as a lockable capability ("mutex" names it in diagnostics).
#define NS_CAPABILITY(x) NS_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define NS_SCOPED_CAPABILITY NS_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only while `x` is held.
#define NS_GUARDED_BY(x) NS_THREAD_ANNOTATION(guarded_by(x))
/// Pointee (not the pointer) guarded by `x`.
#define NS_PT_GUARDED_BY(x) NS_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function may only be called with the listed capabilities held.
#define NS_REQUIRES(...) NS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the listed capabilities (held on return).
#define NS_ACQUIRE(...) NS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the listed capabilities.
#define NS_RELEASE(...) NS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires on a `true`/`ret`-valued return.
#define NS_TRY_ACQUIRE(...) \
  NS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Function must NOT be called with the listed capabilities held.
#define NS_EXCLUDES(...) NS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Declares lock-ordering: this capability is acquired before the listed.
#define NS_ACQUIRED_BEFORE(...) \
  NS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
/// Escape hatch for functions the analysis cannot follow; justify at site.
#define NS_NO_THREAD_SAFETY_ANALYSIS \
  NS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ns::runtime {

/// `std::mutex` carrying the capability annotation. Same size, same codegen
/// (lock/unlock inline into the std calls); exists so `NS_GUARDED_BY` has a
/// capability expression the analysis recognizes.
class NS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() NS_ACQUIRE() { m_.lock(); }
  void unlock() NS_RELEASE() { m_.unlock(); }
  bool try_lock() NS_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  // NS_MUTEX: the wrapped payload of the annotated Mutex capability itself —
  // this declaration is the one place the raw type is the point.
  std::mutex m_;
};

/// Scoped lock over `Mutex` (the annotated `std::lock_guard`).
class NS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) NS_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() NS_RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

/// Condition variable usable with `Mutex`. Call sites use explicit
/// predicate loops (`while (!pred) cv.wait(mutex);`) rather than the
/// predicate-lambda overload: the loop body is then syntactically inside
/// the locked region, so guarded-member accesses in the predicate are
/// checked (a lambda body would be analyzed without the lock context).
class CondVar {
 public:
  /// Atomically releases `m`, blocks, and reacquires before returning —
  /// `m` is held across the call from the analysis' point of view.
  void wait(Mutex& m) NS_REQUIRES(m) { cv_.wait(m); }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  // NS_MUTEX: the wrapped payload of the annotated CondVar. _any: waits on
  // the annotated Mutex directly (BasicLockable), so no unannotated
  // unique_lock<std::mutex> detour is needed.
  std::condition_variable_any cv_;
};

}  // namespace ns::runtime
