// Concurrency and determinism rule pack of ns_lint (ns::conlint,
// DESIGN.md §16).
//
// The repo's moat is bitwise determinism at any thread count, and the
// serving layer will multiply the concurrent state; this pack makes both
// properties *checked* instead of hoped-for. It scans every source file
// under src/ against the concurrency manifest at src/CONCURRENCY.txt.
//
// Manifest grammar (one declaration per line, `#` comments):
//   threads <layer>...        layers that may create/own OS threads
//                             (std::thread/jthread/async, thread_local)
//   atomics <layer>...        layers that may declare std::atomic state
//   mutexes <layer>...        layers that may declare mutexes/condvars
//                             (runtime::Mutex preferred; raw std types
//                             need an NS_MUTEX rationale)
//   deterministic <layer>...  layers whose search trajectory must be
//                             bit-reproducible: the determinism rules
//                             below apply
//
// Rules:
//   manifest            malformed manifest, or a grant naming a layer with
//                       no directory under src/
//   ownership           a thread/atomic/mutex primitive in a layer the
//                       manifest does not grant it — concurrency cannot
//                       creep into a layer without taking a position in
//                       the manifest
//   atomic-rationale    a std::atomic declaration without an
//                       `NS_ATOMIC(<order>): <rationale>` comment naming
//                       its memory-order contract (relaxed, acquire,
//                       release, acq_rel, seq_cst)
//   mutex-discipline    a raw std::mutex/std::condition_variable member
//                       that is neither the annotated runtime::Mutex /
//                       CondVar wrapper nor justified by an
//                       `NS_MUTEX: <rationale>` comment (raw std types are
//                       invisible to clang's thread-safety analysis)
//   lock-order-cycle    a cycle in the lock-order graph declared by
//                       `NS_ACQUIRED_BEFORE` annotations (a cyclic order
//                       admits deadlock by construction)
//   unordered-iteration std::unordered_map/set in a deterministic layer:
//                       iteration order is hash-seed- and libstdc++-
//                       version-dependent, so any order that escapes
//                       poisons the trajectory
//   randomness          rand()/std::random_device/time()/clock()/
//                       *_clock::now() in a deterministic layer — seeded
//                       deterministic engines (std::mt19937) are fine,
//                       ambient entropy and wall clocks are not
//   address-order       pointer-value or hash-value ordering
//                       (std::less<T*>, uintptr_t casts, std::hash-keyed
//                       ordering) in a deterministic layer: allocation
//                       addresses differ run to run
//
// Determinism rules accept justified suppressions on the same line or an
// immediately preceding comment block, in the grammar every pack shares:
//
//   // NS_SUPPRESS(<rule>[, <rule>...]): <why no nondeterminism escapes>
//
// A suppression with an empty rationale does not count.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint_common.hpp"

namespace ns::lint {

namespace {

struct Manifest {
  // directive name -> granted layer set; the four known directives are
  // always present (possibly empty).
  std::map<std::string, std::set<std::string>> grants;
};

const std::set<std::string> kDirectives = {"threads", "atomics", "mutexes",
                                           "deterministic"};

/// Parses src/CONCURRENCY.txt. Syntax errors are reported as `manifest`
/// violations; the returned manifest holds whatever parsed cleanly.
Manifest parse_manifest(const fs::path& path, const fs::path& root,
                        std::vector<Violation>& out) {
  Manifest m;
  for (const std::string& d : kDirectives) m.grants[d];
  std::ifstream in(path);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens(line);
    std::string directive;
    if (!(tokens >> directive)) continue;  // blank / comment-only line
    if (!kDirectives.count(directive)) {
      out.push_back({"manifest", to_generic(path), lineno,
                     "unknown declaration `" + directive +
                         "` (expected threads, atomics, mutexes, or "
                         "deterministic)"});
      continue;
    }
    std::string layer;
    bool any = false;
    while (tokens >> layer) {
      any = true;
      if (!fs::is_directory(root / "src" / layer)) {
        out.push_back({"manifest", to_generic(path), lineno,
                       "`" + directive + "` grants layer `" + layer +
                           "`, but src/" + layer + " does not exist"});
        continue;
      }
      m.grants[directive].insert(layer);
    }
    if (!any) {
      out.push_back({"manifest", to_generic(path), lineno,
                     "`" + directive + "` needs at least one layer name"});
    }
  }
  return m;
}

/// Detects `std::atomic<...> name` / `std::atomic_bool name` declarations
/// (as opposed to mentions inside template args, references, or aliases).
bool is_atomic_decl(const std::string& code) {
  const std::size_t at = code.find("std::atomic");
  if (at == std::string::npos) return false;
  std::size_t i = at + std::string("std::atomic").size();
  while (i < code.size() &&
         (std::isalnum(static_cast<unsigned char>(code[i])) != 0 ||
          code[i] == '_')) {
    ++i;  // std::atomic_bool and friends
  }
  while (i < code.size() && code[i] == ' ') ++i;
  if (i < code.size() && code[i] == '<') {
    int depth = 0;
    for (; i < code.size(); ++i) {
      if (code[i] == '<') ++depth;
      if (code[i] == '>' && --depth == 0) {
        ++i;
        break;
      }
    }
  }
  while (i < code.size() && code[i] == ' ') ++i;
  return i < code.size() &&
         (std::isalpha(static_cast<unsigned char>(code[i])) != 0 ||
          code[i] == '_');
}

}  // namespace

void check_concurrency(const Tree& tree, PackResult& out) {
  std::vector<Violation>& violations = out.violations;
  const Manifest manifest = parse_manifest(
      tree.root / "src" / "CONCURRENCY.txt", tree.root, violations);
  const auto granted = [&](const char* directive, const std::string& layer) {
    return manifest.grants.at(directive).count(layer) != 0;
  };

  // Token patterns. Thread/atomic/mutex ownership triggers on any use of
  // the primitive; the rationale rules trigger only on declarations.
  static const std::regex kThreadTok(
      R"(\bstd::(thread|jthread|async)\b|\bthread_local\b)");
  static const std::regex kStdSyncTok(
      R"(\bstd::(mutex|recursive_mutex|shared_mutex|timed_mutex|condition_variable(_any)?)\b)");
  static const std::regex kStdSyncDecl(
      R"(\bstd::(mutex|recursive_mutex|shared_mutex|timed_mutex|condition_variable(_any)?)\s+[A-Za-z_]\w*)");
  static const std::regex kWrapperDecl(
      R"(\b(runtime::)?(Mutex|CondVar)\s+[A-Za-z_]\w*)");
  static const std::regex kAcquiredBefore(
      R"((\w+)\s+NS_ACQUIRED_BEFORE\s*\(([^)]*)\))");
  static const std::regex kAtomicMarker(
      R"(NS_ATOMIC\(\s*(relaxed|acquire|release|acq_rel|seq_cst)\s*\)\s*:\s*\S)");
  static const std::regex kMutexMarker(R"(NS_MUTEX\s*:\s*\S)");

  static const std::vector<Banned> kBanned = {
      {"unordered-iteration", R"(\bunordered_(map|set|multimap|multiset)\b)",
       "std::unordered_* container (iteration order is hash-seed and "
       "library-version dependent)"},
      {"randomness", R"(\bstd::random_device\b)",
       "std::random_device (ambient entropy)"},
      {"randomness", R"((^|[^\w:.])s?rand\s*\()",
       "rand()/srand() (global, nondeterministic across platforms)"},
      {"randomness", R"((^|[^\w:.])time\s*\()", "time() (wall clock)"},
      {"randomness", R"((^|[^\w:.])clock\s*\()", "clock() (wall clock)"},
      {"randomness", R"(_clock::now\s*\()",
       "std::chrono clock read (wall clock)"},
      {"address-order", R"(reinterpret_cast<\s*(std::)?uintptr_t\s*>)",
       "pointer-to-integer cast (allocation addresses differ run to run)"},
      {"address-order", R"(\bstd::less<[^>]*\*\s*>)",
       "std::less over pointers (address ordering)"},
      {"address-order", R"(\bstd::hash<)",
       "std::hash-keyed ordering (hash values are not a stable order)"},
      {"address-order", R"(\bstd::owner_less\b)",
       "std::owner_less (address ordering)"},
  };

  // Lock-order edges from NS_ACQUIRED_BEFORE declarations, tree-wide:
  // capability-name -> must-be-acquired-after names.
  std::map<std::string, std::set<std::string>> lock_order;

  for (std::size_t fi = 0; fi < tree.src_files; ++fi) {
    const std::string& rel_str = tree.files[fi].rel;
    const auto layer = subsystem_of(rel_str);
    if (!layer) continue;
    const std::vector<LineParts>& lines = tree.files[fi].lines;
    const bool deterministic = granted("deterministic", *layer);

    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& code = lines[i].code;
      if (blank_code(code)) continue;
      const std::size_t lineno = i + 1;
      // Preprocessor lines are exempt throughout: an #include or a macro
      // definition is not a use site (the uses it enables still are).
      const bool preprocessor = code[code.find_first_not_of(" \t")] == '#';

      // Lock-order edges.
      if (!preprocessor) {
        auto begin =
            std::sregex_iterator(code.begin(), code.end(), kAcquiredBefore);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
          const std::string holder = (*it)[1].str();
          std::istringstream args((*it)[2].str());
          std::string target;
          while (std::getline(args, target, ',')) {
            const auto b = target.find_first_not_of(" \t");
            const auto e = target.find_last_not_of(" \t");
            if (b == std::string::npos) continue;
            lock_order[holder].insert(target.substr(b, e - b + 1));
          }
        }
      }

      // --- ownership + annotation discipline -----------------------------
      if (std::regex_search(code, kThreadTok) && !granted("threads", *layer)) {
        violations.push_back(
            {"ownership", rel_str, lineno,
             "thread primitive in layer `" + *layer + "`, which "
             "src/CONCURRENCY.txt does not grant `threads`"});
      }
      if (code.find("std::atomic") != std::string::npos) {
        if (!granted("atomics", *layer)) {
          violations.push_back(
              {"ownership", rel_str, lineno,
               "std::atomic in layer `" + *layer + "`, which "
               "src/CONCURRENCY.txt does not grant `atomics`"});
        } else if (is_atomic_decl(code) &&
                   !has_marker(lines, i, kAtomicMarker)) {
          violations.push_back(
              {"atomic-rationale", rel_str, lineno,
               "std::atomic declaration without an `NS_ATOMIC(<order>): "
               "<rationale>` comment naming its memory-order contract"});
        }
      }
      const bool std_sync = std::regex_search(code, kStdSyncTok);
      const bool wrapper_decl = std::regex_search(code, kWrapperDecl);
      if ((std_sync || wrapper_decl) && !granted("mutexes", *layer)) {
        violations.push_back(
            {"ownership", rel_str, lineno,
             "mutex/condvar in layer `" + *layer + "`, which "
             "src/CONCURRENCY.txt does not grant `mutexes`"});
      } else if (std_sync && std::regex_search(code, kStdSyncDecl) &&
                 !has_marker(lines, i, kMutexMarker)) {
        violations.push_back(
            {"mutex-discipline", rel_str, lineno,
             "raw std mutex/condvar declaration; use the annotated "
             "runtime::Mutex / CondVar wrappers (visible to "
             "-Wthread-safety) or justify with `NS_MUTEX: <rationale>`"});
      }

      // --- determinism rules ---------------------------------------------
      if (!deterministic || preprocessor) continue;
      const auto suppressed = [&](const Banned& b) {
        return has_marker(lines, i, b.suppress);
      };
      if (const Banned* b = first_banned(kBanned, code, suppressed)) {
        violations.push_back(
            {b->rule, rel_str, lineno,
             std::string(b->what) + " in deterministic layer `" + *layer +
                 "`; replace it or justify with `NS_SUPPRESS(" + b->rule +
                 "): <why no nondeterminism escapes>`"});
      }
    }
    if (tree.verbose) {
      std::fprintf(stderr, "ns_lint: scanned %s (%zu lines)\n",
                   rel_str.c_str(), lines.size());
    }
  }

  for (const std::string& cycle : find_cycles(lock_order)) {
    violations.push_back(
        {"lock-order-cycle", "src", 0,
         "NS_ACQUIRED_BEFORE declarations form a cycle: " + cycle +
             " (a cyclic lock order admits deadlock)"});
  }

  out.files = tree.src_files;
  out.counts = std::to_string(lock_order.size()) + " lock-order edge(s)";
  for (const auto& [from, tos] : lock_order) {
    for (const auto& to : tos) out.list.push_back(from + " -> " + to);
  }
}

}  // namespace ns::lint
