// ns_lint — the repo's static analyzer (DESIGN.md §12, §16, §17).
//
// Walks <root> once — src/ plus the app directories src/LAYERS.txt
// declares — splits each file once, and runs one rule pack per manifest it
// finds under <root>/src/:
//
//   LAYERS.txt       architecture (lint_architecture.cpp)
//   CONCURRENCY.txt  concurrency and determinism (lint_concurrency.cpp)
//   HOTPATHS.txt     hot paths (lint_hotpaths.cpp)
//
// A directory holding its own src/LAYERS.txt is a separate root (a seeded
// fixture tree) and is not walked. Findings print one per line as
//
//   ns_lint: [<rule>] <file>[:<line>]: <message>
//
// (no `:<line>` when the line is 0), then one summary line per pack that
// ran; --json writes the same as one report. Exit 0 = clean,
// 1 = violations, 2 = usage error or no manifest at all.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "lint_common.hpp"

namespace fs = std::filesystem;
using namespace ns::lint;

namespace {

/// The packs in report order; a pack runs when its manifest exists.
struct Pack {
  const char* name;      // summary label and JSON object key
  const char* manifest;  // under <root>/src/
  const char* list_key;  // JSON key of PackResult::list
  std::vector<const char*> rules;
};
const Pack kPacks[] = {
    {"architecture", "LAYERS.txt", "edges",
     {"manifest", "layering", "layer-cycle", "include-cycle",
      "relative-include", "unresolved-include", "self-contained"}},
    {"concurrency", "CONCURRENCY.txt", "lock_order",
     {"manifest", "ownership", "atomic-rationale", "mutex-discipline",
      "lock-order-cycle", "unordered-iteration", "randomness",
      "address-order"}},
    {"hotpaths", "HOTPATHS.txt", "closure",
     {"manifest", "hot-marker", "allocation", "throw", "blocking",
      "virtual-dispatch", "recursion"}},
};
constexpr std::size_t kNumPacks = std::size(kPacks);

void usage(std::FILE* out) {
  std::fputs(
      "usage: ns_lint --root <repo-root> [--json <report.json>]\n"
      "               [--compile-headers] [--compiler <c++-driver>]\n"
      "               [--list-rules] [--verbose]\n",
      out);
}

/// Appends the source files under <root>/<dir>, root-relative and sorted.
/// Hidden directories and nested roots are skipped.
void walk(const fs::path& root, const std::string& dir,
          std::vector<SourceFile>& files) {
  std::vector<fs::path> found;
  const fs::path base = root / dir;
  if (!fs::exists(base)) return;
  for (auto it = fs::recursive_directory_iterator(base);
       it != fs::recursive_directory_iterator(); ++it) {
    const fs::directory_entry& entry = *it;
    if (entry.is_directory()) {
      const std::string name = entry.path().filename().string();
      if ((!name.empty() && name[0] == '.') ||
          fs::exists(entry.path() / "src" / "LAYERS.txt")) {
        it.disable_recursion_pending();
      }
      continue;
    }
    const std::string e = entry.path().extension().string();
    if (entry.is_regular_file() && (e == ".hpp" || e == ".h" || e == ".cpp" ||
                                    e == ".cc" || e == ".inc")) {
      found.push_back(fs::relative(entry.path(), root));
    }
  }
  std::sort(found.begin(), found.end());
  for (const fs::path& rel : found) {
    files.push_back({to_generic(rel), split_lines(root / rel)});
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// {root, <pack>: {files, <list_key>: [...]}..., violations: [...]}
void write_json(const fs::path& path, const fs::path& root,
                const bool (&ran)[kNumPacks],
                const PackResult (&results)[kNumPacks],
                const std::vector<Violation>& violations) {
  std::ofstream json(path);
  json << "{\n  \"root\": \"" << json_escape(to_generic(root)) << "\"";
  for (std::size_t p = 0; p < kNumPacks; ++p) {
    if (!ran[p]) continue;
    json << ",\n  \"" << kPacks[p].name << "\": {\"files\": "
         << results[p].files << ", \"" << kPacks[p].list_key << "\": [";
    for (std::size_t i = 0; i < results[p].list.size(); ++i) {
      json << (i ? ", " : "") << "\"" << json_escape(results[p].list[i])
           << "\"";
    }
    json << "]}";
  }
  json << ",\n  \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    json << (i ? ",\n" : "\n") << "    {\"rule\": \"" << json_escape(v.rule)
         << "\", \"file\": \"" << json_escape(v.file) << "\", \"line\": "
         << v.line << ", \"message\": \"" << json_escape(v.message) << "\"}";
  }
  json << (violations.empty() ? "" : "\n  ") << "]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Tree tree;
  fs::path json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ns_lint: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      tree.root = value();
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--compile-headers") {
      tree.compile_headers = true;
    } else if (arg == "--compiler") {
      tree.compiler = value();
    } else if (arg == "--list-rules") {
      std::set<std::string> seen;
      for (const Pack& pack : kPacks) {
        for (const char* rule : pack.rules) {
          if (seen.insert(rule).second) std::printf("%s\n", rule);
        }
      }
      return 0;
    } else if (arg == "--verbose") {
      tree.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "ns_lint: unknown argument %s\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (tree.root.empty()) {
    usage(stderr);
    return 2;
  }
  tree.root = fs::weakly_canonical(tree.root);

  bool ran[kNumPacks] = {};
  for (std::size_t p = 0; p < kNumPacks; ++p) {
    ran[p] = fs::exists(tree.root / "src" / kPacks[p].manifest);
  }
  if (std::find(std::begin(ran), std::end(ran), true) == std::end(ran)) {
    std::fprintf(stderr,
                 "ns_lint: no manifest under %s/src (expected LAYERS.txt, "
                 "CONCURRENCY.txt or HOTPATHS.txt)\n",
                 to_generic(tree.root).c_str());
    return 2;
  }

  PackResult results[kNumPacks];
  LayerManifest layers;
  if (ran[0]) {
    layers = parse_layers(tree.root / "src" / "LAYERS.txt",
                          results[0].violations);
  }
  walk(tree.root, "src", tree.files);
  tree.src_files = tree.files.size();
  for (const std::string& app : layers.apps) walk(tree.root, app, tree.files);

  if (ran[0]) check_architecture(tree, layers, results[0]);
  if (ran[1]) check_concurrency(tree, results[1]);
  if (ran[2]) check_hotpaths(tree, results[2]);

  std::vector<Violation> violations;
  for (const PackResult& r : results) {
    violations.insert(violations.end(), r.violations.begin(),
                      r.violations.end());
  }
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.rule, a.file, a.line, a.message) <
                     std::tie(b.rule, b.file, b.line, b.message);
            });
  for (const Violation& v : violations) {
    const std::string at = v.line == 0 ? "" : ":" + std::to_string(v.line);
    std::printf("ns_lint: [%s] %s%s: %s\n", v.rule.c_str(), v.file.c_str(),
                at.c_str(), v.message.c_str());
  }
  for (std::size_t p = 0; p < kNumPacks; ++p) {
    if (!ran[p]) continue;
    std::printf("ns_lint: %s: %zu file(s), %s, %zu violation(s)\n",
                kPacks[p].name, results[p].files, results[p].counts.c_str(),
                results[p].violations.size());
  }
  if (!json_path.empty()) {
    write_json(json_path, tree.root, ran, results, violations);
  }
  return violations.empty() ? 0 : 1;
}
