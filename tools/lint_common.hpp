#pragma once
// lint_common — what the rule packs of ns_lint share (DESIGN.md §12, §16,
// §17). ns_lint.cpp walks the tree once and splits each file once; each
// pack (lint_architecture.cpp, lint_concurrency.cpp, lint_hotpaths.cpp)
// owns its manifest grammar and rule set and reads that one walk:
//
//   * comment/string-aware line splitting (LineParts + split_lines)
//   * marker lookup on a line or the unbroken comment block above it
//   * the one NS_SUPPRESS grammar and the banned-construct scan
//   * the DFS cycle finder over string-keyed adjacency maps
//   * the Tree a pack reads and the PackResult it fills
//
// The analyzer is dependency-free: the standard library only.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <vector>

namespace ns::lint {

namespace fs = std::filesystem;

/// One analyzer finding. `line` is 1-based; 0 means "no line" (file- or
/// tree-scoped findings, and every architecture finding).
struct Violation {
  std::string rule;
  std::string file;  // repo-root-relative path (or manifest path)
  std::size_t line = 0;
  std::string message;
};

inline std::string to_generic(const fs::path& p) { return p.generic_string(); }

/// One physical source line, split into its code and comment parts (block
/// comments tracked across lines). `code` keeps string literals verbatim
/// (the architecture pack reads include paths out of them); `stripped`
/// additionally blanks string/char-literal contents, so brace counting and
/// token scans cannot be fooled by quoted braces or keywords.
struct LineParts {
  std::string code;
  std::string comment;
  std::string stripped;
};

/// Splits a file into per-line (code, comment, stripped) parts. Both `//`
/// and `/* ... */` comments land in `comment`; string literals are tracked
/// so a quoted "//" does not start a comment.
inline std::vector<LineParts> split_lines(const fs::path& file) {
  std::vector<LineParts> lines;
  std::ifstream in(file);
  std::string line;
  bool in_block = false;
  while (std::getline(in, line)) {
    LineParts parts;
    bool in_string = false;
    char quote = '\0';
    for (std::size_t i = 0; i < line.size();) {
      if (in_block) {
        if (line.compare(i, 2, "*/") == 0) {
          in_block = false;
          i += 2;
        } else {
          parts.comment.push_back(line[i]);
          ++i;
        }
      } else if (in_string) {
        parts.code.push_back(line[i]);
        parts.stripped.push_back(' ');
        if (line[i] == '\\' && i + 1 < line.size()) {
          parts.code.push_back(line[i + 1]);
          parts.stripped.push_back(' ');
          ++i;
        } else if (line[i] == quote) {
          in_string = false;
          parts.stripped.back() = quote;
        }
        ++i;
      } else if (line[i] == '"' || line[i] == '\'') {
        in_string = true;
        quote = line[i];
        parts.code.push_back(line[i]);
        parts.stripped.push_back(line[i]);
        ++i;
      } else if (line.compare(i, 2, "/*") == 0) {
        in_block = true;
        i += 2;
      } else if (line.compare(i, 2, "//") == 0) {
        parts.comment.append(line, i + 2, std::string::npos);
        break;
      } else {
        parts.code.push_back(line[i]);
        parts.stripped.push_back(line[i]);
        ++i;
      }
    }
    lines.push_back(std::move(parts));
  }
  return lines;
}

inline bool blank_code(const std::string& code) {
  return code.find_first_not_of(" \t") == std::string::npos;
}

/// True when the comment of line `i`, or of an unbroken run of
/// comment-only lines immediately above it, matches `marker`.
inline bool has_marker(const std::vector<LineParts>& lines, std::size_t i,
                       const std::regex& marker) {
  if (std::regex_search(lines[i].comment, marker)) return true;
  for (std::size_t j = i; j-- > 0;) {
    if (!blank_code(lines[j].code)) break;  // a code line ends the block
    if (lines[j].comment.empty()) break;    // so does a fully blank line
    if (std::regex_search(lines[j].comment, marker)) return true;
  }
  return false;
}

/// The suppression grammar of every pack:
///   NS_SUPPRESS(<rule>[, <rule>...]): <why>
/// matched for one `rule`; an empty rationale does not count.
inline std::regex suppress_regex(const std::string& rule) {
  return std::regex("NS_SUPPRESS\\(\\s*(?:[\\w-]+\\s*,\\s*)*" + rule +
                    "(?:\\s*,\\s*[\\w-]+)*\\s*\\)\\s*:\\s*\\S");
}

/// One banned-construct pattern of a rule, with that rule's suppression.
struct Banned {
  Banned(const char* rule_, const char* pattern_, const char* what_,
         bool mutex_class_ = false)
      : rule(rule_),
        pattern(pattern_),
        what(what_),
        mutex_class(mutex_class_),
        suppress(suppress_regex(rule_)) {}
  const char* rule;
  std::regex pattern;
  const char* what;
  bool mutex_class;  // permitted inside hot-path `slack` functions
  std::regex suppress;
};

/// The first entry of `table` that matches `code` and that `excused(entry)`
/// does not excuse, or nullptr: each pack reports at most one banned
/// construct per line.
template <class Excused>
const Banned* first_banned(const std::vector<Banned>& table,
                           const std::string& code, const Excused& excused) {
  for (const Banned& b : table) {
    if (std::regex_search(code, b.pattern) && !excused(b)) return &b;
  }
  return nullptr;
}

/// Subsystem of a root-relative path: "src/<layer>/..." -> layer name,
/// "<app>/..." -> app name when `apps` declares it, anything else
/// (including a bare file directly under src/) -> nullopt.
inline std::optional<std::string> subsystem_of(
    const fs::path& rel, const std::vector<std::string>& apps = {}) {
  auto it = rel.begin();
  if (it == rel.end()) return std::nullopt;
  if (*it == "src") {
    if (++it == rel.end()) return std::nullopt;
    const std::string name = it->string();
    return std::next(it) == rel.end() ? std::nullopt
                                      : std::optional<std::string>(name);
  }
  const std::string top = it->string();
  if (std::find(apps.begin(), apps.end(), top) != apps.end()) return top;
  return std::nullopt;
}

/// DFS cycle finder over a string-keyed adjacency map. Returns one witness
/// cycle per strongly-entangled region (first back edge found from each
/// unvisited node), formatted "a -> b -> a".
inline std::vector<std::string> find_cycles(
    const std::map<std::string, std::set<std::string>>& adj) {
  std::vector<std::string> cycles;
  std::map<std::string, int> color;  // 0 = white, 1 = on stack, 2 = done
  std::vector<std::string> stack;
  std::set<std::string> in_reported_cycle;

  struct Frame {
    std::string node;
    std::set<std::string>::const_iterator next, end;
  };
  for (const auto& [start, unused] : adj) {
    (void)unused;
    if (color[start] != 0) continue;
    std::vector<Frame> frames;
    const auto push = [&](const std::string& n) {
      color[n] = 1;
      stack.push_back(n);
      static const std::set<std::string> kEmpty;
      const auto it = adj.find(n);
      const auto& succ = it == adj.end() ? kEmpty : it->second;
      frames.push_back({n, succ.begin(), succ.end()});
    };
    push(start);
    while (!frames.empty()) {
      Frame& top = frames.back();
      if (top.next == top.end) {
        color[top.node] = 2;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const std::string succ = *top.next++;
      if (color[succ] == 1) {
        // Back edge: the cycle is the stack suffix from succ.
        const auto begin = std::find(stack.begin(), stack.end(), succ);
        bool fresh = false;
        std::string text;
        for (auto it2 = begin; it2 != stack.end(); ++it2) {
          if (in_reported_cycle.insert(*it2).second) fresh = true;
          text += *it2 + " -> ";
        }
        text += succ;
        if (fresh) cycles.push_back(text);
      } else if (color[succ] == 0) {
        push(succ);
      }
    }
  }
  return cycles;
}

/// One source file of the walk, split once and read by every pack.
struct SourceFile {
  std::string rel;  // root-relative, generic separators
  std::vector<LineParts> lines;
};

/// What every pack reads: the root, the one walk of the tree, and the
/// command-line switches.
struct Tree {
  fs::path root;
  std::vector<SourceFile> files;  // src/ (sorted), then each app directory
  std::size_t src_files = 0;      // files[0, src_files) lie under src/
  bool compile_headers = false;
  std::string compiler;  // empty = $CXX, else "c++"
  bool verbose = false;
};

/// One pack's share of the report.
struct PackResult {
  std::size_t files = 0;
  std::string counts;             // summary counts between files and violations
  std::vector<std::string> list;  // edges / lock order / closure
  std::vector<Violation> violations;
};

// --- the three rule packs ----------------------------------------------------

/// src/LAYERS.txt, parsed first: its `app` declarations extend the walk.
struct Layer {
  std::string name;
  bool observer = false;
  bool any_dep = false;        // declared `: *`
  std::set<std::string> deps;  // declared allowed layer dependencies
};
struct LayerManifest {
  std::map<std::string, Layer> layers;
  std::vector<std::string> apps;
};
LayerManifest parse_layers(const fs::path& path, std::vector<Violation>& out);

void check_architecture(const Tree& tree, const LayerManifest& manifest,
                        PackResult& out);
void check_concurrency(const Tree& tree, PackResult& out);
void check_hotpaths(const Tree& tree, PackResult& out);

}  // namespace ns::lint
