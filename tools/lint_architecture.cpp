// Architecture rule pack of ns_lint (ns::archcheck, DESIGN.md §12).
//
// Parses every `#include "..."` directive under src/ and the declared app
// directories (tools/, bench/, tests/, examples/), reconstructs the
// subsystem dependency graph, and checks it against the layering manifest
// at src/LAYERS.txt. Findings carry no line number.
//
// Rules:
//   manifest           malformed manifest, unknown dep name, or an on-disk
//                      src/ subsystem the manifest does not declare
//   layering           an observed include edge the manifest does not allow
//   layer-cycle        a cycle in the subsystem graph (edges leaving an
//                      `observer` layer are exempt: an observer reads
//                      headers everywhere without being a link dependency)
//   include-cycle      a file-level #include cycle (compiles silently under
//                      #pragma once, so only a graph check catches it)
//   relative-include   a quoted include containing `..` (escapes the
//                      include-root discipline)
//   unresolved-include a quoted include that resolves to no file (quoted
//                      includes are reserved for project files)
//   self-contained     with --compile-headers: a public header that does
//                      not compile as a standalone TU
//
// Manifest grammar (one declaration per line, `#` comments):
//   layer <name> [observer] [: <dep>... | : *]
//   app <name>
//
// `observer` marks a layer whose outgoing edges are excluded from the
// cycle check; `*` allows every layer as a dependency. App directories may
// include any layer (and their own files) but never another app.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>  // getpid, for the temp-dir suffix
#endif

#include "lint_common.hpp"

namespace ns::lint {

/// Parses src/LAYERS.txt. Syntax errors are reported as `manifest`
/// violations; the returned manifest holds whatever parsed cleanly.
LayerManifest parse_layers(const fs::path& path, std::vector<Violation>& out) {
  LayerManifest m;
  std::ifstream in(path);
  std::string line;
  std::size_t lineno = 0;
  std::vector<std::pair<std::string, std::string>> pending_deps;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    // `layer graph: cnf` — detach glued colons so `:` tokenizes alone.
    for (std::size_t pos = 0; (pos = line.find(':', pos)) != std::string::npos;
         pos += 3) {
      line.replace(pos, 1, " : ");
    }
    std::istringstream tokens(line);
    std::string kind;
    if (!(tokens >> kind)) continue;  // blank / comment-only line
    const auto bad = [&](const std::string& why) {
      out.push_back({"manifest", to_generic(path), 0,
                     "line " + std::to_string(lineno) + ": " + why});
    };
    if (kind == "app") {
      std::string name;
      if (!(tokens >> name)) {
        bad("`app` needs a directory name");
        continue;
      }
      m.apps.push_back(name);
      continue;
    }
    if (kind != "layer") {
      bad("unknown declaration `" + kind + "` (expected `layer` or `app`)");
      continue;
    }
    Layer layer;
    if (!(tokens >> layer.name)) {
      bad("`layer` needs a name");
      continue;
    }
    bool in_deps = false;
    std::string tok;
    while (tokens >> tok) {
      if (tok == ":") {
        in_deps = true;
      } else if (!in_deps && tok == "observer") {
        layer.observer = true;
      } else if (in_deps && tok == "*") {
        layer.any_dep = true;
      } else if (in_deps) {
        layer.deps.insert(tok);
        pending_deps.emplace_back(layer.name, tok);
      } else {
        bad("unexpected token `" + tok + "` before `:`");
      }
    }
    if (!m.layers.emplace(layer.name, layer).second) {
      bad("layer `" + layer.name + "` declared twice");
    }
  }
  for (const auto& [from, dep] : pending_deps) {
    if (!m.layers.count(dep)) {
      out.push_back({"manifest", to_generic(path), 0,
                     "layer `" + from + "` depends on undeclared layer `" +
                         dep + "`"});
    }
  }
  return m;
}

namespace {

/// Quoted includes of one file, in order. Angle includes are ignored
/// (system/third-party); the shared splitter tracks block comments so
/// commented-out directives do not count.
std::vector<std::string> quoted_includes(const SourceFile& file) {
  static const std::regex kInclude(R"(^\s*#\s*include\s*"([^"]+)\")");
  std::vector<std::string> found;
  for (const LineParts& parts : file.lines) {
    std::smatch match;
    if (std::regex_search(parts.code, match, kInclude)) {
      found.push_back(match[1].str());
    }
  }
  return found;
}

/// Resolves a quoted include: first relative to the including file's
/// directory (standard quoted-include lookup), then against the project
/// include root <root>/src. Returns a root-relative path.
std::optional<fs::path> resolve_include(const fs::path& root,
                                        const fs::path& includer_rel,
                                        const std::string& inc) {
  const fs::path sibling =
      (root / includer_rel).parent_path() / fs::path(inc);
  if (fs::exists(sibling)) {
    return fs::relative(fs::weakly_canonical(sibling), root);
  }
  const fs::path rooted = root / "src" / fs::path(inc);
  if (fs::exists(rooted)) {
    return fs::relative(fs::weakly_canonical(rooted), root);
  }
  return std::nullopt;
}

std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (char c : s) {
    if (c == '\'') {
      q += "'\\''";
    } else {
      q += c;
    }
  }
  q += "'";
  return q;
}

/// Compiles each public header under src/ as a standalone TU
/// (`-fsyntax-only`). Skips with a notice (no violation) when the
/// compiler cannot be run at all.
void check_self_contained(const Tree& tree, std::vector<Violation>& out) {
  std::string cxx = tree.compiler;
  if (cxx.empty()) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe) — single-threaded tool.
    const char* env = std::getenv("CXX");
    cxx = (env != nullptr && *env != '\0') ? env : "c++";
  }
  const std::string probe =
      shell_quote(cxx) + " --version > /dev/null 2>&1";
  // NOLINTNEXTLINE(concurrency-mt-unsafe,cert-env33-c) — lint tool by design.
  if (std::system(probe.c_str()) != 0) {
    std::fprintf(stderr,
                 "ns_lint: note: compiler '%s' not runnable; "
                 "self-contained header checks skipped\n",
                 cxx.c_str());
    return;
  }
  std::error_code ec;
  const fs::path tmp =
      fs::temp_directory_path() / ("ns_archcheck_" + std::to_string(
#ifdef _WIN32
                                       0
#else
                                       static_cast<long>(getpid())
#endif
                                       ));
  fs::create_directories(tmp, ec);
  const fs::path tu = tmp / "header_tu.cpp";
  const fs::path err = tmp / "header_tu.err";
  for (std::size_t fi = 0; fi < tree.src_files; ++fi) {
    const fs::path rel = tree.files[fi].rel;  // public headers live in src/
    const std::string e = rel.extension().string();
    if (e != ".hpp" && e != ".h") continue;
    const std::string inc = to_generic(rel.lexically_relative("src"));
    {
      std::ofstream tu_out(tu);
      tu_out << "#include \"" << inc << "\"\n";
    }
    const std::string cmd =
        shell_quote(cxx) + " -std=c++20 -fsyntax-only -Wall -Wextra -I " +
        shell_quote(to_generic(tree.root / "src")) + " " +
        shell_quote(to_generic(tu)) + " 2> " + shell_quote(to_generic(err));
    // NOLINTNEXTLINE(concurrency-mt-unsafe,cert-env33-c)
    if (std::system(cmd.c_str()) != 0) {
      std::string first_error = "(no diagnostics captured)";
      std::ifstream err_in(err);
      std::string line;
      while (std::getline(err_in, line)) {
        if (line.find("error") != std::string::npos) {
          first_error = line;
          break;
        }
      }
      out.push_back({"self-contained", to_generic(rel), 0,
                     "header does not compile standalone: " + first_error});
    } else if (tree.verbose) {
      std::fprintf(stderr, "ns_lint: header ok: %s\n", inc.c_str());
    }
  }
  fs::remove_all(tmp, ec);
}

}  // namespace

void check_architecture(const Tree& tree, const LayerManifest& manifest,
                        PackResult& out) {
  std::vector<Violation>& violations = out.violations;
  const fs::path manifest_path = tree.root / "src" / "LAYERS.txt";

  // Every on-disk subsystem under src/ must be declared: a new directory
  // cannot join the tree without taking a position in the layer DAG.
  for (const auto& entry : fs::directory_iterator(tree.root / "src")) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (!manifest.layers.count(name)) {
      violations.push_back(
          {"manifest", "src/" + name, 0,
           "subsystem directory is not declared in the layer manifest"});
    }
  }

  // Scan includes; build the file-level and subsystem-level graphs.
  std::map<std::string, std::set<std::string>> file_adj;
  struct LayerEdge {
    std::string witness_file, witness_include;
  };
  std::map<std::pair<std::string, std::string>, LayerEdge> layer_edges;
  for (const SourceFile& file : tree.files) {
    const fs::path rel = file.rel;
    const auto from_sub = subsystem_of(rel, manifest.apps);
    for (const std::string& inc : quoted_includes(file)) {
      if (inc.find("..") != std::string::npos) {
        violations.push_back(
            {"relative-include", file.rel, 0,
             "include \"" + inc + "\" uses a `..` path; include via the "
             "src/-rooted path instead"});
        continue;
      }
      const auto target = resolve_include(tree.root, rel, inc);
      if (!target) {
        violations.push_back(
            {"unresolved-include", file.rel, 0,
             "include \"" + inc + "\" resolves to no project file (quoted "
             "includes are reserved for project headers)"});
        continue;
      }
      file_adj[file.rel].insert(to_generic(*target));
      const auto to_sub = subsystem_of(*target, manifest.apps);
      if (!from_sub || !to_sub || *from_sub == *to_sub) continue;
      const auto key = std::make_pair(*from_sub, *to_sub);
      if (!layer_edges.count(key)) {
        layer_edges[key] = {file.rel, inc};
      }
    }
  }

  // Layering: every observed cross-subsystem edge must be declared.
  const auto is_app = [&](const std::string& name) {
    return std::find(manifest.apps.begin(), manifest.apps.end(), name) !=
           manifest.apps.end();
  };
  for (const auto& [edge, witness] : layer_edges) {
    const auto& [from, to] = edge;
    if (is_app(from)) {
      if (is_app(to)) {
        violations.push_back(
            {"layering", witness.witness_file, 0,
             "app `" + from + "` includes \"" + witness.witness_include +
                 "\" from app `" + to + "`; apps must not depend on "
                 "each other"});
      }
      continue;  // app -> layer: apps are top-level consumers
    }
    if (is_app(to)) {
      violations.push_back(
          {"layering", witness.witness_file, 0,
           "layer `" + from + "` includes \"" + witness.witness_include +
               "\" from app `" + to + "`; layers must not reach into apps"});
      continue;
    }
    const auto it = manifest.layers.find(from);
    if (it == manifest.layers.end()) continue;  // already a manifest error
    const Layer& layer = it->second;
    if (!layer.any_dep && !layer.deps.count(to)) {
      violations.push_back(
          {"layering", witness.witness_file, 0,
           "include \"" + witness.witness_include + "\" creates edge `" +
               from + " -> " + to + "`, which src/LAYERS.txt does not "
               "declare"});
    }
  }

  // Subsystem cycles over observed edges, minus observer-outgoing edges
  // (an observer reads headers everywhere; it is not a link dependency).
  std::map<std::string, std::set<std::string>> layer_adj;
  for (const auto& [edge, unused] : layer_edges) {
    (void)unused;
    const auto& [from, to] = edge;
    if (is_app(from) || is_app(to)) continue;
    const auto it = manifest.layers.find(from);
    if (it != manifest.layers.end() && it->second.observer) continue;
    layer_adj[from].insert(to);
  }
  for (const std::string& cycle : find_cycles(layer_adj)) {
    violations.push_back({"layer-cycle", "src", 0,
                          "subsystem dependency cycle: " + cycle});
  }
  // The declared graph must itself be a DAG (manifest sanity).
  std::map<std::string, std::set<std::string>> declared_adj;
  for (const auto& [name, layer] : manifest.layers) {
    if (layer.observer) continue;
    declared_adj[name] = layer.deps;
  }
  for (const std::string& cycle : find_cycles(declared_adj)) {
    violations.push_back(
        {"layer-cycle", to_generic(manifest_path), 0,
         "declared dependency cycle: " + cycle});
  }

  // File-level include cycles (silent under #pragma once).
  for (const std::string& cycle : find_cycles(file_adj)) {
    violations.push_back({"include-cycle", "src", 0,
                          "#include cycle: " + cycle});
  }

  if (tree.compile_headers) check_self_contained(tree, violations);

  out.files = tree.files.size();
  out.counts = std::to_string(layer_edges.size()) + " subsystem edge(s)";
  for (const auto& [edge, unused] : layer_edges) {
    (void)unused;
    out.list.push_back(edge.first + " -> " + edge.second);
  }
}

}  // namespace ns::lint
