// Hot-path rule pack of ns_lint (ns::hotlint, DESIGN.md §17).
//
// The repo's headline latency contracts (zero steady-state allocations in
// inference, the flat-arena BCP loop, SIMD microkernels) were enforced only
// dynamically, by counting-allocator bench windows; this pack makes them
// statically gated properties, the way the architecture pack gates
// layering and the concurrency pack gates concurrency. It reads every
// source file under src/ against the hot-path manifest at src/HOTPATHS.txt,
// extracts function definitions textually, builds the intra-repo
// caller→callee closure of the declared roots, and bans latency hazards
// inside that closure.
//
// Manifest grammar (one declaration per line, `#` comments):
//   root <file> <function>   declares a hot entry point. <file> is a
//                            root-relative path under src/; <function> is a
//                            qualified-name suffix (`Propagator::propagate`)
//                            or `*` for every function in the file (SIMD
//                            kernel headers). Every root definition must
//                            carry an `NS_HOT(<rationale>)` marker.
//   slack <file> <function>  grants the named function (only) permission to
//                            acquire mutexes — for hot paths that publish
//                            through a lock at a bounded safe point, like
//                            the portfolio sweep's winner publication.
//
// Rules:
//   manifest          malformed manifest, a root/slack naming a missing
//                     file, or a function the extractor cannot find there
//   hot-marker        a declared root definition without an
//                     `NS_HOT(<rationale>)` marker, or an NS_HOT marker on
//                     a function the manifest does not declare (drift in
//                     either direction)
//   allocation        `new`, make_unique/make_shared, allocating container
//                     operations (push_back/resize/reserve/...) without a
//                     capacity proof, or by-value construction of an
//                     allocating std type (string, vector, function, ...)
//   throw             `throw`, or allocating std calls that throw on
//                     malformed input (stoi/stod family)
//   blocking          iostream/file I/O, this_thread::sleep, thread joins,
//                     or mutex acquisition outside a granted `slack`
//                     function
//   virtual-dispatch  a member call to a repo-declared virtual method
//                     inside an innermost loop (indirect call the branch
//                     predictor must eat per iteration)
//   recursion         a call cycle among closure functions over bare /
//                     this-> calls (unbounded stack on hot input)
//
// All per-line rules accept justified suppressions on the statement's
// lines or an immediately preceding comment block, in the grammar every
// pack shares:
//
//   // NS_SUPPRESS(<rule>[, <rule>...]): <why the hazard is bounded>
//
// A suppression with an empty rationale does not count. A suppressed call
// line also drops its callee edges from the closure — that is the escape
// hatch for amortized helpers (watcher-arena relocation, pool dispatch
// above the parallel threshold) whose bodies allocate by design.
//
// Known textual limitations (documented in DESIGN.md §17): both arms of a
// preprocessor conditional are scanned (each must be brace-balanced),
// operator overload bodies are not extracted, and calls through function
// pointers / type-erased callables are invisible. The bench-side
// counting-allocator windows remain the dynamic cross-check.

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint_common.hpp"

namespace ns::lint {

namespace {

struct RootDecl {
  std::string file;
  std::string func;  // qualified suffix, or "*"
  std::size_t lineno = 0;
  bool slack = false;
};

/// Parses src/HOTPATHS.txt. Syntax errors are reported as `manifest`
/// violations; the returned list holds whatever parsed cleanly.
std::vector<RootDecl> parse_manifest(const fs::path& path,
                                     const fs::path& root,
                                     std::vector<Violation>& out) {
  std::vector<RootDecl> decls;
  std::ifstream in(path);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens(line);
    std::string kind;
    if (!(tokens >> kind)) continue;  // blank / comment-only line
    if (kind != "root" && kind != "slack") {
      out.push_back({"manifest", to_generic(path), lineno,
                     "unknown declaration `" + kind +
                         "` (expected `root` or `slack`)"});
      continue;
    }
    RootDecl d;
    d.slack = (kind == "slack");
    d.lineno = lineno;
    std::string extra;
    if (!(tokens >> d.file >> d.func) || (tokens >> extra)) {
      out.push_back({"manifest", to_generic(path), lineno,
                     "`" + kind + "` needs exactly `" + kind +
                         " <file> <function>`"});
      continue;
    }
    if (!fs::is_regular_file(root / d.file)) {
      out.push_back({"manifest", to_generic(path), lineno,
                     "`" + kind + "` names `" + d.file +
                         "`, which does not exist under the repo root"});
      continue;
    }
    if (d.slack && d.func == "*") {
      out.push_back({"manifest", to_generic(path), lineno,
                     "`slack` must name one function, not `*`"});
      continue;
    }
    decls.push_back(d);
  }
  return decls;
}

// --- textual function extraction --------------------------------------------

struct FuncDef {
  std::string name;        // qualified, e.g. "ns::Propagator::propagate"
  std::string last;        // last name component
  std::string cls;         // qualified name minus the last component
  std::size_t file_index = 0;
  std::size_t start = 0;   // 0-based index of the line holding the `{`
  std::size_t end = 0;     // 0-based index of the line holding the `}`
  std::size_t brace_col = 0;  // column of the opening `{` on line `start`
  std::map<std::string, std::string> vars;  // local/param name -> type
};

struct CallSite {
  std::size_t line = 0;  // 0-based
  std::string name;      // callee as written (qualified for bare calls)
  bool member = false;   // reached through `.` or `->`
  bool bare = false;     // bare or this-> (recursion-relevant)
  std::vector<std::string> recv;  // receiver chain (`ctx_.db` -> {ctx_, db})
};

/// member variables per class (last name component): name -> type.
using ClassMembers = std::map<std::string, std::map<std::string, std::string>>;

struct FileScan {
  const std::string& rel;  // the walk's file, split once
  const std::vector<LineParts>& lines;
  std::vector<int> line_func;      // innermost function per line, -1 = none
  std::vector<bool> line_in_loop;  // inside a loop scope of that function
  std::vector<bool> line_preproc;
};

enum class ScopeKind { kNamespace, kClass, kFunction, kPlain };

struct Scope {
  ScopeKind kind = ScopeKind::kPlain;
  std::string name;  // namespace/class component ("" = anonymous)
  bool is_loop = false;
  int func = -1;
  int saved_paren_depth = 0;
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

const std::set<std::string> kControlKw = {"if",    "else",  "for", "while",
                                          "do",    "switch", "catch", "try",
                                          "case",  "default", "return",
                                          "goto",  "using",  "typedef"};

/// Removes `__attribute__((...))` wrappers (SIMD target attributes) so the
/// identifier before the first `(` is the function name, not the attribute.
std::string strip_attributes(std::string text) {
  for (std::size_t at; (at = text.find("__attribute__")) != std::string::npos;
       ) {
    std::size_t i = at + std::string("__attribute__").size();
    while (i < text.size() && text[i] == ' ') ++i;
    int depth = 0;
    for (; i < text.size(); ++i) {
      if (text[i] == '(') ++depth;
      if (text[i] == ')' && --depth == 0) {
        ++i;
        break;
      }
    }
    text.erase(at, i - at);
  }
  return text;
}

/// Removes a leading `template <...>` (angle depth counted) if present.
std::string strip_template_prefix(std::string text) {
  for (;;) {
    const std::size_t b = text.find_first_not_of(" \t");
    if (b == std::string::npos || text.compare(b, 8, "template") != 0) break;
    const std::size_t lt = text.find('<', b);
    if (lt == std::string::npos) break;
    int depth = 0;
    std::size_t i = lt;
    for (; i < text.size(); ++i) {
      if (text[i] == '<') ++depth;
      if (text[i] == '>' && --depth == 0) {
        ++i;
        break;
      }
    }
    text.erase(0, i);
  }
  return text;
}

struct Classified {
  ScopeKind kind = ScopeKind::kPlain;
  std::string name;
  bool is_loop = false;
};

/// Classifies the statement text preceding an opening `{`.
Classified classify(const std::string& raw) {
  Classified c;
  const std::string text =
      strip_template_prefix(strip_attributes(raw));
  std::size_t i = text.find_first_not_of(" \t");
  if (i == std::string::npos) return c;  // bare block

  // First identifier token.
  std::string first;
  for (std::size_t j = i; j < text.size() && is_ident_char(text[j]); ++j) {
    first.push_back(text[j]);
  }

  const auto next_name_token = [&](std::size_t from) -> std::string {
    // First identifier after `from` that is not a macro-style call
    // (`NS_CAPABILITY(...)`, `alignas(...)`) and not `final`.
    std::size_t j = from;
    while (j < text.size()) {
      while (j < text.size() && !is_ident_char(text[j])) ++j;
      std::string tok;
      while (j < text.size() && is_ident_char(text[j])) {
        tok.push_back(text[j]);
        ++j;
      }
      if (tok.empty()) break;
      std::size_t k = j;
      while (k < text.size() && text[k] == ' ') ++k;
      if (k < text.size() && text[k] == '(') {
        int depth = 0;
        for (; k < text.size(); ++k) {
          if (text[k] == '(') ++depth;
          if (text[k] == ')' && --depth == 0) {
            ++k;
            break;
          }
        }
        j = k;
        continue;  // attribute macro, skip
      }
      if (tok == "final" || tok == "alignas") continue;
      return tok;
    }
    return "";
  };

  if (first == "namespace") {
    c.kind = ScopeKind::kNamespace;
    c.name = next_name_token(i + first.size());
    return c;
  }
  if (first == "class" || first == "struct" || first == "union" ||
      first == "enum") {
    std::size_t from = i + first.size();
    if (first == "enum") {
      // `enum class Foo` / `enum struct Foo`
      const std::size_t b = text.find_first_not_of(" \t", from);
      if (b != std::string::npos && (text.compare(b, 5, "class") == 0 ||
                                     text.compare(b, 6, "struct") == 0)) {
        from = text.find(' ', b);
        if (from == std::string::npos) from = text.size();
      }
    }
    c.kind = ScopeKind::kClass;
    std::string name = next_name_token(from);
    // Consume a qualified chain: `struct ThreadPool::Impl {` names Impl,
    // so Impl's members index under their own class.
    std::size_t p2 = text.find(name, from);
    if (p2 != std::string::npos) {
      p2 += name.size();
      for (;;) {
        std::size_t s2 = p2;
        while (s2 < text.size() && text[s2] == ' ') ++s2;
        if (s2 + 1 >= text.size() || text[s2] != ':' || text[s2 + 1] != ':') {
          break;
        }
        s2 += 2;
        while (s2 < text.size() && text[s2] == ' ') ++s2;
        std::string tok;
        while (s2 < text.size() && is_ident_char(text[s2])) {
          tok.push_back(text[s2++]);
        }
        if (tok.empty()) break;
        name = tok;
        p2 = s2;
      }
    }
    // Stop at a base-class list: `struct : Base {` is anonymous (a single
    // `:`, not the `::` of a qualified name, precedes the token found).
    for (std::size_t q2 = 0; q2 < text.size(); ++q2) {
      if (text[q2] != ':') continue;
      if (q2 + 1 < text.size() && text[q2 + 1] == ':') {
        ++q2;
        continue;
      }
      if (q2 > 0 && text[q2 - 1] == ':') continue;
      const std::size_t npos = text.find(name, from);
      if (npos != std::string::npos && npos > q2) name.clear();
      break;
    }
    c.name = name;
    return c;
  }
  if (kControlKw.count(first)) {
    c.is_loop = (first == "for" || first == "while" || first == "do");
    return c;  // kPlain
  }
  if (first == "do" || text.back() == ':') return c;

  const std::size_t paren = text.find('(');
  if (paren == std::string::npos) return c;  // aggregate init, bare block
  if (text.find('=') < paren) return c;      // assignment / lambda binding
  // Function name: the identifier chain immediately before the `(`.
  std::size_t e = paren;
  while (e > 0 && text[e - 1] == ' ') --e;
  std::size_t b = e;
  while (b > 0 && (is_ident_char(text[b - 1]) || text[b - 1] == ':' ||
                   text[b - 1] == '~')) {
    --b;
  }
  std::string name = text.substr(b, e - b);
  while (!name.empty() && name.front() == ':') name.erase(0, 1);
  if (name.empty() || kControlKw.count(name) || name == "operator" ||
      std::isdigit(static_cast<unsigned char>(name.front())) != 0) {
    return c;
  }
  c.kind = ScopeKind::kFunction;
  c.name = name;
  return c;
}

// --- lightweight declaration tables -----------------------------------------
//
// Member calls are resolved through a two-level textual type table: member
// variables per class, plus parameters and locals per function. A receiver
// chain like `ctx_.db.raw(...)` resolves ctx_ -> SearchContext via the
// caller's class, then db -> ClauseDb via SearchContext's members, and binds
// the call to ClauseDb::raw only. Receivers the tables cannot type fall back
// to every same-named candidate (over-approximation keeps the gate sound).

std::string last_component(const std::string& qualified) {
  const std::size_t sep = qualified.rfind("::");
  return sep == std::string::npos ? qualified : qualified.substr(sep + 2);
}

const std::set<std::string> kDeclKw = {
    "if",       "else",     "for",       "while",     "do",
    "switch",   "case",     "default",   "return",    "goto",
    "break",    "continue", "using",     "typedef",   "namespace",
    "class",    "struct",   "union",     "enum",      "public",
    "private",  "protected", "virtual",  "explicit",  "friend",
    "template", "typename", "operator",  "new",       "delete",
    "auto",     "void",     "sizeof",    "throw",     "catch",
    "const",    "constexpr", "static",   "inline",    "mutable",
    "extern",   "static_assert"};

/// `Type name` at statement start (members and locals). Captures
/// (type, template-args, name).
const std::regex kDeclStmt(
    R"(^\s*(?:mutable\s+|static\s+|constexpr\s+|inline\s+)*(?:const\s+)?([A-Za-z_][\w:]*)\s*(?:<([^;<>]*)>)?\s*(?:const\s+)?(?:[&*]\s*)*([A-Za-z_]\w*)\s*(?:NS_\w+\([^;]*\)\s*)?(?:[;={[(]|$))");

/// Loop-variable declarations: `for (const Watcher& w : ...)` / `for (T i = ...`.
const std::regex kForDecl(
    R"(\bfor\s*\(\s*(?:const\s+)?([A-Za-z_][\w:]*)\s*(?:<([^;<>]*)>)?\s*(?:const\s+)?(?:[&*]\s*)*([A-Za-z_]\w*)\s*[:=])");

void record_decl(const std::string& type_raw, const std::string& targ,
                 const std::string& name,
                 std::map<std::string, std::string>& vars) {
  if (type_raw.empty() || type_raw.back() == ':') return;
  std::string type = last_component(type_raw);
  // Smart-pointer / wrapper members dispatch to the pointee: the type of
  // `std::unique_ptr<Executor> exec_` for `exec_->forward()` is Executor.
  static const std::set<std::string> kWrapper = {
      "unique_ptr", "shared_ptr", "optional", "reference_wrapper"};
  if (kWrapper.count(type) && !targ.empty()) {
    static const std::regex kInner(R"([A-Za-z_][\w:]*)");
    for (auto it = std::sregex_iterator(targ.begin(), targ.end(), kInner);
         it != std::sregex_iterator(); ++it) {
      const std::string tok = it->str();
      if (tok == "const" || tok == "volatile") continue;
      type = last_component(tok);
      break;
    }
  }
  if (kDeclKw.count(type_raw) || kDeclKw.count(type) || kDeclKw.count(name)) {
    return;
  }
  vars.emplace(name, type);
}

/// Parses `(Type a, Type b)` out of a function signature into `vars`.
void parse_params(const std::string& sig,
                  std::map<std::string, std::string>& vars) {
  const std::string text = strip_attributes(sig);
  const std::size_t open = text.find('(');
  if (open == std::string::npos) return;
  std::vector<std::string> chunks;
  int depth = 0;
  std::size_t start = open + 1;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) {
      chunks.push_back(text.substr(start, i - start));
      break;
    }
    if (text[i] == ',' && depth == 1) {
      chunks.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  static const std::regex kParam(
      R"(^\s*(?:const\s+)?([A-Za-z_][\w:]*)\s*(?:<([^<>]*)>)?\s*(?:const\s+)?(?:[&*]\s*)*([A-Za-z_]\w*)\s*(?:=[^,]*)?$)");
  for (const std::string& chunk : chunks) {
    std::smatch m;
    if (std::regex_match(chunk, m, kParam)) {
      record_decl(m[1].str(), m[2].str(), m[3].str(), vars);
    }
  }
}

/// Extracts function definitions and per-line attribution from one file.
void extract(FileScan& fscan, std::vector<FuncDef>& funcs,
             std::size_t file_index, ClassMembers& class_members) {
  const std::vector<LineParts>& lines = fscan.lines;
  fscan.line_func.assign(lines.size(), -1);
  fscan.line_in_loop.assign(lines.size(), false);
  fscan.line_preproc.assign(lines.size(), false);

  std::vector<Scope> scopes;
  std::string pending;
  int paren_depth = 0;
  bool preproc_continues = false;
  static const std::regex kLoopTok(R"(\b(for|while)\s*\()");

  const auto innermost = [&]() -> std::pair<int, bool> {
    bool in_loop = false;
    for (std::size_t s = scopes.size(); s-- > 0;) {
      const Scope& sc = scopes[s];
      if (sc.kind == ScopeKind::kPlain) {
        in_loop = in_loop || sc.is_loop;
        continue;
      }
      if (sc.kind == ScopeKind::kFunction) return {sc.func, in_loop};
      return {-1, false};  // class/namespace interior
    }
    return {-1, false};
  };

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].stripped;
    // Preprocessor lines (and their backslash continuations) are opaque to
    // extraction: macro bodies are not function bodies.
    const std::size_t first_ch = code.find_first_not_of(" \t");
    const bool is_preproc =
        preproc_continues ||
        (first_ch != std::string::npos && code[first_ch] == '#');
    if (is_preproc) {
      fscan.line_preproc[i] = true;
      const std::size_t last_ch = code.find_last_not_of(" \t");
      preproc_continues =
          last_ch != std::string::npos && code[last_ch] == '\\';
      auto [f0, l0] = innermost();
      fscan.line_func[i] = f0;
      fscan.line_in_loop[i] = l0;
      continue;
    }

    auto [f_line, loop_line] = innermost();

    for (std::size_t p = 0; p < code.size(); ++p) {
      const char ch = code[p];
      if (ch == '(') {
        ++paren_depth;
        pending.push_back(ch);
      } else if (ch == ')') {
        if (paren_depth > 0) --paren_depth;
        pending.push_back(ch);
      } else if (ch == ';' && paren_depth == 0) {
        pending.clear();
      } else if (ch == '{') {
        Scope sc;
        sc.saved_paren_depth = paren_depth;
        if (paren_depth == 0) {
          const Classified cl = classify(pending);
          sc.kind = cl.kind;
          sc.name = cl.name;
          sc.is_loop = cl.is_loop;
          if (cl.kind == ScopeKind::kFunction) {
            FuncDef def;
            for (const Scope& outer : scopes) {
              if (outer.kind == ScopeKind::kNamespace ||
                  outer.kind == ScopeKind::kClass) {
                if (!outer.name.empty()) def.name += outer.name + "::";
              }
            }
            def.name += cl.name;
            const std::size_t sep = def.name.rfind("::");
            def.last = sep == std::string::npos ? def.name
                                                : def.name.substr(sep + 2);
            def.cls = sep == std::string::npos ? std::string()
                                               : def.name.substr(0, sep);
            def.file_index = file_index;
            def.start = i;
            def.end = i;  // patched on pop
            def.brace_col = p;
            parse_params(pending, def.vars);
            sc.func = static_cast<int>(funcs.size());
            funcs.push_back(def);
            f_line = sc.func;
          } else if (cl.is_loop && f_line >= 0) {
            loop_line = true;
          }
        }
        // A `{` inside an argument list (inline lambda body, braced
        // initializer) opens a plain scope with its own paren context.
        paren_depth = 0;
        scopes.push_back(sc);
        pending.clear();
      } else if (ch == '}') {
        if (!scopes.empty()) {
          const Scope sc = scopes.back();
          scopes.pop_back();
          paren_depth = sc.saved_paren_depth;
          if (sc.kind == ScopeKind::kFunction && sc.func >= 0) {
            funcs[static_cast<std::size_t>(sc.func)].end = i;
          }
        }
        pending.clear();
      } else {
        pending.push_back(ch);
      }
    }
    if (!pending.empty() && pending.back() != ' ') pending.push_back(' ');

    // Declaration tables: member variables (line directly inside a class
    // body) and function locals / loop variables (line inside a function).
    if (!scopes.empty() && scopes.back().kind == ScopeKind::kClass &&
        !scopes.back().name.empty()) {
      std::smatch m;
      if (std::regex_search(code, m, kDeclStmt)) {
        record_decl(m[1].str(), m[2].str(), m[3].str(),
                    class_members[scopes.back().name]);
      }
    } else if (f_line >= 0) {
      std::smatch m;
      if (std::regex_search(code, m, kDeclStmt)) {
        record_decl(m[1].str(), m[2].str(), m[3].str(),
                    funcs[static_cast<std::size_t>(f_line)].vars);
      }
      for (auto it = std::sregex_iterator(code.begin(), code.end(), kForDecl);
           it != std::sregex_iterator(); ++it) {
        record_decl((*it)[1].str(), (*it)[2].str(), (*it)[3].str(),
                    funcs[static_cast<std::size_t>(f_line)].vars);
      }
    }

    fscan.line_func[i] = f_line;
    fscan.line_in_loop[i] =
        f_line >= 0 &&
        (loop_line || std::regex_search(code, kLoopTok));
  }
}

// --- markers ----------------------------------------------------------------

/// True when line `j` textually continues the statement begun on an
/// earlier line (the previous code line ends mid-statement).
bool is_continuation(const std::vector<LineParts>& lines, std::size_t j) {
  if (j == 0) return false;
  const std::string& prev = lines[j - 1].stripped;
  const std::size_t last = prev.find_last_not_of(" \t");
  if (last == std::string::npos) return false;
  const char c = prev[last];
  return c != ';' && c != '{' && c != '}';
}

/// has_marker over every line of the statement containing line `i` (walking
/// up through continuation lines), so a marker on or above a multi-line
/// statement's first line covers all of it.
bool stmt_has_marker(const std::vector<LineParts>& lines, std::size_t i,
                     const std::regex& marker) {
  std::size_t j = i;
  for (;;) {
    if (has_marker(lines, j, marker)) return true;
    if (j == 0 || !is_continuation(lines, j)) return false;
    --j;
  }
}

/// Detects by-value declarations/temporaries of allocating std types
/// (references, pointers, and template-argument mentions do not match).
bool is_alloc_decl(const std::string& code) {
  static const std::regex kAllocType(
      R"(\bstd::(string|vector|deque|list|map|set|multimap|multiset|function|basic_string|[io]?stringstream)\b)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kAllocType);
       it != std::sregex_iterator(); ++it) {
    std::size_t i = static_cast<std::size_t>(it->position()) + it->length();
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
    if (i < code.size() &&
        (std::isalpha(static_cast<unsigned char>(code[i])) != 0 ||
         code[i] == '_')) {
      return true;  // `std::vector<T> name` — by-value declaration
    }
  }
  return false;
}

}  // namespace

void check_hotpaths(const Tree& tree, PackResult& out) {
  std::vector<Violation>& violations = out.violations;
  const fs::path manifest_path = tree.root / "src" / "HOTPATHS.txt";
  const std::vector<RootDecl> decls =
      parse_manifest(manifest_path, tree.root, violations);

  // --- extract --------------------------------------------------------------
  std::vector<FileScan> scans;
  std::vector<FuncDef> funcs;
  ClassMembers class_members;
  std::map<std::string, std::vector<std::size_t>> funcs_by_file;
  for (std::size_t fi = 0; fi < tree.src_files; ++fi) {
    scans.push_back({tree.files[fi].rel, tree.files[fi].lines, {}, {}, {}});
    const std::size_t before = funcs.size();
    extract(scans[fi], funcs, fi, class_members);
    for (std::size_t k = before; k < funcs.size(); ++k) {
      funcs_by_file[scans[fi].rel].push_back(k);
    }
  }
  std::map<std::string, std::vector<std::size_t>> funcs_by_last;
  for (std::size_t k = 0; k < funcs.size(); ++k) {
    funcs_by_last[funcs[k].last].push_back(k);
  }
  const auto suffix_match = [](const std::string& qualified,
                               const std::string& suffix) {
    if (qualified == suffix) return true;
    return qualified.size() > suffix.size() + 2 &&
           qualified.compare(qualified.size() - suffix.size() - 2, 2,
                             "::") == 0 &&
           qualified.compare(qualified.size() - suffix.size(),
                             suffix.size(), suffix) == 0;
  };
  const auto resolve = [&](const std::string& callee) {
    std::vector<std::size_t> out;
    const std::size_t sep = callee.rfind("::");
    const std::string last =
        sep == std::string::npos ? callee : callee.substr(sep + 2);
    const auto it = funcs_by_last.find(last);
    if (it == funcs_by_last.end()) return out;
    for (std::size_t k : it->second) {
      if (suffix_match(funcs[k].name, callee)) out.push_back(k);
    }
    return out;
  };

  // Repo-declared virtual method names (for the in-loop dispatch rule).
  std::set<std::string> virtual_names;
  static const std::regex kVirtualName(R"(\bvirtual\b[^(;]*?([A-Za-z_]\w*)\s*\()");
  for (const FileScan& fscan : scans) {
    for (const LineParts& lp : fscan.lines) {
      std::smatch m;
      if (std::regex_search(lp.stripped, m, kVirtualName)) {
        if (m[1].str() != "operator") virtual_names.insert(m[1].str());
      }
    }
  }

  // --- resolve roots / slack ------------------------------------------------
  std::set<std::size_t> root_funcs;
  std::set<std::string> wildcard_files;
  std::set<std::size_t> slack_funcs;
  for (const RootDecl& d : decls) {
    const auto fit = funcs_by_file.find(d.file);
    std::vector<std::size_t> matched;
    if (fit != funcs_by_file.end()) {
      for (std::size_t k : fit->second) {
        if (d.func == "*" || suffix_match(funcs[k].name, d.func)) {
          matched.push_back(k);
        }
      }
    }
    if (matched.empty()) {
      violations.push_back(
          {"manifest", to_generic(manifest_path), d.lineno,
           std::string("`") + (d.slack ? "slack" : "root") + "` names `" +
               d.func + "` in " + d.file +
               ", but no such function definition was found there"});
      continue;
    }
    for (std::size_t k : matched) {
      (d.slack ? slack_funcs : root_funcs).insert(k);
    }
    if (!d.slack && d.func == "*") wildcard_files.insert(d.file);
  }

  // --- NS_HOT marker discipline --------------------------------------------
  static const std::regex kHotMarker(R"(NS_HOT\(\s*[^\s)][^)]*\))");
  const auto has_hot = [&](const FuncDef& f) {
    return stmt_has_marker(scans[f.file_index].lines, f.start, kHotMarker);
  };
  for (std::size_t k : root_funcs) {
    const FuncDef& f = funcs[k];
    if (wildcard_files.count(scans[f.file_index].rel)) continue;
    if (!has_hot(f)) {
      violations.push_back(
          {"hot-marker", scans[f.file_index].rel, f.start + 1,
           "`" + f.name + "` is declared a hot root in src/HOTPATHS.txt "
           "but its definition carries no `NS_HOT(<rationale>)` marker"});
    }
  }
  for (const std::string& wfile : wildcard_files) {
    bool found = false;
    for (const LineParts& lp : scans[funcs[*funcs_by_file[wfile].begin()]
                                         .file_index].lines) {
      if (std::regex_search(lp.comment, kHotMarker)) {
        found = true;
        break;
      }
    }
    if (!found) {
      violations.push_back(
          {"hot-marker", wfile, 1,
           "file is declared a wildcard hot root (`root " + wfile +
               " *`) but carries no file-level `NS_HOT(<rationale>)` "
               "marker"});
    }
  }
  for (std::size_t k = 0; k < funcs.size(); ++k) {
    const FuncDef& f = funcs[k];
    if (root_funcs.count(k) || wildcard_files.count(scans[f.file_index].rel)) {
      continue;
    }
    if (has_hot(f)) {
      violations.push_back(
          {"hot-marker", scans[f.file_index].rel, f.start + 1,
           "`" + f.name + "` carries an NS_HOT marker but src/HOTPATHS.txt "
           "does not declare it a root (marker drift: declare it or drop "
           "the marker)"});
    }
  }

  // --- call sites + closure -------------------------------------------------
  static const std::regex kCallTok(R"(([A-Za-z_]\w*)\s*\()");
  static const std::set<std::string> kCallKw = {
      "if",     "for",      "while",   "switch",        "return",
      "sizeof", "alignof",  "decltype", "catch",        "throw",
      "new",    "delete",   "noexcept", "static_assert", "defined",
      "do",     "else",     "assert"};
  std::vector<std::vector<CallSite>> calls(funcs.size());
  for (std::size_t k = 0; k < funcs.size(); ++k) {
    const FuncDef& f = funcs[k];
    const FileScan& fscan = scans[f.file_index];
    for (std::size_t i = f.start; i <= f.end && i < fscan.lines.size(); ++i) {
      if (fscan.line_func[i] != static_cast<int>(k)) continue;
      if (fscan.line_preproc[i]) continue;
      const std::string& code = fscan.lines[i].stripped;
      for (auto it = std::sregex_iterator(code.begin(), code.end(), kCallTok);
           it != std::sregex_iterator(); ++it) {
        const std::size_t ident_begin =
            static_cast<std::size_t>(it->position());
        // The defining occurrence on the signature line is not a call:
        // `std::size_t size() const { return heap_.size(); }` must not
        // record a self-edge for the `size(` before the brace.
        if (i == f.start && ident_begin < f.brace_col) continue;
        std::string name = (*it)[1].str();
        if (kCallKw.count(name)) continue;
        // Back-walk the qualifier chain (`simd::try_relu`).
        std::size_t b = ident_begin;
        while (b > 0 && (is_ident_char(code[b - 1]) || code[b - 1] == ':')) {
          --b;
        }
        std::string full = code.substr(b, ident_begin - b) + name;
        while (!full.empty() && full.front() == ':') full.erase(0, 1);
        if (full.compare(0, 5, "std::") == 0) continue;
        CallSite cs;
        cs.line = i;
        char pc = '\0';
        std::size_t pj = 0;  // index of pc when found
        for (std::size_t j = b; j-- > 0;) {
          if (code[j] == ' ' || code[j] == '\t') continue;
          pc = code[j];
          pj = j;
          break;
        }
        const bool via_arrow = pc == '>' && pj > 0 && code[pj - 1] == '-';
        cs.member = pc == '.' || via_arrow;
        bool via_this = false;
        if (via_arrow && pj >= 5 && code.compare(pj - 5, 4, "this") == 0) {
          via_this = true;
        }
        cs.bare = !cs.member || via_this;
        cs.name = cs.member ? name : full;
        if (cs.member) {
          // Receiver chain back-walk: `ctx_.db.raw(` -> {ctx_, db}. A
          // non-identifier before a link (`)`, `]`) means a computed
          // receiver; leave the chain empty and fall back to name-only
          // resolution.
          std::vector<std::string> chain;
          bool ok = true;
          std::size_t j = via_arrow ? pj - 1 : pj;  // at '.' or at '-' of '->'
          for (;;) {
            std::size_t e2 = j;
            while (e2 > 0 && (code[e2 - 1] == ' ' || code[e2 - 1] == '\t')) {
              --e2;
            }
            std::size_t b2 = e2;
            while (b2 > 0 && is_ident_char(code[b2 - 1])) --b2;
            if (b2 == e2) {
              ok = false;
              break;
            }
            chain.insert(chain.begin(), code.substr(b2, e2 - b2));
            std::size_t q = b2;
            while (q > 0 && (code[q - 1] == ' ' || code[q - 1] == '\t')) --q;
            if (q == 0) break;
            const char cprev = code[q - 1];
            if (cprev == '.') {
              j = q - 1;
              continue;
            }
            if (cprev == '>' && q >= 2 && code[q - 2] == '-') {
              j = q - 2;
              continue;
            }
            // `ns::obj.f()` (adjacent colon) is a qualified receiver the
            // table cannot type; `return obj.f()` (space-separated keyword)
            // just ends the chain.
            if (cprev == ':' && q == b2) ok = false;
            break;
          }
          if (ok) cs.recv = std::move(chain);
        }
        calls[k].push_back(cs);
      }
    }
  }

  // Narrows bare-call candidates the way overload resolution would: prefer
  // the caller's own class, then the caller's file, then everything.
  const auto narrow = [&](const FuncDef& f, std::vector<std::size_t> cands) {
    std::vector<std::size_t> same_cls, same_file;
    for (std::size_t c : cands) {
      if (!f.cls.empty() && funcs[c].cls == f.cls) same_cls.push_back(c);
      if (funcs[c].file_index == f.file_index) same_file.push_back(c);
    }
    if (!same_cls.empty()) return same_cls;
    if (!same_file.empty()) return same_file;
    return cands;
  };
  const auto member_type = [&](const std::string& cls_last,
                               const std::string& member) -> std::string {
    const auto cit = class_members.find(cls_last);
    if (cit == class_members.end()) return "";
    const auto mit = cit->second.find(member);
    return mit == cit->second.end() ? "" : mit->second;
  };
  const auto resolve_call = [&](const FuncDef& f, const CallSite& cs) {
    if (!cs.member) return narrow(f, resolve(cs.name));
    // A call through a virtual method may land on any override; keep
    // every candidate regardless of the receiver's static type.
    if (virtual_names.count(cs.name)) return resolve(cs.name);
    std::string type;
    if (!cs.recv.empty()) {
      std::size_t idx = 0;
      if (cs.recv[0] == "this") {
        type = last_component(f.cls);
        idx = 1;
      } else {
        const auto vit = f.vars.find(cs.recv[0]);
        type = vit != f.vars.end()
                   ? vit->second
                   : member_type(last_component(f.cls), cs.recv[0]);
        idx = 1;
      }
      for (; !type.empty() && idx < cs.recv.size(); ++idx) {
        type = member_type(type, cs.recv[idx]);
      }
    }
    if (type.empty()) return resolve(cs.name);  // untyped: over-approximate
    std::vector<std::size_t> out;
    const auto it = funcs_by_last.find(cs.name);
    if (it != funcs_by_last.end()) {
      for (std::size_t c : it->second) {
        if (last_component(funcs[c].cls) == type) out.push_back(c);
      }
    }
    return out;
  };

  static const std::regex kAnySuppress(R"(NS_SUPPRESS\([^)]*\)\s*:\s*\S)");
  std::set<std::size_t> closure;
  std::vector<std::size_t> queue(root_funcs.begin(), root_funcs.end());
  closure.insert(root_funcs.begin(), root_funcs.end());
  while (!queue.empty()) {
    const std::size_t k = queue.back();
    queue.pop_back();
    const FileScan& fscan = scans[funcs[k].file_index];
    for (const CallSite& cs : calls[k]) {
      // A suppressed statement drops its callee edges: the justified
      // escape also covers the amortized helper it invokes.
      if (stmt_has_marker(fscan.lines, cs.line, kAnySuppress)) continue;
      for (std::size_t callee : resolve_call(funcs[k], cs)) {
        if (closure.insert(callee).second) {
          queue.push_back(callee);
          if (tree.verbose) {
            std::fprintf(stderr, "ns_lint: edge: %s -> %s (%s:%zu)\n",
                         funcs[k].name.c_str(), funcs[callee].name.c_str(),
                         fscan.rel.c_str(), cs.line + 1);
          }
        }
      }
    }
  }

  // --- per-line hazard rules inside the closure -----------------------------
  static const std::vector<Banned> kBanned = {
      {"allocation", R"(\bnew\b)", "operator new (heap allocation)"},
      {"allocation", R"(\bstd::make_(unique|shared)\s*\()",
       "make_unique/make_shared (heap allocation)"},
      {"allocation",
       R"((\.|->)\s*(push_back|emplace_back|emplace|push_front|emplace_front|resize|reserve|insert|append|shrink_to_fit)\s*\()",
       "allocating container operation without a capacity proof"},
      {"allocation", R"(\bstd::(to_string|string)\s*\()",
       "std::string construction (heap allocation)"},
      {"throw", R"(\bthrow\b)", "throw expression"},
      {"throw", R"(\bstd::sto(i|l|ll|ul|ull|f|d|ld)\s*\()",
       "std::sto* conversion (throws on malformed input)"},
      {"blocking", R"(\bstd::(cout|cerr|cin|clog)\b)", "iostream I/O"},
      {"blocking",
       R"(\b(fprintf|printf|fputs|fputc|fwrite|fread|fopen|fclose|fflush|fgets)\s*\()",
       "stdio I/O"},
      {"blocking", R"(\bstd::[io]?fstream\b)", "file stream I/O"},
      {"blocking", R"(\bstd::this_thread::sleep)", "thread sleep"},
      {"blocking", R"((\.|->)\s*join\s*\()", "thread join"},
      {"blocking",
       R"(\b(MutexLock|CondVar)\b|\bstd::(lock_guard|unique_lock|scoped_lock|shared_lock)\b|(\.|->)\s*(lock|try_lock|wait)\s*\()",
       "mutex/condvar acquisition", /*mutex_class=*/true},
  };
  static const std::regex kSuppressAlloc = suppress_regex("allocation");
  static const std::regex kSuppressVirtual = suppress_regex("virtual-dispatch");

  for (std::size_t k : closure) {
    const FuncDef& f = funcs[k];
    const FileScan& fscan = scans[f.file_index];
    const bool slack = slack_funcs.count(k) != 0;
    for (std::size_t i = f.start; i <= f.end && i < fscan.lines.size(); ++i) {
      if (fscan.line_func[i] != static_cast<int>(k)) continue;
      if (fscan.line_preproc[i]) continue;
      const std::string& code = fscan.lines[i].stripped;
      if (blank_code(code)) continue;
      const std::size_t lineno = i + 1;

      const auto excused = [&](const Banned& b) {
        return (b.mutex_class && slack) ||
               stmt_has_marker(fscan.lines, i, b.suppress);
      };
      if (const Banned* b = first_banned(kBanned, code, excused)) {
        violations.push_back(
            {b->rule, fscan.rel, lineno,
             std::string(b->what) + " in hot-path function `" + f.name +
                 "`; remove it or justify with `NS_SUPPRESS(" + b->rule +
                 "): <why the hazard is bounded>`"});
      }
      if (is_alloc_decl(code) &&
          !stmt_has_marker(fscan.lines, i, kSuppressAlloc)) {
        violations.push_back(
            {"allocation", fscan.rel, lineno,
             "by-value construction of an allocating std type in hot-path "
             "function `" + f.name + "`; hoist it to preallocated state or "
             "justify with `NS_SUPPRESS(allocation): <why>`"});
      }

      // Virtual dispatch inside an innermost loop.
      if (fscan.line_in_loop[i]) {
        for (const CallSite& cs : calls[k]) {
          if (cs.line != i || !cs.member) continue;
          if (!virtual_names.count(cs.name)) continue;
          if (stmt_has_marker(fscan.lines, i, kSuppressVirtual)) continue;
          violations.push_back(
              {"virtual-dispatch", fscan.rel, lineno,
               "call to virtual method `" + cs.name + "` inside a loop of "
               "hot-path function `" + f.name + "`; devirtualize, hoist it "
               "out of the loop, or justify with "
               "`NS_SUPPRESS(virtual-dispatch): <why>`"});
        }
      }
    }
  }

  // --- recursion over bare / this-> edges ----------------------------------
  std::map<std::string, std::set<std::string>> rec_adj;
  for (std::size_t k : closure) {
    const FuncDef& f = funcs[k];
    for (const CallSite& cs : calls[k]) {
      if (!cs.bare) continue;
      // Same-class / same-file narrowing keeps name collisions across
      // classes from fabricating cycles.
      for (std::size_t c : narrow(f, resolve(cs.name))) {
        if (closure.count(c)) rec_adj[f.name].insert(funcs[c].name);
      }
    }
  }
  for (const std::string& cycle : find_cycles(rec_adj)) {
    // Anchor the diagnostic at the first cycle member's definition.
    const std::string head = cycle.substr(0, cycle.find(" ->"));
    std::string file = "src";
    std::size_t line = 0;
    for (std::size_t k : closure) {
      if (funcs[k].name == head) {
        file = scans[funcs[k].file_index].rel;
        line = funcs[k].start + 1;
        break;
      }
    }
    violations.push_back(
        {"recursion", file, line,
         "hot-path call cycle: " + cycle +
             " (recursion has unbounded stack depth on adversarial "
             "input; convert to an explicit worklist)"});
  }

  out.files = tree.src_files;
  out.counts = std::to_string(funcs.size()) + " function(s), " +
               std::to_string(root_funcs.size()) + " root(s), " +
               std::to_string(closure.size()) + " closure function(s)";
  for (std::size_t k : closure) {
    out.list.push_back(funcs[k].name);
    if (tree.verbose) {
      std::fprintf(stderr, "ns_lint: closure: %s (%s:%zu)\n",
                   funcs[k].name.c_str(), scans[funcs[k].file_index].rel.c_str(),
                   funcs[k].start + 1);
    }
  }
  std::sort(out.list.begin(), out.list.end());
}

}  // namespace ns::lint
