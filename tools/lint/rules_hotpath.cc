// The four hot-path passes: [hot-alloc], [throw-hot], [arg-copy],
// [reserve-before-growth]. See tools/lint/lint.h for the rule catalogue.
//
// Built on the shared structural model (tools/lint/model.h). Hot
// reachability is a fixpoint over the resolved call graph:
//
//   seeds  = functions annotated NMCDR_HOT (matched by enclosing class +
//            method name; class-less annotations match free functions)
//          + resolved callees of calls made inside ThreadPool
//            dispatch-lambda bodies outside src/util/ (drainer lambdas,
//            serving ParallelFor bodies — hot without annotation)
//   close  = BFS over Func::calls' resolved keys, recording a provenance
//            chain ("A -> B -> C") per reached function
//   prune  = NMCDR_COLD functions are neither scanned nor descended into
//            (amortized capacity growth, output materialization);
//            BumpArena::{Alloc, ResetStep} are implicitly cold — the bump
//            arena IS the sanctioned hot-path allocator
//
// [hot-alloc] and [throw-hot] then scan every hot function body plus
// every dispatch-lambda body of non-hot functions; src/util/ is exempt
// (the pool/queue machinery allocates by design and is not steady-state
// request work). [arg-copy] and [reserve-before-growth] run over every
// src/ function definition, hot or not.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/lint_internal.h"
#include "tools/lint/model.h"

namespace nmcdr {
namespace lint {
namespace internal {
namespace {

// ---------------------------------------------------------------------------
// Hot reachability
// ---------------------------------------------------------------------------

struct HotComputation {
  Model model;
  // Hot function key -> provenance chain ("root" or "A -> B -> C").
  std::map<std::string, std::string> chain;
  // Root key -> why it is a root ("NMCDR_HOT", "ThreadPool dispatch in X").
  std::map<std::string, std::string> root_why;
  std::set<std::string> cold;  // keys pruned by NMCDR_COLD
};

/// Collects NMCDR_HOT / NMCDR_COLD annotation targets as (class, method)
/// pairs; class is "" for free functions (annotations outside any class
/// region). Malformed annotations (no owning declaration) are diagnosed
/// under the family's primary rule.
void CollectHotAnnotations(const Model& model,
                           const std::vector<SourceFile>& files,
                           std::set<std::pair<std::string, std::string>>* hot,
                           std::set<std::pair<std::string, std::string>>* cold,
                           std::vector<Diagnostic>* out) {
  for (const SourceFile& f : files) {
    if (!f.path.starts_with("src/")) continue;
    for (size_t li = 0; li < f.code.size(); ++li) {
      const std::string& line = f.code[li];
      if (Trimmed(line).starts_with("#")) continue;
      for (const char* macro : {"NMCDR_HOT", "NMCDR_COLD"}) {
        size_t pos = FindToken(line, macro);
        while (pos != std::string::npos) {
          const std::string method = AnnotatedMethod(f, li, pos);
          if (method.empty()) {
            Add(f, li, "hot-alloc",
                std::string(macro) +
                    " must annotate a function declaration (in-class method "
                    "or free function)",
                out);
          } else {
            const ClassInfo* cls = EnclosingClass(model, f, li);
            const std::string cls_name = cls == nullptr ? "" : cls->name;
            auto* target = std::string(macro) == "NMCDR_HOT" ? hot : cold;
            target->emplace(cls_name, method);
          }
          pos = FindToken(line, macro, pos + 1);
        }
      }
    }
  }
}

HotComputation ComputeHot(const std::vector<SourceFile>& files,
                          std::vector<Diagnostic>* out) {
  HotComputation hc;
  hc.model = BuildModel(files);
  std::set<std::pair<std::string, std::string>> hot_pairs;
  std::set<std::pair<std::string, std::string>> cold_pairs;
  CollectHotAnnotations(hc.model, files, &hot_pairs, &cold_pairs, out);
  // The bump arena is the sanctioned hot-path allocator: Alloc() is a
  // pointer bump and ResetStep() a rewind, so hot code may call both
  // freely. Their bodies are pruned like NMCDR_COLD — any allocation
  // inside them is the arena's own amortized growth machinery (counted by
  // growth_events(), asserted flat in steady state by program_test), not
  // per-op heap traffic.
  cold_pairs.emplace("BumpArena", "Alloc");
  cold_pairs.emplace("BumpArena", "ResetStep");

  std::vector<std::string> work;
  for (const Func& func : hc.model.funcs) {
    if (cold_pairs.count({func.cls, func.name}) != 0) {
      hc.cold.insert(func.key);
      continue;
    }
    if (hot_pairs.count({func.cls, func.name}) != 0 &&
        hc.chain.emplace(func.key, func.key).second) {
      hc.root_why[func.key] = "NMCDR_HOT";
      work.push_back(func.key);
    }
  }
  // Dispatch-lambda callees are hot roots without annotation.
  for (const Func& func : hc.model.funcs) {
    if (InUtil(func.file->path) || hc.cold.count(func.key) != 0) continue;
    for (const CallEvent& c : func.calls) {
      if (!c.in_dispatch || c.resolved.empty() ||
          hc.cold.count(c.resolved) != 0) {
        continue;
      }
      if (hc.chain
              .emplace(c.resolved,
                       "pool dispatch in " + func.key + " -> " + c.resolved)
              .second) {
        hc.root_why[c.resolved] = "ThreadPool dispatch in " + func.key;
        work.push_back(c.resolved);
      }
    }
  }
  // Closure over resolved calls.
  while (!work.empty()) {
    const std::string key = work.back();
    work.pop_back();
    const auto it = hc.model.func_by_key.find(key);
    if (it == hc.model.func_by_key.end()) continue;
    for (const size_t fi : it->second) {
      for (const CallEvent& c : hc.model.funcs[fi].calls) {
        if (c.resolved.empty() || hc.cold.count(c.resolved) != 0) continue;
        if (hc.chain.emplace(c.resolved, hc.chain[key] + " -> " + c.resolved)
                .second) {
          work.push_back(c.resolved);
        }
      }
    }
  }
  return hc;
}

// ---------------------------------------------------------------------------
// Receiver helpers
// ---------------------------------------------------------------------------

/// Receiver identifier of a member call whose name starts at `pos`
/// ("candidates" for `candidates.push_back(`); "" when the receiver is
/// not a simple identifier (`a[i].push_back`, `get()->push_back`).
std::string SimpleReceiver(const std::string& line, size_t pos) {
  const size_t p = SkipSpacesBack(line, pos);
  size_t r;
  if (p >= 1 && line[p - 1] == '.') {
    r = p - 1;
  } else if (p >= 2 && line[p - 1] == '>' && line[p - 2] == '-') {
    r = p - 2;
  } else {
    return "";
  }
  r = SkipSpacesBack(line, r);
  if (r >= 1 && (line[r - 1] == ')' || line[r - 1] == ']')) return "";
  return IdentBefore(line, r);
}

/// True when `recv` has a member reserve() call earlier in `func`'s body
/// (any line up to `li`, column-ordered on `li` itself) — the sanctioned
/// amortize-capacity-then-append pattern.
bool HasPriorReserve(const Func& func, const std::string& recv, size_t li,
                     size_t pos) {
  if (recv.empty()) return false;
  const SourceFile& f = *func.file;
  for (size_t lj = func.body_begin; lj <= li && lj < f.code.size(); ++lj) {
    const std::string& line = f.code[lj];
    size_t rp = FindToken(line, "reserve");
    while (rp != std::string::npos) {
      if (lj == li && rp >= pos) break;
      if (SimpleReceiver(line, rp) == recv) return true;
      rp = FindToken(line, "reserve", rp + 1);
    }
  }
  return false;
}

/// True when `recv` is declared as a std::deque somewhere in the file
/// (deques have no reserve(); growth is chunked, not reallocating).
bool IsDequeReceiver(const SourceFile& f, const std::string& recv) {
  for (const std::string& line : f.code) {
    if (HasToken(line, "deque") && HasToken(line, recv)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// [hot-alloc] + [throw-hot] region scan
// ---------------------------------------------------------------------------

struct HotSink {
  const std::string* owner;
  const std::string* chain;
  std::vector<HotPathSite>* sites;
};

void Emit(const SourceFile& f, size_t li, const std::string& rule,
          std::string message, const HotSink& sink) {
  if (Suppressed(f, li, rule)) return;
  HotPathSite site;
  site.func = *sink.owner;
  site.file = f.path;
  site.line = static_cast<int>(li) + 1;
  site.rule = rule;
  site.message = std::move(message) + " [hot via " + *sink.chain + "]";
  sink.sites->push_back(std::move(site));
}

/// Scans one hot region (a function body or a dispatch-lambda body) for
/// the [hot-alloc] and [throw-hot] patterns. `begin_col` bounds the first
/// line, `end_col` the last (std::string::npos = whole line).
void ScanHotRegion(const SourceFile& f, const Func& func, size_t begin_line,
                   size_t begin_col, size_t end_line, size_t end_col,
                   const HotSink& sink) {
  for (size_t li = begin_line; li <= end_line && li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    if (Trimmed(line).starts_with("#")) continue;
    const size_t start = li == begin_line ? begin_col : 0;
    const size_t limit =
        li == end_line && end_col != std::string::npos ? end_col : line.size();
    const auto in_window = [&](size_t pos) {
      return pos != std::string::npos && pos < limit;
    };

    // Direct heap allocation.
    for (size_t pos = FindToken(line, "new", start); in_window(pos);
         pos = FindToken(line, "new", pos + 1)) {
      Emit(f, li, "hot-alloc", "operator new in hot code", sink);
    }
    for (const char* tok : {"make_unique", "make_shared"}) {
      for (size_t pos = FindToken(line, tok, start); in_window(pos);
           pos = FindToken(line, tok, pos + 1)) {
        Emit(f, li, "hot-alloc",
             std::string(tok) + " allocates in hot code", sink);
      }
    }
    // Container growth. push_back/emplace_back after a same-receiver
    // reserve() is the amortized scratch pattern and stays legal;
    // resize/insert/emplace always flag (use a NMCDR_COLD Prepare()).
    for (const char* tok :
         {"push_back", "emplace_back", "resize", "insert", "emplace"}) {
      for (size_t pos = FindToken(line, tok, start); in_window(pos);
           pos = FindToken(line, tok, pos + 1)) {
        size_t after = pos + std::string(tok).size();
        while (after < line.size() &&
               std::isspace(static_cast<unsigned char>(line[after])) != 0) {
          ++after;
        }
        if (after >= line.size() || line[after] != '(' ||
            !IsWaitCall(line, pos)) {
          continue;
        }
        const std::string recv = SimpleReceiver(line, pos);
        const bool growth_only =
            std::string(tok) == "push_back" || std::string(tok) == "emplace_back";
        if (growth_only && HasPriorReserve(func, recv, li, pos)) continue;
        std::string what = recv.empty() ? std::string(tok)
                                        : recv + "." + tok;
        Emit(f, li, "hot-alloc",
             "'" + what + "' grows a container in hot code" +
                 (growth_only ? " without a prior reserve on '" + recv + "'"
                              : "; move it into a NMCDR_COLD helper or "
                                "reuse caller-owned scratch"),
             sink);
      }
    }
    // std::string construction (temporaries, sized/copied locals,
    // to_string).
    for (size_t pos = FindToken(line, "string", start); in_window(pos);
         pos = FindToken(line, "string", pos + 1)) {
      if (pos < 5 || line.compare(pos - 5, 5, "std::") != 0) continue;
      size_t p = pos + 6;
      while (p < line.size() &&
             std::isspace(static_cast<unsigned char>(line[p])) != 0) {
        ++p;
      }
      if (p < line.size() && line[p] == '(') {
        Emit(f, li, "hot-alloc", "std::string construction in hot code",
             sink);
        continue;
      }
      size_t q = p;
      while (q < line.size() && IsWordChar(line[q])) ++q;
      if (q == p) continue;  // reference, template argument, etc.
      size_t after = q;
      while (after < line.size() &&
             std::isspace(static_cast<unsigned char>(line[after])) != 0) {
        ++after;
      }
      if (after < line.size() &&
          (line[after] == '(' ||
           (line[after] == '=' &&
            (after + 1 >= line.size() || line[after + 1] != '=')))) {
        Emit(f, li, "hot-alloc", "std::string construction in hot code",
             sink);
      }
    }
    for (size_t pos = FindToken(line, "to_string", start); in_window(pos);
         pos = FindToken(line, "to_string", pos + 1)) {
      Emit(f, li, "hot-alloc", "std::to_string allocates in hot code", sink);
    }
    // Sized std::vector construction (`std::vector<T> v(n)`).
    for (size_t pos = FindToken(line, "vector", start); in_window(pos);
         pos = FindToken(line, "vector", pos + 1)) {
      if (pos < 5 || line.compare(pos - 5, 5, "std::") != 0) continue;
      if (!LockArgs(JoinedFrom(f, li, pos), true).empty()) {
        Emit(f, li, "hot-alloc",
             "sized std::vector construction in hot code; reuse "
             "caller-owned scratch",
             sink);
      }
    }
    // [throw-hot]: throws and always-armed checks.
    for (size_t pos = FindToken(line, "throw", start); in_window(pos);
         pos = FindToken(line, "throw", pos + 1)) {
      Emit(f, li, "throw-hot", "throw in hot code", sink);
    }
    for (size_t ci = start; ci < limit; ++ci) {
      if (!IsWordChar(line[ci]) || (ci > 0 && IsWordChar(line[ci - 1]))) {
        continue;
      }
      size_t q = ci;
      while (q < line.size() && IsWordChar(line[q])) ++q;
      const std::string word = line.substr(ci, q - ci);
      if (word.starts_with("NMCDR_CHECK")) {
        Emit(f, li, "throw-hot",
             word + " aborts with formatting in hot code; use NMCDR_DCHECK*",
             sink);
      }
      ci = q;
    }
  }
}

/// Runs [hot-alloc]/[throw-hot] over every hot function body and every
/// dispatch-lambda body of non-hot functions. src/util/ is exempt.
void CollectHotSites(const HotComputation& hc,
                     std::vector<HotPathSite>* sites) {
  for (const Func& func : hc.model.funcs) {
    if (InUtil(func.file->path) || hc.cold.count(func.key) != 0) continue;
    const auto it = hc.chain.find(func.key);
    if (it != hc.chain.end()) {
      HotSink sink{&func.key, &it->second, sites};
      ScanHotRegion(*func.file, func, func.body_begin, func.body_begin_col,
                    func.body_end, std::string::npos, sink);
      continue;
    }
    const std::string chain = "pool dispatch in " + func.key;
    for (const Range& r : func.dispatch_bodies) {
      HotSink sink{&func.key, &chain, sites};
      ScanHotRegion(*func.file, func, r.begin_line, r.begin_pos, r.end_line,
                    r.end_pos, sink);
    }
  }
}

// ---------------------------------------------------------------------------
// [arg-copy]
// ---------------------------------------------------------------------------

/// Heavy nominal value types beyond the template containers; identifier
/// suffixes Snapshot / Layout also count (ModelSnapshot, ShardLayout).
bool IsHeavyTypeToken(const std::string& tok) {
  static const std::set<std::string> kHeavy = {
      "Matrix", "RecRequest", "Recommendation", "AdmissionTicket",
      "ClusterRequest", "ClusterResponse", "FrozenPredictionHead",
      "FrozenDomainState", "Pending", "vector", "string"};
  if (kHeavy.count(tok) != 0) return true;
  return (tok.size() > 8 && tok.ends_with("Snapshot")) ||
         (tok.size() > 6 && tok.ends_with("Layout"));
}

/// Splits the head's top-level parameter list: the first '(' outside any
/// template argument list opens it.
std::vector<std::string> HeadParams(const std::string& head) {
  int angle = 0;
  size_t open = std::string::npos;
  for (size_t i = 0; i < head.size(); ++i) {
    const char c = head[i];
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (c == '(' && angle == 0) {
      open = i;
      break;
    }
  }
  if (open == std::string::npos) return {};
  std::vector<std::string> params;
  std::string cur;
  int depth = 1;
  for (size_t i = open + 1; i < head.size() && depth > 0; ++i) {
    const char c = head[i];
    if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == '>' || c == ']' || c == '}') {
      if (--depth == 0) break;
    }
    if (c == ',' && depth == 1) {
      params.push_back(Trimmed(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!Trimmed(cur).empty()) params.push_back(Trimmed(cur));
  return params;
}

void CheckArgCopy(const Model& model, std::vector<Diagnostic>* out) {
  for (const Func& func : model.funcs) {
    const SourceFile& f = *func.file;
    // Reconstruct the declaration head: head_line up to the body's '{'.
    std::string head;
    for (size_t li = func.head_line;
         li <= func.body_begin && li < f.code.size(); ++li) {
      const std::string& line = f.code[li];
      head += (li == func.body_begin ? line.substr(0, func.body_begin_col)
                                     : line) +
              " ";
    }
    for (const std::string& raw : HeadParams(head)) {
      std::string param = raw;
      // Strip a default argument.
      int depth = 0;
      for (size_t i = 0; i < param.size(); ++i) {
        const char c = param[i];
        if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
        if (c == '=' && depth == 0) {
          param = Trimmed(param.substr(0, i));
          break;
        }
      }
      if (param.empty() || param == "void") continue;
      if (param.find('&') != std::string::npos ||
          param.find('*') != std::string::npos ||
          param.find("...") != std::string::npos) {
        continue;
      }
      // Indirection wrappers are cheap to copy/move by design.
      if (HasToken(param, "shared_ptr") || HasToken(param, "unique_ptr") ||
          HasToken(param, "span") || HasToken(param, "function") ||
          HasToken(param, "initializer_list")) {
        continue;
      }
      // Tokenize: heavy type present? Parameter name = last identifier.
      bool heavy = false;
      std::string name;
      for (size_t ci = 0; ci < param.size(); ++ci) {
        if (!IsWordChar(param[ci]) ||
            (ci > 0 && IsWordChar(param[ci - 1]))) {
          continue;
        }
        size_t q = ci;
        while (q < param.size() && IsWordChar(param[q])) ++q;
        const std::string tok = param.substr(ci, q - ci);
        if (IsHeavyTypeToken(tok)) heavy = true;
        name = tok;
        ci = q;
      }
      if (!heavy) continue;
      // Sink parameters (moved in the init list or body) stay legal.
      if (!name.empty()) {
        const std::string needle = "std::move(" + name + ")";
        bool moved = head.find(needle) != std::string::npos;
        for (size_t li = func.body_begin;
             !moved && li <= func.body_end && li < f.code.size(); ++li) {
          moved = f.code[li].find(needle) != std::string::npos;
        }
        if (moved) continue;
      }
      Add(f, func.head_line, "arg-copy",
          "parameter '" + param + "' of " + func.key +
              " passes a heavy type by value; take const&/span, or "
              "std::move it into a member (sink)",
          out);
    }
  }
}

// ---------------------------------------------------------------------------
// [reserve-before-growth]
// ---------------------------------------------------------------------------

void CheckReserveBeforeGrowth(const Model& model,
                              std::vector<Diagnostic>* out) {
  for (const Func& func : model.funcs) {
    const SourceFile& f = *func.file;
    int brace_depth = 0;
    std::vector<int> loops;    // brace depth at entry of each for body
    int paren_depth = 0;
    bool pending_for = false;  // inside the `for (...)` header parens
    bool await_body = false;   // header closed; next token opens the body
    int stmt_loops = 0;        // braceless for bodies, active until ';'
    for (size_t li = func.body_begin;
         li <= func.body_end && li < f.code.size(); ++li) {
      const std::string& line = f.code[li];
      if (Trimmed(line).starts_with("#")) continue;
      const size_t start = li == func.body_begin ? func.body_begin_col : 0;
      for (size_t ci = start; ci < line.size(); ++ci) {
        const char c = line[ci];
        if (await_body && std::isspace(static_cast<unsigned char>(c)) == 0) {
          await_body = false;
          if (c == '{') {
            loops.push_back(brace_depth);
            ++brace_depth;
            continue;
          }
          ++stmt_loops;  // braceless body: one statement
        }
        if (IsWordChar(c) && (ci == start || !IsWordChar(line[ci - 1]))) {
          size_t q = ci;
          while (q < line.size() && IsWordChar(line[q])) ++q;
          const std::string word = line.substr(ci, q - ci);
          if (word == "for" && paren_depth == 0) {
            pending_for = true;
          } else if ((word == "push_back" || word == "emplace_back") &&
                     (loops.size() + static_cast<size_t>(stmt_loops)) > 0) {
            size_t after = q;
            while (after < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[after])) !=
                       0) {
              ++after;
            }
            if (after < line.size() && line[after] == '(' &&
                IsWaitCall(line, ci)) {
              const std::string recv = SimpleReceiver(line, ci);
              if (!recv.empty() && !HasPriorReserve(func, recv, li, ci) &&
                  !IsDequeReceiver(f, recv)) {
                Add(f, li, "reserve-before-growth",
                    "'" + recv + "." + word +
                        "' inside a for loop without a prior '" + recv +
                        ".reserve(...)' in " + func.key +
                        "; reserve the bound before the loop",
                    out);
              }
            }
          }
          ci = q - 1;
          continue;
        }
        switch (c) {
          case '(':
            ++paren_depth;
            break;
          case ')':
            if (paren_depth > 0 && --paren_depth == 0 && pending_for) {
              pending_for = false;
              await_body = true;
            }
            break;
          case '{':
            ++brace_depth;
            break;
          case '}':
            --brace_depth;
            while (!loops.empty() && loops.back() >= brace_depth) {
              loops.pop_back();
            }
            break;
          case ';':
            if (paren_depth == 0) stmt_loops = 0;
            break;
          default:
            break;
        }
      }
    }
  }
}

}  // namespace

void CheckHotPath(const std::vector<SourceFile>& files,
                  std::vector<Diagnostic>* out) {
  const HotComputation hc = ComputeHot(files, out);
  std::vector<HotPathSite> sites;
  CollectHotSites(hc, &sites);
  for (const HotPathSite& s : sites) {
    Diagnostic d;
    d.file = s.file;
    d.line = s.line;
    d.rule = s.rule;
    d.message = s.message;
    out->push_back(std::move(d));
  }
  CheckArgCopy(hc.model, out);
  CheckReserveBeforeGrowth(hc.model, out);
}

}  // namespace internal

HotPathGraph BuildHotPathGraph(const std::vector<SourceFile>& files) {
  using internal::CallEvent;
  using internal::Func;
  using internal::Range;
  std::vector<Diagnostic> sink;  // malformed-annotation diags: lint's job
  const internal::HotComputation hc = internal::ComputeHot(files, &sink);

  HotPathGraph graph;
  std::set<std::string> node_keys;
  const auto add_node = [&](const std::string& key, const std::string& why,
                            bool root, const Func* def) {
    if (!node_keys.insert(key).second) return;
    HotPathNode node;
    node.key = key;
    node.why = why;
    node.root = root;
    if (def != nullptr) {
      node.file = def->file->path;
      node.line = static_cast<int>(def->head_line) + 1;
    }
    graph.nodes.push_back(std::move(node));
  };
  const auto first_def = [&](const std::string& key) -> const Func* {
    const auto it = hc.model.func_by_key.find(key);
    if (it == hc.model.func_by_key.end() || it->second.empty()) {
      return nullptr;
    }
    return &hc.model.funcs[it->second.front()];
  };
  // Hot functions, roots first so their `root` flag wins.
  for (const auto& [key, why] : hc.root_why) {
    add_node(key, why + "; " + hc.chain.at(key), true, first_def(key));
  }
  for (const auto& [key, chain] : hc.chain) {
    add_node(key, chain, false, first_def(key));
  }
  // Dispatching functions appear as roots even when not hot themselves
  // (their lambda bodies are).
  std::set<std::string> edge_seen;
  for (const Func& func : hc.model.funcs) {
    if (internal::InUtil(func.file->path) ||
        hc.cold.count(func.key) != 0) {
      continue;
    }
    const bool func_hot = hc.chain.count(func.key) != 0;
    if (!func_hot && !func.dispatch_bodies.empty()) {
      add_node(func.key, "ThreadPool dispatch site", true, &func);
    }
    for (const CallEvent& c : func.calls) {
      if (c.resolved.empty() || hc.chain.count(c.resolved) == 0) continue;
      if (!func_hot && !c.in_dispatch) continue;
      if (edge_seen.insert(func.key + "\n" + c.resolved).second) {
        graph.edges.push_back({func.key, c.resolved});
      }
    }
  }
  internal::CollectHotSites(hc, &graph.sites);
  return graph;
}

std::string HotPathDot(const HotPathGraph& graph) {
  std::map<std::string, int> site_count;
  for (const HotPathSite& s : graph.sites) ++site_count[s.func];
  std::string dot = "digraph hot_path {\n  node [shape=box];\n";
  for (const HotPathNode& n : graph.nodes) {
    const int sites = site_count.count(n.key) ? site_count[n.key] : 0;
    std::string label = DotEscape(n.key);
    if (sites > 0) {
      label += "\\n" + std::to_string(sites) + " finding" +
               (sites == 1 ? "" : "s");
    }
    dot += "  \"" + DotEscape(n.key) + "\" [label=\"" + label + "\"";
    if (n.root) dot += ", peripheries=2";
    if (sites > 0) dot += ", color=red";
    dot += "];\n";
  }
  for (const HotPathEdge& e : graph.edges) {
    dot += "  \"" + DotEscape(e.from) + "\" -> \"" + DotEscape(e.to) +
           "\";\n";
  }
  dot += "}\n";
  return dot;
}

std::string HotPathText(const HotPathGraph& graph) {
  std::string text = "hot-path call tree: " +
                     std::to_string(graph.nodes.size()) + " hot functions, " +
                     std::to_string(graph.edges.size()) + " edges, " +
                     std::to_string(graph.sites.size()) + " findings\n";
  for (const HotPathNode& n : graph.nodes) {
    text += std::string(n.root ? "root " : "hot  ") + n.key;
    if (!n.file.empty()) {
      text += " (" + n.file + ":" + std::to_string(n.line) + ")";
    }
    text += "\n  via: " + n.why + "\n";
    for (const HotPathSite& s : graph.sites) {
      if (s.func != n.key) continue;
      text += "  [" + s.rule + "] " + s.file + ":" + std::to_string(s.line) +
              ": " + s.message + "\n";
    }
  }
  for (const HotPathEdge& e : graph.edges) {
    text += "edge " + e.from + " -> " + e.to + "\n";
  }
  return text;
}

}  // namespace lint
}  // namespace nmcdr
