// Project rules: properties a single line, declaration or function can
// show, which no off-the-shelf checker knows about this tree.
//
//   mutex-annotation  every mutex/condvar uses the annotated dmr::Mutex/
//                     MutexLock/CondVar wrappers (bare std:: primitives
//                     fall out of Clang's -Wthread-safety analysis), and
//                     every dmr::Mutex member guards something;
//   clock-mixing      no function touches both wall-clock time
//                     (std::chrono, wall_now, sleep_for) and simulated
//                     time (SimTime, sim_now);
//   discarded-status  no `(void)`-cast of a call to a Status/Result-
//                     returning function (class-level [[nodiscard]]
//                     already rejects plain discards; this closes the
//                     cast escape hatch);
//   trace-category    every trace::Category enumerator is registered in
//                     category_name(), and call sites only use
//                     registered categories;
//   config-doc        every config key parsed in src/config/ appears in
//                     DESIGN.md.
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "analysis/rules.hpp"

namespace dmr::analysis {

namespace {

// --- mutex-annotation ---------------------------------------------------

void rule_mutex_annotation(const SourceFile& f,
                           const std::vector<std::string>& lines,
                           std::vector<Finding>& out) {
  if (f.rel == "src/common/thread_annotations.hpp") return;
  static const char* kBare[] = {
      "std::mutex",         "std::recursive_mutex", "std::timed_mutex",
      "std::shared_mutex",  "std::condition_variable",
      "std::condition_variable_any", "std::lock_guard", "std::unique_lock",
      "std::scoped_lock"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const char* tok : kBare) {
      if (lines[i].find(tok) != std::string::npos) {
        out.push_back({"mutex-annotation", f.rel, static_cast<int>(i + 1),
                       tok,
                       std::string("bare ") + tok +
                           "; use the annotated dmr::Mutex/MutexLock/CondVar "
                           "(common/thread_annotations.hpp) so -Wthread-safety "
                           "can see the lock"});
        break;
      }
    }
  }
  // Every dmr::Mutex member must protect something: some declaration in
  // the same file names it in DMR_GUARDED_BY / DMR_PT_GUARDED_BY /
  // DMR_REQUIRES.
  static const std::regex kMember(
      "\\b(?:dmr::)?Mutex\\s+([A-Za-z_][A-Za-z0-9_]*)\\s*;");
  const std::string& s = f.stripped;
  for (std::sregex_iterator it(s.begin(), s.end(), kMember), end; it != end;
       ++it) {
    const std::string name = (*it)[1].str();
    const bool used =
        s.find("DMR_GUARDED_BY(" + name + ")") != std::string::npos ||
        s.find("DMR_PT_GUARDED_BY(" + name + ")") != std::string::npos ||
        s.find("DMR_REQUIRES(" + name + ")") != std::string::npos ||
        s.find("DMR_REQUIRES(" + name + ",") != std::string::npos;
    if (!used)
      out.push_back({"mutex-annotation", f.rel,
                     line_of_offset(s, static_cast<std::size_t>(it->position())),
                     name,
                     "Mutex member '" + name +
                         "' guards nothing: no DMR_GUARDED_BY/DMR_REQUIRES in "
                         "this file names it"});
  }
}

// --- clock-mixing -------------------------------------------------------

void rule_clock_mixing(const SourceFile& f, std::vector<Finding>& out) {
  for (const Function& fn : f.functions) {
    const char* wall = nullptr;
    const char* sim = nullptr;
    if (mixes_clocks(fn, &wall, &sim))
      out.push_back({"clock-mixing", f.rel, fn.line, fn.name,
                     "function '" + fn.name + "' mixes wall-clock (" + wall +
                         ") and simulated time (" + sim +
                         ") — the dual-clock hazard; split the function or "
                         "allowlist with a justification"});
  }
}

// --- discarded-status ---------------------------------------------------

std::set<std::string> collect_status_functions(const TreeModel& model) {
  std::set<std::string> names;
  // Task<Status> covers the DES coroutines: a (void)co_await of one
  // discards the status exactly like a plain call would.
  static const std::regex kDecl(
      "\\b(?:Status|Result<[^;{}]*>|(?:des::)?Task<Status>)\\s+"
      "([A-Za-z_][A-Za-z0-9_]*)\\s*\\(");
  for (const SourceFile& f : model.files) {
    if (!f.is_header) continue;
    const std::string& s = f.stripped;
    for (std::sregex_iterator it(s.begin(), s.end(), kDecl), end; it != end;
         ++it)
      names.insert((*it)[1].str());
  }
  // Casting the result type itself (constructor-style) is not a call.
  names.erase("Status");
  names.erase("Result");
  return names;
}

void rule_discarded_status(const SourceFile& f,
                           const std::vector<std::string>& lines,
                           const std::set<std::string>& status_fns,
                           std::vector<Finding>& out) {
  static const std::regex kVoidCast("\\(void\\)\\s*([^;]*)");
  static const std::regex kCall("\\b([A-Za-z_][A-Za-z0-9_]*)\\s*\\(");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(lines[i], m, kVoidCast)) continue;
    const std::string expr = m[1].str();
    for (std::sregex_iterator it(expr.begin(), expr.end(), kCall), end;
         it != end; ++it) {
      const std::string callee = (*it)[1].str();
      if (status_fns.count(callee) == 0) continue;
      out.push_back({"discarded-status", f.rel, static_cast<int>(i + 1),
                     callee,
                     "(void)-cast discards the Status/Result of '" + callee +
                         "'; handle it or allowlist with a justification"});
      break;
    }
  }
}

// --- trace-category -----------------------------------------------------

struct CategoryTables {
  std::set<std::string> declared;    ///< enum class Category
  std::set<std::string> registered;  ///< cases in category_name()
};

CategoryTables collect_categories(const TreeModel& model) {
  CategoryTables t;
  if (const SourceFile* ev = model.find("src/trace/event.hpp")) {
    const std::string& s = ev->stripped;
    const std::size_t b = s.find("enum class Category");
    const std::size_t e = b == std::string::npos ? b : s.find("};", b);
    if (b != std::string::npos && e != std::string::npos) {
      const std::string body = s.substr(b, e - b);
      static const std::regex kEnum("\\b(k[A-Za-z0-9_]+)\\s*=");
      for (std::sregex_iterator it(body.begin(), body.end(), kEnum), end;
           it != end; ++it)
        t.declared.insert((*it)[1].str());
    }
  }
  if (const SourceFile* tr = model.find("src/trace/tracer.cpp")) {
    const std::string& s = tr->stripped;
    const std::size_t b = s.find("category_name");
    const std::size_t e = b == std::string::npos ? b : s.find("}\n", b);
    if (b != std::string::npos) {
      const std::string body =
          s.substr(b, e == std::string::npos ? s.size() - b : e - b);
      static const std::regex kCase("case\\s+Category::(k[A-Za-z0-9_]+)");
      for (std::sregex_iterator it(body.begin(), body.end(), kCase), end;
           it != end; ++it)
        t.registered.insert((*it)[1].str());
    }
  }
  return t;
}

void rule_trace_category(const SourceFile& f,
                         const std::vector<std::string>& lines,
                         const CategoryTables& tables,
                         std::vector<Finding>& out) {
  if (tables.declared.empty()) return;  // no trace layer in this tree
  if (f.rel == "src/trace/event.hpp") {
    for (const std::string& c : tables.declared)
      if (tables.registered.count(c) == 0)
        out.push_back({"trace-category", f.rel, 1, c,
                       "Category::" + c +
                           " is declared but not registered in "
                           "category_name() (tracer.cpp)"});
    return;
  }
  if (f.rel == "src/trace/tracer.cpp") return;  // the registry itself
  static const std::regex kUse("Category::(k[A-Za-z0-9_]+)");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    for (std::sregex_iterator it(line.begin(), line.end(), kUse), end;
         it != end; ++it) {
      const std::string name = (*it)[1].str();
      if (tables.registered.count(name) == 0)
        out.push_back({"trace-category", f.rel, static_cast<int>(i + 1),
                       name,
                       "Category::" + name +
                           " used here is not registered in category_name()"});
    }
  }
}

// --- config-doc ---------------------------------------------------------

// Keys live in string literals, so this rule scans the RAW text (the
// stripped twin blanked literals out).
void rule_config_doc(const SourceFile& f,
                     const std::optional<std::string>& design,
                     std::vector<Finding>& out) {
  if (f.rel.rfind("src/config/", 0) != 0 ||
      f.rel.find(".cpp") == std::string::npos)
    return;
  static const std::regex kKey(
      "\\b(?:child|children_named|attr|attr_or)\\s*\\(\\s*\"([^\"]+)\"");
  const std::string& raw = f.raw;
  std::set<std::string> reported;
  for (std::sregex_iterator it(raw.begin(), raw.end(), kKey), end; it != end;
       ++it) {
    const std::string key = (*it)[1].str();
    if (reported.count(key) != 0) continue;
    if (design && design->find(key) != std::string::npos) continue;
    reported.insert(key);
    out.push_back({"config-doc", f.rel,
                   line_of_offset(raw, static_cast<std::size_t>(it->position())),
                   key,
                   "config key \"" + key +
                       "\" is parsed here but never mentioned in DESIGN.md"});
  }
}

}  // namespace

bool mixes_clocks(const Function& fn, const char** wall, const char** sim) {
  // sleep_until alone is NOT a wall marker: des::Engine::sleep_until
  // takes simulated time. Wall sleeps in this tree always go through
  // std::this_thread.
  static const char* kWall[] = {"std::chrono", "steady_clock", "system_clock",
                                "high_resolution_clock", "wall_now",
                                "this_thread::sleep_for"};
  static const char* kSim[] = {"SimTime", "sim_now"};
  // Signature + body: a SimTime parameter fed into a wall-clock sleep is
  // exactly the hazard, and SimTime often appears only as a parameter
  // type.
  const std::string text = fn.header + fn.body;
  *wall = nullptr;
  *sim = nullptr;
  for (const char* t : kWall)
    if (text.find(t) != std::string::npos) { *wall = t; break; }
  for (const char* t : kSim)
    if (text.find(t) != std::string::npos) { *sim = t; break; }
  return *wall != nullptr && *sim != nullptr;
}

void run_project_rules(const TreeModel& model,
                       const std::optional<std::string>& design,
                       std::vector<Finding>& out) {
  const std::set<std::string> status_fns = collect_status_functions(model);
  const CategoryTables categories = collect_categories(model);
  for (const SourceFile& f : model.files) {
    const std::vector<std::string> lines = split_lines(f.stripped);
    rule_mutex_annotation(f, lines, out);
    rule_clock_mixing(f, out);
    rule_discarded_status(f, lines, status_fns, out);
    rule_trace_category(f, lines, categories, out);
    rule_config_doc(f, design, out);
  }
}

}  // namespace dmr::analysis
