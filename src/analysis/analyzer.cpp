#include "analysis/analyzer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/model.hpp"
#include "analysis/rules.hpp"
#include "analysis/source.hpp"

namespace fs = std::filesystem;

namespace dmr::analysis {

namespace {

struct AllowEntry {
  std::string rule;
  std::string path;    ///< suffix-matched against the finding's file
  std::string symbol;  ///< optional; empty matches any
  std::string justification;
  int line = 0;
  bool used = false;
};

std::string rel_path(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  const fs::path r = fs::relative(p, root, ec);
  return (ec ? p : r).generic_string();
}

std::vector<AllowEntry> parse_allowlist(const std::string& path,
                                        std::vector<Finding>& out) {
  std::vector<AllowEntry> entries;
  const auto text = read_file(path);
  if (!text) return entries;
  const auto lines = split_lines(*text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty() || line[0] == '#') continue;
    const std::size_t hash = line.find('#');
    std::string justification =
        hash == std::string::npos ? "" : line.substr(hash + 1);
    while (!justification.empty() && justification.front() == ' ')
      justification.erase(justification.begin());
    std::istringstream is(line.substr(0, hash));
    AllowEntry e;
    e.line = static_cast<int>(i + 1);
    is >> e.rule >> e.path;
    if (const std::size_t colon = e.path.find(':');
        colon != std::string::npos) {
      e.symbol = e.path.substr(colon + 1);
      e.path = e.path.substr(0, colon);
    }
    e.justification = justification;
    if (e.rule.empty() || e.path.empty() || e.justification.empty()) {
      out.push_back({"allowlist", path, e.line, e.rule,
                     "malformed allowlist entry (need `rule path[:symbol]  "
                     "# justification`)"});
      continue;
    }
    entries.push_back(e);
  }
  return entries;
}

bool suppressed_by(const Finding& f, const AllowEntry& e) {
  if (f.rule != e.rule) return false;
  if (f.file.size() < e.path.size() ||
      f.file.compare(f.file.size() - e.path.size(), e.path.size(), e.path) !=
          0)
    return false;
  if (!e.symbol.empty() && f.symbol != e.symbol) return false;
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') { out += '\\'; out += c; }
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

bool finding_less(const Finding& a, const Finding& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) return a.rule < b.rule;
  if (a.symbol != b.symbol) return a.symbol < b.symbol;
  return a.message < b.message;
}

}  // namespace

int run_analyzer(const Options& opt) {
  const fs::path root = opt.root;
  const fs::path src_root = root / "src";
  if (!fs::exists(src_root)) {
    std::cerr << "dmr_verify: no src/ under " << root << "\n";
    return 2;
  }

  // File set: every C++ source under root/src.
  std::set<fs::path> paths;
  for (const auto& de : fs::recursive_directory_iterator(src_root)) {
    if (!de.is_regular_file()) continue;
    const std::string ext = de.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
      paths.insert(fs::weakly_canonical(de.path()));
  }

  std::vector<SourceFile> files;
  for (const fs::path& p : paths) {
    SourceFile f;
    f.rel = rel_path(p, root);
    auto text = read_file(p.string());
    if (!text) {
      std::cerr << "dmr_verify: cannot read " << f.rel << "\n";
      return 2;
    }
    const std::size_t dot = f.rel.rfind('.');
    f.unit = dot == std::string::npos ? f.rel : f.rel.substr(0, dot);
    const std::string ext = dot == std::string::npos ? "" : f.rel.substr(dot);
    f.is_header = ext == ".hpp" || ext == ".h";
    f.raw = std::move(*text);
    f.stripped = strip_comments_and_strings(f.raw);
    f.raw_lines = split_lines(f.raw);
    f.functions = extract_functions(f.stripped);
    files.push_back(std::move(f));
  }
  if (opt.verbose)
    std::cerr << "dmr_verify: analyzing " << files.size() << " files\n";
  const TreeModel model = build_model(std::move(files));
  std::vector<Finding> findings;
  run_determinism_rules(model, findings);
  run_atomics_rules(model, findings);
  run_shard_rules(model, findings);
  run_project_rules(model, read_file((root / "DESIGN.md").string()),
                    findings);
  std::sort(findings.begin(), findings.end(), finding_less);
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.symbol == b.symbol &&
                                      a.message == b.message;
                             }),
                 findings.end());

  std::string allowlist = opt.allowlist;
  if (allowlist.empty()) {
    const fs::path def = root / "tools" / "dmr_verify" / "allowlist.txt";
    if (fs::exists(def)) allowlist = def.string();
  }
  std::vector<AllowEntry> allow;
  if (!allowlist.empty()) allow = parse_allowlist(allowlist, findings);
  for (Finding& f : findings)
    for (AllowEntry& e : allow)
      if (suppressed_by(f, e)) {
        f.suppressed = true;
        e.used = true;
      }

  int unsuppressed = 0;
  for (const Finding& f : findings) {
    if (f.suppressed) {
      if (opt.verbose)
        std::cout << f.file << ":" << f.line << ": [" << f.rule
                  << "] suppressed: " << f.message << "\n";
      continue;
    }
    ++unsuppressed;
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  for (const AllowEntry& e : allow)
    if (!e.used)
      std::cerr << "dmr_verify: warning: unused allowlist entry (line "
                << e.line << "): " << e.rule << " " << e.path << "\n";

  if (!opt.json_out.empty()) {
    std::error_code ec;
    fs::create_directories(fs::path(opt.json_out).parent_path(), ec);
    std::ofstream js(opt.json_out);
    js << "{\n  \"findings\": [\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      js << "    {\"rule\": \"" << json_escape(f.rule) << "\", \"file\": \""
         << json_escape(f.file) << "\", \"line\": " << f.line
         << ", \"symbol\": \"" << json_escape(f.symbol)
         << "\", \"suppressed\": " << (f.suppressed ? "true" : "false")
         << ", \"message\": \"" << json_escape(f.message) << "\"}"
         << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"unsuppressed\": " << unsuppressed
       << ",\n  \"total\": " << findings.size() << "\n}\n";
  }

  std::cout << "dmr_verify: " << findings.size() << " finding(s), "
            << unsuppressed << " unsuppressed\n";
  return unsuppressed == 0 ? 0 : 1;
}

}  // namespace dmr::analysis
