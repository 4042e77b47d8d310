// dmr_verify driver: analyzes every .cpp/.hpp (and .cc/.h) file under
// <root>/src — compile-database entries and headers alike — runs the
// four rule families of rules.hpp, applies the allowlist, and reports.
#pragma once

#include <string>

namespace dmr::analysis {

struct Options {
  std::string root = ".";
  std::string allowlist;  ///< defaults to root/tools/dmr_verify/allowlist.txt
  std::string json_out;   ///< optional machine-readable findings
  bool verbose = false;
};

/// Runs the analyzer; returns the process exit code
/// (0 clean, 1 unsuppressed findings, 2 usage/IO error).
int run_analyzer(const Options& opt);

}  // namespace dmr::analysis
