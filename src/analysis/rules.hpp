// The four dmr_verify rule families (DESIGN.md §16). Each pass walks
// the TreeModel and appends findings; suppression (allowlist) and
// reporting live in analyzer.cpp.
//
//   determinism  det-unordered-sink   unordered-container iteration
//                                     feeding a determinism sink
//                det-pointer-key      pointer-keyed ordered container
//                det-wall-in-sim      wall-clock read reachable from
//                                     simulated-time code
//   atomics      atomic-implicit-order  std::atomic op without an
//                                       explicit memory_order
//                atomic-relaxed-justify relaxed op (allowlist carries
//                                       the justification)
//                sync-channel           acquire/release sites vs the
//                                       src/shm/sync_channels.hpp table
//   shard        shard-annotation     des member lacking
//                                     DMR_SHARD_LOCAL/_SHARED
//                shard-channel-api    shard-shared state touched
//                                     outside a DMR_CHANNEL_API fn
//   project      mutex-annotation     bare std:: lock primitive, or a
//                                     dmr::Mutex that guards nothing
//                clock-mixing         one function touching wall-clock
//                                     and simulated time
//                discarded-status     (void)-cast of a Status/Result call
//                trace-category       trace::Category not registered in
//                                     category_name()
//                config-doc           src/config/ key absent from
//                                     DESIGN.md
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/model.hpp"

namespace dmr::analysis {

struct Finding {
  std::string rule;
  std::string file;  ///< path relative to --root
  int line = 0;
  std::string symbol;  ///< offending identifier, when known
  std::string message;
  bool suppressed = false;
};

void run_determinism_rules(const TreeModel& model, std::vector<Finding>& out);
void run_atomics_rules(const TreeModel& model, std::vector<Finding>& out);
void run_shard_rules(const TreeModel& model, std::vector<Finding>& out);
/// clock-mixing's test: `fn` names both a wall-clock token and a
/// simulated-time token, returned through `wall`/`sim`. det-wall-in-sim
/// leaves such a function's own wall read to clock-mixing, so each
/// hazard is reported once.
bool mixes_clocks(const Function& fn, const char** wall, const char** sim);
/// `design` is the text of <root>/DESIGN.md (config-doc's reference);
/// nullopt when the tree has none.
void run_project_rules(const TreeModel& model,
                       const std::optional<std::string>& design,
                       std::vector<Finding>& out);

}  // namespace dmr::analysis
