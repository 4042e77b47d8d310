// Golden-output tests for tools/dmr_verify: each fixture mini-tree
// under tools/dmr_verify/testdata/ seeds one violation class of the
// analyzer (determinism sinks, atomics discipline, sync channels, shard
// contracts, and the project rules of the DmrLint cases below), plus a
// self-check that the real tree is clean under its audited allowlist.
// The tests spawn the actual binary — the contract under test is the
// CLI (exit code + findings lines + JSON), exactly what
// scripts/check.sh --static consumes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

#ifndef DMR_VERIFY_BIN
#error "DMR_VERIFY_BIN must be defined by the build"
#endif
#ifndef DMR_VERIFY_TESTDATA
#error "DMR_VERIFY_TESTDATA must be defined by the build"
#endif
#ifndef DMR_REPO_ROOT
#error "DMR_REPO_ROOT must be defined by the build"
#endif

struct VerifyRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

VerifyRun run_verify(const std::string& args) {
  // Per-process output file: ctest runs each TEST as its own process,
  // concurrently — a shared fixed name would make parallel runs
  // clobber each other's captured output.
  const std::string out_path = ::testing::TempDir() + "/dmr_verify_out_" +
                               std::to_string(::getpid()) + ".txt";
  const std::string cmd = std::string(DMR_VERIFY_BIN) + " " + args + " > " +
                          out_path + " 2>&1";
  const int rc = std::system(cmd.c_str());
  VerifyRun r;
  r.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  std::ifstream in(out_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  r.output = ss.str();
  return r;
}

VerifyRun run_on_fixture(const std::string& fixture,
                         const std::string& extra = "") {
  const std::string root = std::string(DMR_VERIFY_TESTDATA) + "/" + fixture;
  return run_verify("--root " + root + " " + extra);
}

// The clean fixture carries a DESIGN.md and a guarded dmr::Mutex, so
// every rule family has something to look at and finds nothing.
TEST(DmrVerify, CleanTreePasses) {
  const VerifyRun r = run_on_fixture("clean");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 finding(s), 0 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, UnorderedSinkFlagsAllThreeShapes) {
  const VerifyRun r = run_on_fixture("unordered_sink");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Sink called inside the loop.
  EXPECT_NE(r.output.find("feeds determinism sink 'fnv1a'"),
            std::string::npos)
      << r.output;
  // FP accumulation inside the loop.
  EXPECT_NE(r.output.find("floating-point accumulation into 'sum'"),
            std::string::npos)
      << r.output;
  // Taint: variable written in the loop reaches a sink after it.
  EXPECT_NE(r.output.find(
                "'out' is written while iterating unordered container"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("3 finding(s), 3 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, PointerKeyFlagsOnlyDefaultComparator) {
  const VerifyRun r = run_on_fixture("pointer_key");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[det-pointer-key]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/reg.hpp:12"), std::string::npos) << r.output;
  // The comparator-supplied map and the pointer-as-value map are clean.
  EXPECT_NE(r.output.find("1 finding(s), 1 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, WallClockReachableFromSimIsReportedWithPath) {
  const VerifyRun r = run_on_fixture("wall_in_sim");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[det-wall-in-sim]"), std::string::npos)
      << r.output;
  // The interprocedural chain is spelled out, two hops deep.
  EXPECT_NE(
      r.output.find("step_engine -> jitter_probe -> wall_seconds"),
      std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("steady_clock::now"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, ImplicitSeqCstIsFlaggedInBothShapes) {
  const VerifyRun r = run_on_fixture("atomics_implicit");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("'n_.fetch_add' without an explicit memory_order"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("bare use of std::atomic 'n_'"), std::string::npos)
      << r.output;
  // The explicit-acquire sibling stays clean: exactly two findings.
  EXPECT_NE(r.output.find("2 finding(s), 2 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, RelaxedWithoutJustificationIsFlagged) {
  const VerifyRun r = run_on_fixture("atomics_relaxed");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[atomic-relaxed-justify]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'v_.store'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'v_.load'"), std::string::npos) << r.output;
}

TEST(DmrVerify, AllowlistSuppressesJustifiedRelaxed) {
  const std::string root =
      std::string(DMR_VERIFY_TESTDATA) + "/atomics_relaxed";
  const VerifyRun r =
      run_verify("--root " + root + " --allowlist " + root + "/allowlist.txt");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("2 finding(s), 0 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, AllowlistEntryWithoutJustificationIsItselfAFinding) {
  const std::string root =
      std::string(DMR_VERIFY_TESTDATA) + "/atomics_relaxed";
  const VerifyRun r = run_verify("--root " + root + " --allowlist " + root +
                                 "/allowlist_bad.txt");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[allowlist]"), std::string::npos) << r.output;
  // The malformed entry suppresses nothing: the relaxed findings stay.
  EXPECT_NE(r.output.find("[atomic-relaxed-justify]"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, UnusedAllowlistEntryWarns) {
  // The relaxed allowlist matches nothing in the clean fixture.
  const VerifyRun r = run_on_fixture(
      "clean", "--allowlist " + std::string(DMR_VERIFY_TESTDATA) +
                   "/atomics_relaxed/allowlist.txt");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("unused allowlist entry"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, ShmWithoutSyncTableIsDemanded) {
  const VerifyRun r = run_on_fixture("sync_missing");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("no src/shm/sync_channels.hpp channel table"),
            std::string::npos)
      << r.output;
}

TEST(DmrVerify, SyncChannelTableDriftAndSitesAreChecked) {
  const VerifyRun r = run_on_fixture("sync_channel");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Kind with no table entry, and table entry naming an unknown Kind.
  EXPECT_NE(r.output.find("SyncPoint::Kind::kOrphan"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(
                "'ghost_mutex' names SyncPoint::Kind::kGhost"),
            std::string::npos)
      << r.output;
  // Unannotated acquire site and annotation naming an unknown channel.
  EXPECT_NE(r.output.find("without a `sync: <channel>` annotation"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("`sync: bogus` names a channel"),
            std::string::npos)
      << r.output;
  // Dead entries on both the sync-point and the atomic side.
  EXPECT_NE(r.output.find("sync-point channel 'ghost_mutex' (kGhost) lacks"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("atomic channel 'dead_channel' lacks"),
            std::string::npos)
      << r.output;
  // Fully paired channels must NOT be reported dead: queue_mutex is
  // covered by the on_acquire/on_release hooks, flag_channel by its
  // two `sync:` annotations.
  EXPECT_EQ(r.output.find("sync-point channel 'queue_mutex'"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("atomic channel 'flag_channel'"),
            std::string::npos)
      << r.output;
}

TEST(DmrVerify, ShardContractsAreEnforced) {
  const VerifyRun r = run_on_fixture("shard");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Missing contract on stray_.
  EXPECT_NE(r.output.find("'Mailbox::stray_' lacks a sharding contract"),
            std::string::npos)
      << r.output;
  // Shared member touched outside a channel-API function.
  EXPECT_NE(r.output.find(
                "'Mailbox::slots_' touched outside a DMR_CHANNEL_API"),
            std::string::npos)
      << r.output;
  // Local member referenced from a different unit in the shard root.
  EXPECT_NE(r.output.find("'Mailbox::seq_' (declared in src/des/chan.hpp) "
                          "referenced outside its unit"),
            std::string::npos)
      << r.output;
  // The annotated post() and same-unit local_seq() stay clean.
  EXPECT_NE(r.output.find("3 finding(s), 3 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrVerify, JsonOutputIsWritten) {
  const std::string json =
      ::testing::TempDir() + "/dmr_verify_findings_" +
      std::to_string(::getpid()) + ".json";
  const VerifyRun r = run_on_fixture("unordered_sink", "--json " + json);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  std::ifstream in(json);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"rule\": \"det-unordered-sink\""),
            std::string::npos)
      << ss.str();
  EXPECT_NE(ss.str().find("\"unsuppressed\": 3"), std::string::npos)
      << ss.str();
  std::remove(json.c_str());
}

// The gate itself: the real tree must stay clean (the binary picks up
// the audited tools/dmr_verify/allowlist.txt under --root). A
// regression here means a new violation of one of the rule families
// landed. Every allowlist entry must still match, and the two
// project-rule exceptions must be reported as suppressed findings: a
// change to a reported symbol shows up here, not as a silent pass.
TEST(DmrVerify, RealTreeIsClean) {
  const std::string json = ::testing::TempDir() + "/dmr_verify_real_tree_" +
                           std::to_string(::getpid()) + ".json";
  const VerifyRun r = run_verify(std::string("--root ") + DMR_REPO_ROOT +
                                 " --json " + json);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("unused allowlist entry"), std::string::npos)
      << r.output;
  std::ifstream in(json);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string js = ss.str();
  for (const char* entry :
       {"\"rule\": \"mutex-annotation\", \"file\": \"src/common/log.cpp\"",
        "\"rule\": \"discarded-status\", \"file\": \"src/fs/sim_fs.cpp\""})
    EXPECT_NE(js.find(entry), std::string::npos) << entry << "\n" << js;
  EXPECT_NE(js.find("\"symbol\": \"g_emit_mutex\", \"suppressed\": true"),
            std::string::npos)
      << js;
  EXPECT_NE(js.find("\"symbol\": \"try_write\", \"suppressed\": true"),
            std::string::npos)
      << js;
  EXPECT_NE(js.find("\"unsuppressed\": 0"), std::string::npos) << js;
  std::remove(json.c_str());
}

// --- project rules -------------------------------------------------------
// The lint-level family (mutex-annotation, clock-mixing,
// discarded-status, trace-category, config-doc): one fixture per rule,
// plus allowlist handling and JSON output for its findings.

// The clean fixture raises none of the project rules: a guarded
// dmr::Mutex, a documented config surface and no wall/sim clock mix.
TEST(DmrLint, CleanTreePasses) {
  const VerifyRun r = run_on_fixture("clean");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 unsuppressed"), std::string::npos) << r.output;
  for (const char* rule : {"[mutex-annotation]", "[clock-mixing]",
                           "[discarded-status]", "[trace-category]",
                           "[config-doc]"})
    EXPECT_EQ(r.output.find(rule), std::string::npos) << rule << "\n"
                                                      << r.output;
}

TEST(DmrLint, BareStdMutexIsFlagged) {
  const VerifyRun r = run_on_fixture("bare_mutex");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[mutex-annotation]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/q.hpp:4"), std::string::npos) << r.output;
}

TEST(DmrLint, MutexGuardingNothingIsFlagged) {
  const VerifyRun r = run_on_fixture("idle_mutex");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("lonely_mutex_"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("guards nothing"), std::string::npos) << r.output;
}

TEST(DmrLint, ClockMixingIsFlaggedPerFunction) {
  const VerifyRun r = run_on_fixture("clock_mix");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[clock-mixing]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'drift'"), std::string::npos) << r.output;
  // The sim-only sibling in the same file must NOT be flagged.
  EXPECT_EQ(r.output.find("pure_sim"), std::string::npos) << r.output;
  // One hazard, one finding: det-wall-in-sim leaves it to clock-mixing.
  EXPECT_EQ(r.output.find("[det-wall-in-sim]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("1 finding(s), 1 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrLint, DiscardedStatusIsFlagged) {
  const VerifyRun r = run_on_fixture("discarded");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[discarded-status]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'do_io'"), std::string::npos) << r.output;
  // Exactly one finding: the handled call site is clean.
  EXPECT_NE(r.output.find("1 finding(s), 1 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrLint, UnregisteredTraceCategoryIsFlagged) {
  const VerifyRun r = run_on_fixture("trace_cat");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Both the declaration gap and the use site are reported.
  EXPECT_NE(r.output.find("kNew"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("src/trace/event.hpp"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/user.cpp"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("kDes"), std::string::npos) << r.output;
}

TEST(DmrLint, UndocumentedConfigKeyIsFlagged) {
  const VerifyRun r = run_on_fixture("config_doc");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[config-doc]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("secret_knob"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("documented_key"), std::string::npos) << r.output;
}

TEST(DmrLint, AllowlistSuppressesJustifiedFinding) {
  const std::string root = std::string(DMR_VERIFY_TESTDATA) + "/allowed";
  const VerifyRun r =
      run_verify("--root " + root + " --allowlist " + root + "/allowlist.txt");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("1 finding(s), 0 unsuppressed"), std::string::npos)
      << r.output;
}

TEST(DmrLint, AllowlistEntryWithoutJustificationIsItselfAFinding) {
  const std::string root = std::string(DMR_VERIFY_TESTDATA) + "/bad_allowlist";
  const VerifyRun r =
      run_verify("--root " + root + " --allowlist " + root + "/allowlist.txt");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[allowlist]"), std::string::npos) << r.output;
  // The malformed entry suppresses nothing: the underlying finding stays.
  EXPECT_NE(r.output.find("[mutex-annotation]"), std::string::npos)
      << r.output;
}

TEST(DmrLint, JsonOutputIsWritten) {
  const std::string json = ::testing::TempDir() +
                           "/dmr_verify_project_findings_" +
                           std::to_string(::getpid()) + ".json";
  const VerifyRun r = run_on_fixture("bare_mutex", "--json " + json);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  std::ifstream in(json);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"rule\": \"mutex-annotation\""),
            std::string::npos)
      << ss.str();
  EXPECT_NE(ss.str().find("\"unsuppressed\": 1"), std::string::npos)
      << ss.str();
  std::remove(json.c_str());
}

// The real tree under its audited allowlist: no project-rule finding
// is left unsuppressed (the two allowlisted ones are reported with
// their suppression in the JSON checked by DmrVerify.RealTreeIsClean).
TEST(DmrLint, RealTreeIsClean) {
  const VerifyRun r = run_verify(std::string("--root ") + DMR_REPO_ROOT);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* rule : {"[mutex-annotation]", "[clock-mixing]",
                           "[discarded-status]", "[trace-category]",
                           "[config-doc]"})
    EXPECT_EQ(r.output.find(rule), std::string::npos) << rule << "\n"
                                                      << r.output;
}

}  // namespace
