// The task-aware async write surface (core/async.hpp, DESIGN.md §14.1):
// ticket lifecycle and the callback-before-done ordering contract,
// dependence chains, WriteBatch, the end_iteration()/finalize() fence,
// the blocking calls that run inline on the caller's thread but still
// order after that client's pending tickets, degrade-ladder outcomes (a
// ticket that fell to sync/drop reports the same resolution the
// blocking path would have returned), and the determinism of
// completion timelines across identical runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <future>
#include <iterator>
#include <thread>
#include <vector>

#include "check/fault_checker.hpp"
#include "core/damaris.hpp"
#include "fault/fault.hpp"

namespace dmr::core {
namespace {

const char* kAsyncXml = R"(
<damaris>
  <buffer size="1048576" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="64,16"/>
  <variable name="temperature" layout="grid"/>
  <variable name="pressure" layout="grid"/>
</damaris>)";

struct AsyncNodeFixture : public ::testing::Test {
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("damaris_async_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    node_.reset();
    std::filesystem::remove_all(dir_);
  }

  void make_node(int clients, fault::FaultPlan plan = {},
                 fault::ResilienceConfig resilience = {}) {
    auto cfg = config::Config::from_string(kAsyncXml);
    ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
    if (!plan.empty()) {
      ASSERT_TRUE(plan.validate().is_ok());
      injector_ = std::make_unique<fault::FaultInjector>(std::move(plan));
    }
    NodeOptions opts;
    opts.output_dir = dir_.string();
    opts.file_prefix = "async";
    opts.resilience = resilience;
    opts.injector = injector_.get();
    node_ = std::make_unique<DamarisNode>(std::move(cfg.value()), clients,
                                          opts);
    ASSERT_TRUE(node_->start().is_ok());
  }

  std::vector<std::byte> field(std::byte fill = std::byte{0x2a}) const {
    std::vector<std::byte> out(64 * 16 * 4);
    std::memset(out.data(), static_cast<int>(fill), out.size());
    return out;
  }

  void finish(Client& client, std::int64_t last_iteration) {
    for (std::int64_t it = 0; it <= last_iteration; ++it) {
      EXPECT_TRUE(client.end_iteration(it).is_ok());
    }
    EXPECT_TRUE(client.finalize().is_ok());
    EXPECT_TRUE(node_->stop().is_ok());
  }

  std::filesystem::path dir_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<DamarisNode> node_;
};

// ------------------------------------------------------ ticket lifecycle

TEST_F(AsyncNodeFixture, TicketCompletesWithPublishedOutcome) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket t = client.write_async("temperature", 0, data);
  ASSERT_TRUE(t.valid());
  EXPECT_GT(t.id(), 0u);
  EXPECT_TRUE(t.wait().is_ok());
  EXPECT_TRUE(t.done());
  EXPECT_EQ(t.outcome(), WriteOutcome::kPublished);
  EXPECT_GT(t.completion_seq(), 0u);
  finish(client, 0);
}

TEST_F(AsyncNodeFixture, CopiesObserveTheSameCompletion) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket t = client.write_async("temperature", 0, data);
  WriteTicket copy = t;
  EXPECT_TRUE(t.wait().is_ok());
  EXPECT_TRUE(copy.done());
  EXPECT_EQ(copy.id(), t.id());
  EXPECT_EQ(copy.completion_seq(), t.completion_seq());
  finish(client, 0);
}

TEST_F(AsyncNodeFixture, CallerBufferIsFreeAfterSubmission) {
  // The payload is copied at submission: clobbering the source after
  // write_async() returns must not corrupt the write.
  make_node(1);
  Client client = node_->client(0);
  auto data = field(std::byte{0x11});
  WriteTicket t = client.write_async("temperature", 0, data);
  std::memset(data.data(), 0xff, data.size());  // caller reuses the buffer
  EXPECT_TRUE(t.wait().is_ok());
  EXPECT_EQ(t.outcome(), WriteOutcome::kPublished);
  finish(client, 0);
}

TEST_F(AsyncNodeFixture, InvalidTicketFailsImmediately) {
  WriteTicket t;
  EXPECT_FALSE(t.valid());
  EXPECT_EQ(t.id(), 0u);
  EXPECT_FALSE(t.wait().is_ok());
  EXPECT_EQ(t.completion_seq(), 0u);
}

TEST_F(AsyncNodeFixture, UnknownVariableYieldsFailedTicket) {
  // Validation failures return an already-failed ticket, never an
  // invalid handle — the caller's wait()/batch logic stays uniform.
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  std::atomic<int> callback_runs{0};
  AsyncWriteOptions opts;
  opts.on_complete = [&](const WriteTicket&) { ++callback_runs; };
  WriteTicket t = client.write_async("no_such_var", 0, data, std::move(opts));
  ASSERT_TRUE(t.valid());
  EXPECT_TRUE(t.done());
  EXPECT_FALSE(t.wait().is_ok());
  EXPECT_EQ(t.outcome(), WriteOutcome::kFailed);
  EXPECT_EQ(callback_runs.load(), 1);
  finish(client, 0);
}

// ------------------------------------------------- callback ordering

TEST_F(AsyncNodeFixture, CallbackRunsBeforeTicketReportsDone) {
  // The contract: status/outcome are final when the callback runs, and
  // done() flips only after the callback returns — so wait() returning
  // implies the callback finished.
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  std::atomic<bool> was_done_inside{true};
  std::atomic<bool> outcome_was_final{false};
  std::atomic<int> callback_runs{0};
  AsyncWriteOptions opts;
  opts.on_complete = [&](const WriteTicket& t) {
    was_done_inside = t.done();
    outcome_was_final = t.outcome() == WriteOutcome::kPublished;
    ++callback_runs;
  };
  WriteTicket t = client.write_async("temperature", 0, data, std::move(opts));
  EXPECT_TRUE(t.wait().is_ok());
  EXPECT_EQ(callback_runs.load(), 1);
  EXPECT_FALSE(was_done_inside.load());
  EXPECT_TRUE(outcome_was_final.load());
  finish(client, 0);
}

// ------------------------------------------------- dependence chains

TEST_F(AsyncNodeFixture, DependenceOrdersCompletionWithinAClient) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket t1 = client.write_async("temperature", 0, data);
  AsyncWriteOptions opts;
  opts.after.push_back(t1);
  WriteTicket t2 = client.write_async("pressure", 0, data, std::move(opts));
  EXPECT_TRUE(t2.wait().is_ok());
  EXPECT_TRUE(t1.done());  // t2 completing implies t1 completed
  EXPECT_LT(t1.completion_seq(), t2.completion_seq());
  finish(client, 0);
}

TEST_F(AsyncNodeFixture, DependencesCrossClients) {
  make_node(2);
  Client c0 = node_->client(0);
  Client c1 = node_->client(1);
  const auto data = field();
  WriteTicket t0 = c0.write_async("temperature", 0, data);
  AsyncWriteOptions opts;
  opts.after.push_back(t0);
  WriteTicket t1 = c1.write_async("temperature", 0, data, std::move(opts));
  EXPECT_TRUE(t1.wait().is_ok());
  EXPECT_LT(t0.completion_seq(), t1.completion_seq());
  EXPECT_TRUE(c0.end_iteration(0).is_ok());
  EXPECT_TRUE(c1.end_iteration(0).is_ok());
  EXPECT_TRUE(c0.finalize().is_ok());
  EXPECT_TRUE(c1.finalize().is_ok());
  EXPECT_TRUE(node_->stop().is_ok());
}

TEST_F(AsyncNodeFixture, ChainOfDependencesCompletesInOrder) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  std::vector<WriteTicket> chain;
  for (int i = 0; i < 6; ++i) {
    AsyncWriteOptions opts;
    if (!chain.empty()) opts.after.push_back(chain.back());
    chain.push_back(
        client.write_async("temperature", i, data, std::move(opts)));
  }
  EXPECT_TRUE(chain.back().wait().is_ok());
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LT(chain[i - 1].completion_seq(), chain[i].completion_seq());
  }
  finish(client, 5);
}

// --------------------------------------------------------- WriteBatch

TEST_F(AsyncNodeFixture, BatchWaitsForEveryTicket) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  WriteBatch batch;
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.all_done());  // vacuously
  EXPECT_TRUE(batch.wait_all().is_ok());
  batch.add(client.write_async("temperature", 0, data));
  batch.add(client.write_async("pressure", 0, data));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch.wait_all().is_ok());
  EXPECT_TRUE(batch.all_done());
  for (const WriteTicket& t : batch.tickets()) {
    EXPECT_EQ(t.outcome(), WriteOutcome::kPublished);
  }
  finish(client, 0);
}

TEST_F(AsyncNodeFixture, BatchReportsFirstFailureInSubmissionOrder) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  WriteBatch batch;
  batch.add(client.write_async("temperature", 0, data));
  batch.add(client.write_async("bogus_a", 0, data));
  batch.add(client.write_async("bogus_b", 0, data));
  const Status st = batch.wait_all();
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.to_string(), batch.tickets()[1].status().to_string());
  finish(client, 0);
}

// ------------------------------------------------------------- fences

TEST_F(AsyncNodeFixture, EndIterationFencesOutstandingTickets) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  std::vector<WriteTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(client.write_async("temperature", 0, data));
  }
  EXPECT_TRUE(client.end_iteration(0).is_ok());
  for (const WriteTicket& t : tickets) {
    EXPECT_TRUE(t.done());  // the fence waited for them
    EXPECT_TRUE(t.status().is_ok());
  }
  EXPECT_TRUE(client.finalize().is_ok());
  EXPECT_TRUE(node_->stop().is_ok());
}

TEST_F(AsyncNodeFixture, BlockingWriteIsSubmitPlusWait) {
  // The blocking write runs on the caller's thread after fencing the
  // client's pending tickets: after a mix of both, the node has seen
  // every write exactly once and in order.
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket t = client.write_async("temperature", 0, data);
  EXPECT_TRUE(client.write("pressure", 0, data).is_ok());
  EXPECT_TRUE(t.done());  // the blocking write waited for it
  finish(client, 0);
  EXPECT_EQ(node_->client_stats(0).writes, 2u);
}

// --------------------------------------------- the inline blocking path

/// A completion callback that holds its ticket pending (and its worker
/// busy) until the test opens the gate.
struct Gate {
  std::promise<void> promise;
  std::shared_future<void> opened = promise.get_future().share();
  WriteCallback hold() const {
    return [f = opened](const WriteTicket&) { f.wait(); };
  }
};

TEST_F(AsyncNodeFixture, CommitWaitsForPendingAsyncTicket) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  auto view = client.alloc("pressure", 0);
  ASSERT_TRUE(view.is_ok());
  std::memset(view.value().data(), 0x33, view.value().size());
  Gate gate;
  AsyncWriteOptions opts;
  opts.on_complete = gate.hold();
  WriteTicket t = client.write_async("temperature", 0, data, std::move(opts));
  std::atomic<bool> committed{false};
  bool ticket_done_at_return = false;
  std::thread committer([&] {
    EXPECT_TRUE(client.commit("pressure", 0).is_ok());
    ticket_done_at_return = t.done();
    committed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(committed.load());  // held behind the pending ticket
  gate.promise.set_value();
  committer.join();
  EXPECT_TRUE(ticket_done_at_return);
  finish(client, 0);
  EXPECT_EQ(node_->client_stats(0).writes, 2u);
}

TEST_F(AsyncNodeFixture, BlockingWriteWaitsBehindCrossClientDependence) {
  // Client 1's ticket depends on client 0's, which its callback holds;
  // client 1's blocking write must wait for both.
  make_node(2);
  Client c0 = node_->client(0);
  Client c1 = node_->client(1);
  const auto data = field();
  Gate gate;
  AsyncWriteOptions held_opts;
  held_opts.on_complete = gate.hold();
  WriteTicket held = c0.write_async("temperature", 0, data,
                                    std::move(held_opts));
  AsyncWriteOptions dep_opts;
  dep_opts.after.push_back(held);
  WriteTicket dependent = c1.write_async("temperature", 0, data,
                                         std::move(dep_opts));
  std::atomic<bool> written{false};
  bool dependent_done_at_return = false;
  std::thread writer([&] {
    EXPECT_TRUE(c1.write("pressure", 0, data).is_ok());
    dependent_done_at_return = dependent.done();
    written = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(written.load());
  EXPECT_FALSE(dependent.done());
  gate.promise.set_value();
  writer.join();
  EXPECT_TRUE(dependent_done_at_return);
  EXPECT_LT(held.completion_seq(), dependent.completion_seq());
  for (Client* c : {&c0, &c1}) {
    EXPECT_TRUE(c->end_iteration(0).is_ok());
    EXPECT_TRUE(c->finalize().is_ok());
  }
  EXPECT_TRUE(node_->stop().is_ok());
  EXPECT_EQ(node_->client_stats(1).writes, 2u);
}

TEST_F(AsyncNodeFixture, ClientStatsCountEachWriteOnce) {
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  EXPECT_TRUE(client.write("temperature", 0, data).is_ok());
  EXPECT_TRUE(client.write_sized("pressure", 0, data).is_ok());
  EXPECT_TRUE(client.write_async("temperature", 1, data).wait().is_ok());
  ASSERT_TRUE(client.alloc("pressure", 1).is_ok());
  EXPECT_TRUE(client.commit("pressure", 1).is_ok());
  // Failures are not writes.
  EXPECT_FALSE(client.write("temperature", 2, std::span(data).first(8)).is_ok());
  EXPECT_FALSE(client.write_async("bogus", 2, data).wait().is_ok());
  EXPECT_FALSE(client.commit("pressure", 2).is_ok());
  finish(client, 1);
  const ClientStats cs = node_->client_stats(0);
  EXPECT_EQ(cs.writes, 4u);
  EXPECT_EQ(cs.bytes_written, 4 * data.size());
  EXPECT_EQ(node_->stats().stages.of(iopath::StageKind::kIngest).ops, 4u);
}

#ifdef __linux__
TEST_F(AsyncNodeFixture, OnlyAsyncWritesStartAWorkerThread) {
  const auto threads = [] {
    return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                         std::filesystem::directory_iterator{});
  };
  make_node(1);
  Client client = node_->client(0);
  const auto data = field();
  const auto before = threads();
  EXPECT_TRUE(client.write("temperature", 0, data).is_ok());
  EXPECT_TRUE(client.write_sized("pressure", 0, data).is_ok());
  ASSERT_TRUE(client.alloc("temperature", 1).is_ok());
  EXPECT_TRUE(client.commit("temperature", 1).is_ok());
  EXPECT_EQ(threads(), before);
  EXPECT_TRUE(client.write_async("pressure", 1, data).wait().is_ok());
  EXPECT_EQ(threads(), before + 1);
  finish(client, 1);
}
#endif

// ------------------------------------------- degrade-ladder outcomes

TEST_F(AsyncNodeFixture, SyncFallbackReportsOutcomeOnTheTicket) {
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.site = fault::Site::kShmExhaust;
  spec.window_start = 0;
  spec.window_length = 1;
  plan.faults.push_back(spec);
  fault::ResilienceConfig res;
  res.degrade.allow_sync = true;
  res.degrade.trip_threshold = 1;
  make_node(1, plan, res);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket t = client.write_async("temperature", 0, data);
  EXPECT_TRUE(t.wait().is_ok());
  EXPECT_EQ(t.outcome(), WriteOutcome::kSyncFallback);
  finish(client, 0);
  EXPECT_EQ(node_->client_stats(0).sync_writes, 1u);
}

TEST_F(AsyncNodeFixture, DropFallbackReportsOutcomeOnTheTicket) {
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.site = fault::Site::kShmExhaust;
  spec.window_start = 0;
  spec.window_length = 1;
  plan.faults.push_back(spec);
  fault::ResilienceConfig res;
  res.degrade.allow_drop = true;  // drop is the only fallback
  res.degrade.trip_threshold = 1;
  make_node(1, plan, res);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket t = client.write_async("temperature", 0, data);
  EXPECT_TRUE(t.wait().is_ok());
  EXPECT_EQ(t.outcome(), WriteOutcome::kDropped);
  finish(client, 0);
  EXPECT_EQ(node_->client_stats(0).dropped_writes, 1u);
}

TEST_F(AsyncNodeFixture, NoFallbackAllowedReportsFailed) {
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.site = fault::Site::kShmExhaust;
  spec.window_start = 0;
  spec.window_length = 1;
  plan.faults.push_back(spec);
  fault::ResilienceConfig res;  // neither sync nor drop allowed
  res.degrade.trip_threshold = 1;
  make_node(1, plan, res);
  Client client = node_->client(0);
  const auto data = field();
  WriteTicket t = client.write_async("temperature", 0, data);
  EXPECT_FALSE(t.wait().is_ok());
  EXPECT_EQ(t.outcome(), WriteOutcome::kFailed);
  EXPECT_FALSE(t.status().is_ok());
  finish(client, 0);
}

// -------------------------------------------------------- determinism

TEST_F(AsyncNodeFixture, CompletionTimelineIsDeterministic) {
  // One client, a mixed chain of dependent and independent writes: the
  // per-client FIFO makes the completion timeline (ids and sequence
  // numbers) a pure function of the submission sequence. Two identical
  // runs must produce identical timelines.
  const auto timeline = [this] {
    make_node(1);
    Client client = node_->client(0);
    const auto data = field();
    std::vector<WriteTicket> tickets;
    for (int it = 0; it < 3; ++it) {
      AsyncWriteOptions opts;
      if (!tickets.empty()) opts.after.push_back(tickets.back());
      tickets.push_back(
          client.write_async("temperature", it, data, std::move(opts)));
      tickets.push_back(client.write_async("pressure", it, data));
    }
    std::vector<std::uint64_t> seqs;
    for (const WriteTicket& t : tickets) {
      EXPECT_TRUE(t.wait().is_ok());
      seqs.push_back(t.completion_seq());
    }
    finish(client, 2);
    node_.reset();
    return seqs;
  };
  const auto first = timeline();
  const auto second = timeline();
  EXPECT_EQ(first, second);
  // And the timeline is the submission order, densely numbered.
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], i + 1);
  }
}

}  // namespace
}  // namespace dmr::core
