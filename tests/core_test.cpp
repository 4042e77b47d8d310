#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/capi.hpp"
#include "core/damaris.hpp"
#include "core/metadata.hpp"
#include "format/dh5.hpp"

namespace dmr::core {
namespace {

// ---------------------------------------------------------- metadata

VariableBlock make_block(const std::string& var, std::int64_t it, int src,
                         Bytes size = 64) {
  VariableBlock b;
  b.variable = var;
  b.iteration = it;
  b.source = src;
  b.block = shm::Block{0, size, src};
  b.size = size;
  return b;
}

TEST(Metadata, AddAndFind) {
  MetadataManager m;
  EXPECT_FALSE(m.add(make_block("u", 1, 0)).has_value());
  EXPECT_NE(m.find("u", 1, 0), nullptr);
  EXPECT_EQ(m.find("u", 1, 1), nullptr);
  EXPECT_EQ(m.find("u", 2, 0), nullptr);
  EXPECT_EQ(m.find("v", 1, 0), nullptr);
  EXPECT_EQ(m.total_blocks(), 1u);
}

TEST(Metadata, DuplicateReplacedAndReturned) {
  MetadataManager m;
  m.add(make_block("u", 1, 0, 64));
  auto replaced = m.add(make_block("u", 1, 0, 128));
  ASSERT_TRUE(replaced.has_value());
  EXPECT_EQ(replaced->size, 64u);
  EXPECT_EQ(m.total_blocks(), 1u);
  EXPECT_EQ(m.find("u", 1, 0)->size, 128u);
}

TEST(Metadata, BlocksOfIteration) {
  MetadataManager m;
  m.add(make_block("u", 1, 0));
  m.add(make_block("u", 1, 1));
  m.add(make_block("v", 1, 0));
  m.add(make_block("u", 2, 0));
  EXPECT_EQ(m.blocks_of(1).size(), 3u);
  EXPECT_EQ(m.blocks_of(2).size(), 1u);
  EXPECT_TRUE(m.blocks_of(3).empty());
}

TEST(Metadata, TakeIterationRemoves) {
  MetadataManager m;
  m.add(make_block("u", 1, 0, 10));
  m.add(make_block("v", 1, 0, 20));
  m.add(make_block("u", 2, 0, 30));
  auto taken = m.take_iteration(1);
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(m.total_blocks(), 1u);
  EXPECT_EQ(m.total_bytes(), 30u);
  EXPECT_EQ(m.pending_iterations(), (std::vector<std::int64_t>{2}));
}

TEST(Metadata, PendingIterationsSorted) {
  MetadataManager m;
  m.add(make_block("u", 5, 0));
  m.add(make_block("u", 1, 0));
  m.add(make_block("u", 3, 0));
  m.add(make_block("v", 3, 1));
  EXPECT_EQ(m.pending_iterations(), (std::vector<std::int64_t>{1, 3, 5}));
}

// ------------------------------------------------------------- node

const char* kConfigXml = R"(
<damaris>
  <buffer size="8388608" policy="firstfit"/>
  <layout name="grid" type="float32" dimensions="16,16,4"/>
  <layout name="packed_grid" type="float32" dimensions="16,16,4"/>
  <variable name="temperature" layout="grid"/>
  <variable name="wind" layout="grid" pipeline="lossless"/>
  <event name="analyze" action="stats" scope="local"/>
  <event name="dump" action="write" scope="global"/>
</damaris>)";

struct NodeFixture : public ::testing::Test {
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("damaris_core_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    auto cfg = config::Config::from_string(kConfigXml);
    ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
    NodeOptions opts;
    opts.output_dir = dir_.string();
    opts.file_prefix = "test";
    node_ = std::make_unique<DamarisNode>(std::move(cfg.value()), 3, opts);
  }
  void TearDown() override {
    node_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::vector<std::byte> field(float base) const {
    std::vector<float> f(16 * 16 * 4);
    for (std::size_t i = 0; i < f.size(); ++i) {
      f[i] = base + 0.01f * static_cast<float>(i % 100);
    }
    std::vector<std::byte> out(f.size() * 4);
    std::memcpy(out.data(), f.data(), out.size());
    return out;
  }

  std::filesystem::path dir_;
  std::unique_ptr<DamarisNode> node_;
};

TEST_F(NodeFixture, WritePersistsToDh5) {
  ASSERT_TRUE(node_->start().is_ok());
  auto data = field(300.0f);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client cl = node_->client(c);
      ASSERT_TRUE(cl.write("temperature", 0, data).is_ok());
      ASSERT_TRUE(cl.write("wind", 0, data).is_ok());
      ASSERT_TRUE(cl.end_iteration(0).is_ok());
      ASSERT_TRUE(cl.finalize().is_ok());
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(node_->stop().is_ok());

  auto stats = node_->stats();
  ASSERT_EQ(stats.iterations.size(), 1u);
  EXPECT_EQ(stats.iterations[0].blocks, 6u);
  EXPECT_EQ(stats.iterations[0].raw_bytes, 6 * data.size());
  EXPECT_EQ(stats.persistency.files_written, 1u);

  // The file is valid DH5 with all six datasets; "wind" is compressed.
  auto reader = format::Dh5Reader::open(dir_.string() + "/test_node0_it0.dh5");
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  EXPECT_EQ(reader.value().entries().size(), 6u);
  auto idx = reader.value().find("wind", 0, 2);
  ASSERT_TRUE(idx.has_value());
  EXPECT_FALSE(reader.value().entries()[*idx].codecs.empty());
  auto payload = reader.value().read(*idx);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(payload.value(), data);
  // Shared memory fully reclaimed.
  EXPECT_EQ(node_->buffer().used(), 0u);
}

TEST_F(NodeFixture, ClientWriteIsFastAndServerDoesTheWork) {
  ASSERT_TRUE(node_->start().is_ok());
  Client cl = node_->client(0);
  auto data = field(1.0f);
  for (int it = 0; it < 5; ++it) {
    ASSERT_TRUE(cl.write("temperature", it, data).is_ok());
  }
  auto cs = cl.stats();
  EXPECT_EQ(cs.writes, 5u);
  EXPECT_EQ(cs.bytes_written, 5 * data.size());
  // A write is a memcpy: far under a millisecond per 4 KiB block here.
  EXPECT_LT(cs.write_seconds / 5, 0.01);
  for (int c = 0; c < 3; ++c) (void)node_->client(c).finalize();
  ASSERT_TRUE(node_->stop().is_ok());
}

TEST_F(NodeFixture, RejectsUnknownVariableAndWrongSize) {
  ASSERT_TRUE(node_->start().is_ok());
  Client cl = node_->client(0);
  auto data = field(0.0f);
  EXPECT_EQ(cl.write("pressure", 0, data).code(), ErrorCode::kNotFound);
  std::vector<std::byte> tiny(8);
  EXPECT_EQ(cl.write("temperature", 0, tiny).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(cl.signal("nonexistent", 0).code(), ErrorCode::kNotFound);
  for (int c = 0; c < 3; ++c) (void)node_->client(c).finalize();
  ASSERT_TRUE(node_->stop().is_ok());
}

TEST_F(NodeFixture, StatsPluginPublishesAnalytics) {
  ASSERT_TRUE(node_->start().is_ok());
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client cl = node_->client(c);
      auto data = field(100.0f * (c + 1));
      ASSERT_TRUE(cl.write("temperature", 0, data).is_ok());
      ASSERT_TRUE(cl.signal("analyze", 0).is_ok());
      ASSERT_TRUE(cl.end_iteration(0).is_ok());
      ASSERT_TRUE(cl.finalize().is_ok());
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(node_->stop().is_ok());
  auto analytics = node_->analytics();
  ASSERT_TRUE(analytics.count("temperature.max"));
  EXPECT_GE(analytics["temperature.max"], 300.0);
  EXPECT_GT(analytics["temperature.mean"], 0.0);
}

// Analytics are consumed in serialized form (vis/render tables, the
// steering loop's published keys): pin the sorted-key contract so a
// switch to a hash map can never leak seed-dependent order downstream.
TEST_F(NodeFixture, AnalyticsIterateInSortedKeyOrder) {
  node_->publish_analytic("zeta.max", 3.0);
  node_->publish_analytic("alpha.mean", 1.0);
  node_->publish_analytic("mid.min", 2.0);
  node_->publish_analytic("alpha.max", 4.0);
  std::vector<std::string> keys;
  for (const auto& [key, value] : node_->analytics()) keys.push_back(key);
  const std::vector<std::string> want = {"alpha.max", "alpha.mean", "mid.min",
                                         "zeta.max"};
  EXPECT_EQ(keys, want);
}

TEST_F(NodeFixture, CustomPluginRuns) {
  std::atomic<int> calls{0};
  node_->plugins().register_action("do_something",
                                   [&](EventContext&) { calls.fetch_add(1); });
  // Rebuild the config to bind an event to the custom action — reuse the
  // "analyze" event by re-registering its action instead.
  node_->plugins().register_action("stats",
                                   [&](EventContext&) { calls.fetch_add(1); });
  ASSERT_TRUE(node_->start().is_ok());
  Client cl = node_->client(0);
  ASSERT_TRUE(cl.signal("analyze", 0).is_ok());
  for (int c = 0; c < 3; ++c) (void)node_->client(c).finalize();
  ASSERT_TRUE(node_->stop().is_ok());
  EXPECT_EQ(calls.load(), 1);
}

TEST_F(NodeFixture, GlobalEventFiresOncePerIteration) {
  std::atomic<int> calls{0};
  node_->plugins().register_action("write",
                                   [&](EventContext&) { calls.fetch_add(1); });
  ASSERT_TRUE(node_->start().is_ok());
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(node_->client(c).signal("dump", 7).is_ok());
  }
  for (int c = 0; c < 3; ++c) (void)node_->client(c).finalize();
  ASSERT_TRUE(node_->stop().is_ok());
  EXPECT_EQ(calls.load(), 1);  // scope="global": once, not three times
}

TEST_F(NodeFixture, AllocCommitZeroCopy) {
  ASSERT_TRUE(node_->start().is_ok());
  Client cl = node_->client(1);
  auto span = cl.alloc("temperature", 3);
  ASSERT_TRUE(span.is_ok()) << span.status().to_string();
  EXPECT_EQ(span.value().size(), 16u * 16 * 4 * 4);
  std::memset(span.value().data(), 0x42, span.value().size());
  ASSERT_TRUE(cl.commit("temperature", 3).is_ok());
  // Commit without alloc fails.
  EXPECT_EQ(cl.commit("temperature", 4).code(),
            ErrorCode::kFailedPrecondition);
  for (int c = 0; c < 3; ++c) {
    (void)node_->client(c).end_iteration(3);
    (void)node_->client(c).finalize();
  }
  ASSERT_TRUE(node_->stop().is_ok());
  auto stats = node_->stats();
  ASSERT_EQ(stats.iterations.size(), 1u);
  EXPECT_EQ(stats.iterations[0].blocks, 1u);
}

TEST_F(NodeFixture, ManyIterationsInOrder) {
  ASSERT_TRUE(node_->start().is_ok());
  auto data = field(5.0f);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client cl = node_->client(c);
      for (int it = 0; it < 10; ++it) {
        ASSERT_TRUE(cl.write("temperature", it, data).is_ok());
        ASSERT_TRUE(cl.end_iteration(it).is_ok());
      }
      ASSERT_TRUE(cl.finalize().is_ok());
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(node_->stop().is_ok());
  auto stats = node_->stats();
  ASSERT_EQ(stats.iterations.size(), 10u);
  EXPECT_EQ(stats.persistency.files_written, 10u);
  EXPECT_EQ(node_->buffer().used(), 0u);
}

TEST_F(NodeFixture, UnflushedIterationPersistedOnStop) {
  ASSERT_TRUE(node_->start().is_ok());
  Client cl = node_->client(0);
  ASSERT_TRUE(cl.write("temperature", 0, field(1.0f)).is_ok());
  // No end_iteration: the drain on close must still persist it.
  for (int c = 0; c < 3; ++c) (void)node_->client(c).finalize();
  ASSERT_TRUE(node_->stop().is_ok());
  EXPECT_EQ(node_->stats().persistency.files_written, 1u);
}

// A variable without a codec pipeline is written straight from shm: its
// Transform op costs nothing and passes the bytes through unchanged,
// while the data on disk is still the client's payload.
TEST_F(NodeFixture, IdentityPersistSkipsTransform) {
  ASSERT_TRUE(node_->start().is_ok());
  const auto data = field(7.0f);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client cl = node_->client(c);
      for (int it = 0; it < 2; ++it) {
        ASSERT_TRUE(cl.write("temperature", it, data).is_ok());
        ASSERT_TRUE(cl.end_iteration(it).is_ok());
      }
      ASSERT_TRUE(cl.finalize().is_ok());
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(node_->stop().is_ok());

  const auto stats = node_->stats();
  const Bytes total = 6 * data.size();
  const auto& transform = stats.stages.of(iopath::StageKind::kTransform);
  EXPECT_EQ(transform.ops, 6u);  // one per dataset
  EXPECT_EQ(transform.seconds, 0.0);
  EXPECT_EQ(transform.bytes_in, total);
  EXPECT_EQ(transform.bytes_out, total);
  EXPECT_EQ(stats.persistency.datasets_written, 6u);
  EXPECT_EQ(stats.persistency.raw_bytes, total);
  EXPECT_EQ(stats.persistency.stored_bytes, total);

  auto reader = format::Dh5Reader::open(dir_.string() + "/test_node0_it1.dh5");
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  auto idx = reader.value().find("temperature", 1, 2);
  ASSERT_TRUE(idx.has_value());
  EXPECT_TRUE(reader.value().entries()[*idx].codecs.empty());
  auto payload = reader.value().read(*idx);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(payload.value(), data);
}

TEST_F(NodeFixture, CompressionRatioReported) {
  ASSERT_TRUE(node_->start().is_ok());
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Client cl = node_->client(c);
      ASSERT_TRUE(cl.write("wind", 0, field(2.0f)).is_ok());
      ASSERT_TRUE(cl.end_iteration(0).is_ok());
      ASSERT_TRUE(cl.finalize().is_ok());
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(node_->stop().is_ok());
  EXPECT_GT(node_->stats().persistency.compression_ratio(), 1.2);
}

TEST(ClientRange, OutOfRangeIdsFailEveryEntryPoint) {
  // Two shards: id -1 used to index shards_[-1], and id num_clients
  // maps onto shard 0, where its end_iteration() counted toward the
  // completion of client 0's iteration.
  const char* xml = R"(
<damaris>
  <buffer size="1048576" policy="firstfit"/>
  <dedicated cores="2"/>
  <layout name="grid" type="float32" dimensions="16,16,4"/>
  <variable name="temperature" layout="grid"/>
  <variable name="pressure" layout="grid"/>
  <event name="analyze" action="stats" scope="local"/>
</damaris>)";
  const auto dir = std::filesystem::temp_directory_path() /
                   ("damaris_range_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto cfg = config::Config::from_string(xml);
  ASSERT_TRUE(cfg.is_ok()) << cfg.status().to_string();
  NodeOptions opts;
  opts.output_dir = dir.string();
  opts.file_prefix = "range";
  opts.protocol_check = true;
  DamarisNode node(std::move(cfg.value()), 2, opts);
  ASSERT_EQ(node.num_shards(), 2);
  ASSERT_TRUE(node.start().is_ok());
  const std::vector<std::byte> data(16 * 16 * 4 * 4, std::byte{0x5a});

  Client c0 = node.client(0);
  ASSERT_TRUE(c0.write("temperature", 0, data).is_ok());
  for (int bad : {-1, node.num_clients()}) {
    SCOPED_TRACE("client id " + std::to_string(bad));
    Client c = node.client(bad);
    const auto invalid = [](const Status& st) {
      return st.code() == ErrorCode::kInvalidArgument;
    };
    EXPECT_TRUE(invalid(c.write("temperature", 0, data)));
    EXPECT_TRUE(invalid(c.write_sized("temperature", 0, data)));
    EXPECT_TRUE(invalid(c.alloc("temperature", 0).status()));
    EXPECT_TRUE(invalid(c.commit("temperature", 0)));
    EXPECT_TRUE(invalid(c.signal("analyze", 0)));
    EXPECT_TRUE(invalid(c.end_iteration(0)));
    EXPECT_TRUE(invalid(c.finalize()));
    for (const WriteTicket& t : {c.write_async("temperature", 0, data),
                                 c.write_sized_async("temperature", 0, data)}) {
      EXPECT_TRUE(t.done());
      EXPECT_EQ(t.outcome(), WriteOutcome::kFailed);
      EXPECT_TRUE(invalid(t.status()));
    }
  }
  ASSERT_TRUE(c0.write("pressure", 0, data).is_ok());

  Client c1 = node.client(1);
  ASSERT_TRUE(c1.write("temperature", 0, data).is_ok());
  for (Client* c : {&c0, &c1}) {
    EXPECT_TRUE(c->end_iteration(0).is_ok());
    EXPECT_TRUE(c->finalize().is_ok());
  }
  ASSERT_TRUE(node.stop().is_ok());

  // Iteration 0 completed once per shard, with every block its clients
  // wrote; nothing leaked and the shm protocol stayed clean.
  const ServerStats stats = node.stats();
  ASSERT_EQ(stats.iterations.size(), 2u);
  for (const IterationRecord& rec : stats.iterations) {
    EXPECT_EQ(rec.iteration, 0);
    EXPECT_EQ(rec.blocks, rec.shard == 0 ? 2u : 1u);
    EXPECT_TRUE(rec.persisted);
  }
  EXPECT_EQ(stats.failed_iterations, 0u);
  EXPECT_EQ(stats.protocol_violations, 0u);
  EXPECT_EQ(node.buffer().used(), 0u);
  EXPECT_EQ(node.client_stats(0).writes, 2u);
  EXPECT_EQ(node.client_stats(1).writes, 1u);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------ capi

TEST(CApi, FullLifecycle) {
  namespace capi = ::dmr::core::capi;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("damaris_capi_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto cfg_path = dir / "config.xml";
  {
    std::ofstream out(cfg_path);
    out << kConfigXml;
  }
  ASSERT_EQ(capi::df_setup(cfg_path.c_str(), 1, dir.c_str()), 0)
      << capi::df_last_error();
  ASSERT_EQ(capi::df_initialize(0), 0);

  std::vector<float> data(16 * 16 * 4, 1.5f);
  EXPECT_EQ(capi::df_write("temperature", 0, data.data()), 0)
      << capi::df_last_error();
  EXPECT_NE(capi::df_write("ghost", 0, data.data()), 0);
  EXPECT_EQ(capi::df_signal("analyze", 0), 0);

  void* p = capi::dc_alloc("wind", 0);
  ASSERT_NE(p, nullptr) << capi::df_last_error();
  std::memset(p, 0, 16 * 16 * 4 * 4);
  EXPECT_EQ(capi::dc_commit("wind", 0), 0);

  EXPECT_EQ(capi::df_end_iteration(0), 0);
  EXPECT_EQ(capi::df_finalize(), 0);
  EXPECT_EQ(capi::df_teardown(), 0);
  std::filesystem::remove_all(dir);
}

TEST(CApi, ErrorsWithoutSetup) {
  namespace capi = ::dmr::core::capi;
  EXPECT_NE(capi::df_write("x", 0, nullptr), 0);
  EXPECT_NE(capi::df_finalize(), 0);
  EXPECT_NE(capi::df_teardown(), 0);
  EXPECT_EQ(capi::dc_alloc("x", 0), nullptr);
  EXPECT_LT(capi::df_write_async("x", 0, nullptr), 0);
  EXPECT_NE(capi::df_wait(1), 0);
}

TEST(CApi, AsyncTickets) {
  namespace capi = ::dmr::core::capi;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("damaris_capi_async_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto cfg_path = dir / "config.xml";
  {
    std::ofstream out(cfg_path);
    out << kConfigXml;
  }
  ASSERT_EQ(capi::df_setup(cfg_path.c_str(), 1, dir.c_str()), 0)
      << capi::df_last_error();
  ASSERT_EQ(capi::df_initialize(0), 0);

  std::vector<float> data(16 * 16 * 4, 2.5f);
  const std::int64_t t1 = capi::df_write_async("temperature", 0, data.data());
  ASSERT_GT(t1, 0) << capi::df_last_error();
  const std::int64_t t2 = capi::df_write_async("temperature", 0, data.data());
  ASSERT_GT(t2, 0);
  EXPECT_NE(t1, t2);
  EXPECT_GE(capi::df_test(t1), 0);  // known handle: 0 or 1, not an error
  EXPECT_EQ(capi::df_wait(t1), 0) << capi::df_last_error();
  EXPECT_LT(capi::df_test(t1), 0);  // df_wait consumed the handle
  EXPECT_EQ(capi::df_wait_all(), 0);
  EXPECT_LT(capi::df_test(99999), 0);  // never issued
  // An unknown variable fails at submission: no ticket is issued.
  EXPECT_LT(capi::df_write_async("ghost", 0, data.data()), 0);

  EXPECT_EQ(capi::df_end_iteration(0), 0);
  EXPECT_EQ(capi::df_finalize(), 0);
  EXPECT_EQ(capi::df_teardown(), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dmr::core
