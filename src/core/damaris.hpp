// The Damaris middleware (paper §III): dedicated-core asynchronous I/O
// for one multicore SMP node.
//
// A DamarisNode owns the shared buffer and one *server shard* per
// configured dedicated core (<dedicated cores="N"/>). Each shard has its
// own event queue, metadata system and persistency layer and serves a
// fixed group of clients — the paper's "symmetric" multi-dedicated-core
// semantics (§V-A): client c is served by shard c mod N. With the
// default N = 1 this degenerates to the single dedicated core used
// throughout the paper's evaluation.
//
// Compute cores obtain Client handles and call write()/signal() — a
// write is one copy into shared memory plus a notification push, which
// is why the simulation-visible write time collapses to memcpy speed
// (the paper's 0.2 s constant).
//
//   dmr::config::Config cfg = ...;                 // from XML
//   dmr::core::DamarisNode node(cfg, /*clients=*/3);
//   node.start();
//   auto c = node.client(0);
//   c.write("my_variable", step, data);            // df_write
//   c.signal("my_event", step);                    // df_signal
//   c.end_iteration(step);                         // triggers persistence
//   c.finalize();                                  // df_finalize
//   node.stop();
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "check/fault_checker.hpp"
#include "check/protocol_checker.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "config/config.hpp"
#include "core/async.hpp"
#include "core/metadata.hpp"
#include "core/persistency.hpp"
#include "core/plugin.hpp"
#include "fault/degrade.hpp"
#include "fault/fault.hpp"
#include "plugin/pipeline.hpp"
#include "plugin/registry.hpp"
#include "shm/event_queue.hpp"
#include "shm/shared_buffer.hpp"

namespace dmr::core {

struct NodeOptions {
  std::string output_dir = "damaris_out";
  std::string file_prefix = "damaris";
  int node_id = 0;
  /// Client-side blocking-allocation timeout: a write spins (yielding)
  /// until the server frees space or this much time has passed.
  std::chrono::milliseconds alloc_timeout{5000};
  /// Persist all blocks of an iteration once every client of the shard
  /// has called end_iteration() (the default "write" behaviour).
  bool persist_on_end_iteration = true;
  /// Attach a check::ProtocolChecker to the shared buffer and every
  /// shard queue: block-lifecycle violations (double release,
  /// write-after-publish, leaks, ...) are logged at stop() and counted
  /// in ServerStats::protocol_violations. Hooks only fire in DMR_CHECK
  /// builds; the checker itself costs one mutex per shm operation, so
  /// leave this off for benchmarks.
  bool protocol_check = false;

  /// Retry / degraded-mode policies. When set, overrides the
  /// configuration's <resilience> section; the defaults (retries
  /// disabled, no sync/drop fallbacks) reproduce the historical
  /// behaviour exactly.
  std::optional<fault::ResilienceConfig> resilience;

  /// Fault injector to drive this node (not owned; must outlive the
  /// node). When null, the node builds its own injector from the
  /// configuration's <fault> plan (none = fault-free).
  const fault::FaultInjector* injector = nullptr;

  /// End-to-end accounting checker (not owned; must outlive stop()).
  /// The node feeds it client write outcomes, supersessions and
  /// persistency results, and registers the shared buffer for the leak
  /// check.
  check::FaultChecker* fault_checker = nullptr;
};

/// Outcome of one completed iteration on a dedicated core.
struct IterationRecord {
  std::int64_t iteration = 0;
  int shard = 0;
  std::size_t blocks = 0;
  Bytes raw_bytes = 0;
  /// Wall time the dedicated core spent persisting this iteration.
  double write_seconds = 0.0;
  /// Wall time the in-situ plugin chain consumed before persist ran
  /// (0 when no plugins are configured — the plugin-less path).
  double plugin_seconds = 0.0;
  /// False when the persistency write still failed after all retries.
  bool persisted = true;
};

struct ServerStats {
  std::vector<IterationRecord> iterations;
  std::uint64_t messages_handled = 0;
  std::uint64_t events_handled = 0;
  /// Wall time the dedicated cores spent doing work (vs blocked idle),
  /// summed over shards.
  double busy_seconds = 0.0;
  double elapsed_seconds = 0.0;
  int shards = 1;
  /// Shm-protocol violations found by the checker (NodeOptions::
  /// protocol_check); populated at stop().
  std::uint64_t protocol_violations = 0;
  PersistencyStats persistency;

  /// Iterations whose persistency write failed after all retries, and
  /// the first such error (satellite of ISSUE 5: persist failures are
  /// propagated into the results instead of only logged).
  std::uint64_t failed_iterations = 0;
  Status first_error = Status::ok();
  /// Degraded-mode synchronous writes: files written by clients
  /// bypassing the dedicated core, and their raw payload bytes.
  std::uint64_t sync_files = 0;
  Bytes sync_bytes = 0;
  /// Injected dedicated-core crash/restart cycles.
  std::uint64_t crashes = 0;
  /// Degrade-controller transitions (pressure, escalations, recoveries).
  fault::DegradeStats degrade;

  /// Per-stage wall-clock counters of the node's write path: Ingest is
  /// the client-side shm handoff (allocate + memcpy + notify), Transform
  /// and Storage come from the persistency layer of every shard.
  iopath::PipelineStats stages;

  /// Fraction of time the dedicated cores were idle — the paper's
  /// "spare time" (75%–99% in §IV-C2).
  double spare_fraction() const {
    const double window = elapsed_seconds * shards;
    return window <= 0.0 ? 0.0 : 1.0 - busy_seconds / window;
  }
};

/// Per-client view of write-side costs (what the simulation perceives).
struct ClientStats {
  std::uint64_t writes = 0;
  Bytes bytes_written = 0;
  double write_seconds = 0.0;   // total time spent inside write()/commit()
  double max_write_seconds = 0.0;
  std::uint64_t alloc_stalls = 0;  // writes that had to wait for space
  /// Degraded-mode outcomes: writes that fell back to the synchronous
  /// path, and writes dropped with accounting (opt-in last resort).
  std::uint64_t sync_writes = 0;
  std::uint64_t dropped_writes = 0;
  Bytes dropped_bytes = 0;
};

class DamarisNode;

/// Lightweight client handle (one per compute core). Copyable; methods
/// are safe to call concurrently from different clients but each client
/// id must be driven by a single thread. On a handle whose id is outside
/// [0, num_clients), every call but stats() fails with invalid_argument
/// (the async calls return an already-failed ticket).
class Client {
 public:
  Client() = default;

  /// df_write: copies `data` into shared memory and notifies the server.
  /// The variable must be declared in the configuration; `data` must
  /// match its layout size. Runs on the calling thread, after this
  /// client's pending write_async() tickets completed.
  Status write(const std::string& variable, std::int64_t iteration,
               std::span<const std::byte> data);

  /// Variant for dynamically shaped arrays (paper: "arrays that don't
  /// have a static shape"): layout is taken from the config but the
  /// payload size is whatever the caller provides.
  Status write_sized(const std::string& variable, std::int64_t iteration,
                     std::span<const std::byte> data);

  /// Asynchronous df_write: copies `data` and returns a ticket
  /// immediately; the handoff to the dedicated core happens on this
  /// client's submission worker thread (started by the client's first
  /// async write), after every ticket in `opts.after` completed.
  /// Layout-checked like write(); a validation failure returns an
  /// already-failed ticket (never an invalid handle).
  WriteTicket write_async(const std::string& variable, std::int64_t iteration,
                          std::span<const std::byte> data,
                          AsyncWriteOptions opts = {});

  /// write_sized's asynchronous counterpart (no layout-size check).
  WriteTicket write_sized_async(const std::string& variable,
                                std::int64_t iteration,
                                std::span<const std::byte> data,
                                AsyncWriteOptions opts = {});

  /// dc_alloc: reserves the variable's block in shared memory and
  /// returns a writable view — the simulation computes in place and then
  /// calls commit(), avoiding the extra copy.
  Result<std::span<std::byte>> alloc(const std::string& variable,
                                     std::int64_t iteration);

  /// dc_commit: publishes a block previously obtained from alloc(), on
  /// the calling thread and after this client's pending async tickets.
  Status commit(const std::string& variable, std::int64_t iteration);

  /// df_signal: sends a user-defined event to this client's dedicated
  /// core. Events with scope="global" fire once all clients of the
  /// shard have signalled them.
  Status signal(const std::string& event, std::int64_t iteration);

  /// Declares this client done with `iteration`; when all clients of the
  /// shard have, the shard runs the end-of-iteration behaviour
  /// (persist + free). Fences this client's outstanding async tickets
  /// first, so an iteration never completes under its own writes.
  Status end_iteration(std::int64_t iteration);

  /// df_finalize for this client (fences outstanding async tickets).
  /// After the last client of a shard finalizes, that shard drains and
  /// exits.
  Status finalize();

  int id() const { return id_; }
  ClientStats stats() const;

 private:
  friend class DamarisNode;
  Client(DamarisNode* node, int id) : node_(node), id_(id) {}

  DamarisNode* node_ = nullptr;
  int id_ = -1;
};

class DamarisNode {
 public:
  /// The number of dedicated cores (server shards) comes from the
  /// configuration's <dedicated cores="N"/>.
  DamarisNode(config::Config cfg, int num_clients, NodeOptions opts = {});
  ~DamarisNode();

  DamarisNode(const DamarisNode&) = delete;
  DamarisNode& operator=(const DamarisNode&) = delete;

  /// Launches the dedicated-core thread(s). Must be called before
  /// clients write.
  Status start();

  /// Client handle for compute core `id` in [0, num_clients).
  Client client(int id);

  /// Waits for the servers to drain and exit (all clients must have
  /// finalized, otherwise stop() closes the queues and the servers exit
  /// after processing what was already queued).
  Status stop();

  /// Register custom actions before start().
  PluginRegistry& plugins() { return plugins_; }

  /// Factory table for the <plugins> in-situ chain (pre-seeded with the
  /// builtins). Register custom plugin types before start(); start()
  /// instantiates the configuration's chain from it.
  plugin::PluginRegistry& plugin_types() { return plugin_types_; }

  /// The running in-situ chain (nullptr when the configuration declares
  /// no plugins). Plugin instances are safe to inspect after stop().
  plugin::PluginPipeline* block_plugins() { return block_plugins_.get(); }

  /// Per-plugin wall-clock accounting (empty without plugins).
  std::vector<plugin::PluginStats> plugin_stats() const {
    return block_plugins_ ? block_plugins_->stats()
                          : std::vector<plugin::PluginStats>{};
  }

  /// Async write tickets submitted but not yet completed — the TASIO
  /// task-state view the monitor streams. Monotonic reads: completions
  /// is loaded first so the difference never goes negative.
  std::uint64_t outstanding_tickets() const {
    const std::uint64_t done =
        ticket_completions_.load(std::memory_order_acquire);
    const std::uint64_t submitted = ticket_seq_.load(std::memory_order_acquire);
    return submitted >= done ? submitted - done : 0;
  }

  /// Live degrade-FSM state (kNormal when resilience is unconfigured).
  fault::DegradeMode degrade_mode() const {
    return degrade_ ? degrade_->mode() : fault::DegradeMode::kNormal;
  }

  const config::Config& config() const { return cfg_; }
  int num_clients() const { return num_clients_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  shm::SharedBuffer& buffer() { return *buffer_; }

  ServerStats stats() const;
  ClientStats client_stats(int id) const;

  /// Analytics values published by builtin/stat plugins, keyed by
  /// "<variable>.<stat>" (e.g. "temperature.max").
  std::map<std::string, double> analytics() const;
  void publish_analytic(const std::string& key, double value);

  // --- steering (the "Inline Steering" of the Damaris acronym) ---

  /// Current value of a steerable parameter declared in the
  /// configuration (<parameter name=... value=.../>); nullopt when
  /// undeclared. Thread-safe; clients typically poll it each iteration.
  std::optional<std::string> parameter(const std::string& name) const;
  /// Typed reader: nullopt when undeclared or not parseable.
  std::optional<long long> parameter_int(const std::string& name) const;
  std::optional<double> parameter_double(const std::string& name) const;

  /// Updates a declared parameter (called by plugins or external
  /// steering tools); fails for undeclared names so typos surface.
  Status set_parameter(const std::string& name, const std::string& value);

  /// Injects a user event from *outside* any client — the paper's
  /// "events sent either by the simulation or by external tools". The
  /// action runs once (on shard 0) regardless of the event's scope.
  Status signal_external(const std::string& event, std::int64_t iteration);

 private:
  friend class Client;

  /// One dedicated core: queue + metadata + persistency + its loop
  /// state. All fields except `queue` are touched only by its thread.
  struct Shard {
    Shard(std::string output_dir, std::string prefix, int node_id,
          int shard_id, int num_shards);

    int id;
    int clients = 0;  // clients assigned to this shard
    shm::EventQueue queue;
    MetadataManager metadata;
    PersistencyLayer persistency;
    std::map<std::int64_t, int> end_counts;
    std::map<std::pair<std::uint32_t, std::int64_t>, int> event_counts;
    int finalized_clients = 0;
    std::thread thread;
  };

  int shard_of(int client) const {
    return client % static_cast<int>(shards_.size());
  }

  void server_main(Shard& shard);
  void handle_message(Shard& shard, const shm::Message& msg);
  void complete_iteration(Shard& shard, std::int64_t iteration);
  void run_event(Shard& shard, const config::EventDecl& decl,
                 std::int64_t iteration, int source);
  void register_builtin_actions();

  Result<shm::Block> blocking_allocate(Bytes size, int client);
  std::uint32_t name_id(const std::string& name) const;  // ~0u if unknown

  /// The one range check of every Client entry point: invalid_argument
  /// unless `client` is in [0, num_clients).
  Status check_client(int client) const;

  // --- the write path ---
  //
  // The blocking write()/write_sized()/commit() run on the caller's
  // thread: they fence the client's pending async tickets
  // (drain_async), then call timed_write(). write_async() queues an
  // AsyncSubmission for the client's FIFO worker thread, spawned by the
  // client's first async write, which calls the same timed_write() for
  // each ticket.

  /// One write_async() submission; it owns a copy of the payload.
  struct AsyncSubmission {
    detail::TicketStatePtr state;
    std::uint32_t name_id = 0;
    std::int64_t iteration = 0;
    std::vector<std::byte> payload;
    std::vector<detail::TicketStatePtr> deps;
    WriteCallback on_complete;
  };

  /// One submission worker per client that wrote asynchronously: a FIFO
  /// queue drained by a dedicated thread, so submission order is
  /// execution order and a single client's async timeline is
  /// deterministic.
  struct AsyncWorker {
    Mutex mutex;
    CondVar cv;
    std::deque<AsyncSubmission> queue DMR_GUARDED_BY(mutex);
    bool in_flight DMR_GUARDED_BY(mutex) = false;
    bool stopping DMR_GUARDED_BY(mutex) = false;
    std::thread thread;
  };

  /// Copies `data` into a submission on `client`'s worker and returns
  /// its ticket.
  WriteTicket submit(int client, std::uint32_t name_id, std::int64_t iteration,
                     std::span<const std::byte> data, AsyncWriteOptions opts);
  /// A ticket born completed (validation failures); runs `cb` inline.
  WriteTicket failed_ticket(const Status& status, const WriteCallback& cb);
  /// Sets the final Status/outcome, runs `cb`, then marks `state` done.
  void complete_ticket(const detail::TicketStatePtr& state,
                       const Status& status, WriteOutcome outcome,
                       const WriteCallback& cb);
  AsyncWorker* async_worker(int client);
  void async_worker_main(int client, AsyncWorker& worker);
  /// Blocks until `client`'s submission queue is empty and idle (the
  /// fence of the blocking calls, end_iteration() and finalize()).
  void drain_async(int client);
  /// Drains every worker, then joins and discards the threads (stop()
  /// and the destructor; a later write_async() respawns lazily).
  void stop_async_workers();

  /// The write body shared by the blocking calls and the async worker:
  /// copies `data` in through client_write(), or, when `staged` is set,
  /// publishes that dc_alloc block; a success is timed into ClientStats.
  Status timed_write(int client, std::uint32_t name_id, std::int64_t iteration,
                     std::span<const std::byte> data, const shm::Block* staged,
                     WriteOutcome* outcome);
  /// Reserves a block, copies `data` in and notifies the dedicated core,
  /// or routes through the degrade ladder; `outcome` reports how the
  /// ladder resolved (published / sync / dropped / failed).
  Status client_write(int client, std::uint32_t name_id,
                      std::int64_t iteration, std::span<const std::byte> data,
                      WriteOutcome* outcome);
  /// Notifies the dedicated core of a filled block. False when the queue
  /// is closed; the block is then released.
  bool publish(int client, std::uint32_t name_id, std::int64_t iteration,
               shm::Block block);
  /// Fallback after `cause` blocked the normal path, applying `mode`.
  Status degraded_write(int client, std::uint32_t name_id,
                        std::int64_t iteration,
                        std::span<const std::byte> data, fault::DegradeMode mode,
                        const Status& cause, WriteOutcome* outcome);
  /// Synchronous passthrough: the client writes its own standalone DH5
  /// file, bypassing the dedicated core (paper §III "write
  /// synchronously" option).
  Status sync_write(int client, std::uint32_t name_id,
                    std::int64_t iteration, std::span<const std::byte> data);
  /// Injected dedicated-core crash/restart at an iteration boundary.
  void maybe_crash(Shard& shard, std::int64_t iteration);
  /// Injected queue close at an iteration boundary (server gone).
  void maybe_close_queue(Shard& shard, std::int64_t iteration);
  std::chrono::milliseconds block_timeout() const;

  config::Config cfg_;
  int num_clients_;
  NodeOptions opts_;

  std::unique_ptr<shm::SharedBuffer> buffer_;
  std::vector<std::unique_ptr<Shard>> shards_;
  PluginRegistry plugins_;

  /// In-situ analytics (DESIGN.md §15): the factory table callers may
  /// extend before start(), and the chain built from the <plugins>
  /// section. The pipeline serializes itself; shard threads call into
  /// it from complete_iteration().
  plugin::PluginRegistry plugin_types_ = plugin::PluginRegistry::with_builtins();
  std::unique_ptr<plugin::PluginPipeline> block_plugins_;

  /// Resolved resilience policy (NodeOptions override or config).
  fault::ResilienceConfig resilience_;
  /// Injector built from the config's <fault> plan when NodeOptions
  /// does not provide one.
  std::unique_ptr<fault::FaultInjector> owned_injector_;
  const fault::FaultInjector* injector_ = nullptr;
  std::unique_ptr<fault::DegradeController> degrade_;
  std::atomic<std::uint64_t> sync_seq_{0};  // sync-write file names

  std::vector<std::string> names_;            // id -> name
  std::map<std::string, std::uint32_t> ids_;  // name -> id

  /// Atomic: start() / stop() may be driven from a different thread
  /// than the destructor's final stop() (found by the -Wthread-safety
  /// rollout; previously a plain bool).
  std::atomic<bool> started_{false};

  // pending dc_alloc blocks: (client, name_id, iteration) -> block
  Mutex pending_mutex_;
  std::map<std::tuple<int, std::uint32_t, std::int64_t>, shm::Block>
      pending_allocs_ DMR_GUARDED_BY(pending_mutex_);

  mutable Mutex stats_mutex_;
  ServerStats server_stats_ DMR_GUARDED_BY(stats_mutex_);
  std::vector<ClientStats> client_stats_ DMR_GUARDED_BY(stats_mutex_);
  std::map<std::string, double> analytics_ DMR_GUARDED_BY(stats_mutex_);
  std::chrono::steady_clock::time_point start_time_;

  mutable Mutex params_mutex_;
  std::map<std::string, std::string> parameters_ DMR_GUARDED_BY(params_mutex_);

  /// Per-client submission workers, spawned by a client's first
  /// write_async(); the vector's slots are guarded, each worker
  /// synchronizes itself.
  Mutex async_mutex_;
  std::vector<std::unique_ptr<AsyncWorker>> async_workers_
      DMR_GUARDED_BY(async_mutex_);
  std::atomic<std::uint64_t> ticket_seq_{0};
  std::atomic<std::uint64_t> ticket_completions_{0};

  // Last member: its destructor detaches from buffer_ and the shard
  // queues, which must still be alive.
  std::unique_ptr<check::ProtocolChecker> checker_;
};

}  // namespace dmr::core
