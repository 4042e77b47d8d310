#include "core/damaris.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/log.hpp"
#include "trace/tracer.hpp"

namespace dmr::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

shm::AllocPolicy policy_from(const config::Config& cfg) {
  return cfg.buffer_policy() == "partitioned"
             ? shm::AllocPolicy::kPartitioned
             : shm::AllocPolicy::kMutexFirstFit;
}

/// Fault-category instant on the node's lane (no-op when untraced).
void trace_fault(int node_id, const char* name, std::int64_t iteration) {
  if (trace::Tracer* tr = trace::current();
      tr != nullptr && tr->enabled(trace::Category::kFault)) {
    tr->record_instant({trace::EntityType::kNode,
                        static_cast<std::uint32_t>(node_id)},
                       trace::Category::kFault, name, tr->wall_now(), 0,
                       static_cast<std::int32_t>(iteration));
  }
}

}  // namespace

DamarisNode::Shard::Shard(std::string output_dir, std::string prefix,
                          int node_id, int shard_id, int num_shards)
    : id(shard_id),
      persistency(std::move(output_dir),
                  num_shards > 1 ? prefix + "_s" + std::to_string(shard_id)
                                 : std::move(prefix),
                  node_id) {}

DamarisNode::DamarisNode(config::Config cfg, int num_clients,
                         NodeOptions opts)
    : cfg_(std::move(cfg)),
      num_clients_(num_clients),
      opts_(std::move(opts)),
      buffer_(std::make_unique<shm::SharedBuffer>(
          cfg_.buffer_size(), policy_from(cfg_), num_clients)),
      client_stats_(num_clients),
      async_workers_(static_cast<std::size_t>(std::max(num_clients, 0))) {
  // One server shard per configured dedicated core; never more shards
  // than clients.
  const int shards =
      std::clamp(cfg_.dedicated_cores(), 1, std::max(1, num_clients_));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        opts_.output_dir, opts_.file_prefix, opts_.node_id, s, shards));
  }
  for (int c = 0; c < num_clients_; ++c) {
    ++shards_[shard_of(c)]->clients;
  }

  // Intern all configured variable and event names.
  for (const auto& [name, var] : cfg_.variables()) {
    ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
    names_.push_back(name);
  }
  for (const auto& [name, ev] : cfg_.events()) {
    if (ids_.count(name)) continue;
    ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
    names_.push_back(name);
  }
  // Reserved internal event driving iteration completion.
  ids_.emplace("..end_iteration", static_cast<std::uint32_t>(names_.size()));
  names_.push_back("..end_iteration");
  // Steerable parameters start at their configured values.
  for (const auto& [name, decl] : cfg_.parameters()) {
    parameters_.emplace(name, decl.value);
  }
  register_builtin_actions();
  server_stats_.shards = shards;

  // Resilience policy: explicit NodeOptions override wins, else the
  // configuration's <resilience> section (defaults reproduce the
  // historical behaviour: no retries, no fallbacks).
  resilience_ = opts_.resilience ? *opts_.resilience : cfg_.resilience();
  // Fault injector: explicit NodeOptions override wins, else build one
  // from the configuration's <fault> plan (none = fault-free).
  if (opts_.injector != nullptr) {
    injector_ = opts_.injector;
  } else if (!cfg_.fault_plan().empty()) {
    owned_injector_ = std::make_unique<fault::FaultInjector>(cfg_.fault_plan());
    injector_ = owned_injector_.get();
  }
  buffer_->set_fault_injector(injector_);
  degrade_ = std::make_unique<fault::DegradeController>(resilience_.degrade,
                                                        opts_.node_id);
  for (auto& shard : shards_) {
    shard->persistency.set_resilience(resilience_.retry);
    shard->persistency.set_fault_injector(injector_);
  }
  if (opts_.fault_checker != nullptr) opts_.fault_checker->watch(*buffer_);

  if (opts_.protocol_check) {
    checker_ = std::make_unique<check::ProtocolChecker>();
    checker_->observe(*buffer_);
    for (auto& shard : shards_) checker_->observe(shard->queue);
  }
}

DamarisNode::~DamarisNode() {
  // Submission workers exist independently of started_ and hold
  // references into the buffer and queues: retire them first.
  stop_async_workers();
  if (started_.load(std::memory_order_acquire)) {
    for (auto& shard : shards_) shard->queue.close();
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) shard->thread.join();
    }
  }
}

std::uint32_t DamarisNode::name_id(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? ~0u : it->second;
}

Status DamarisNode::start() {
  if (started_.load(std::memory_order_acquire))
    return failed_precondition("node already started");
  // Instantiate the <plugins> in-situ chain before any shard thread
  // exists: a bad declaration (unknown type) fails start() instead of
  // surfacing mid-run. Rebuilt on every start so a restarted node gets
  // fresh accounting.
  if (!cfg_.plugins().empty()) {
    auto pipeline = plugin::build_pipeline(cfg_.plugins(), plugin_types_);
    if (!pipeline.is_ok()) return pipeline.status();
    block_plugins_ = std::move(pipeline).value();
  } else {
    block_plugins_.reset();
  }
  started_.store(true, std::memory_order_release);
  start_time_ = Clock::now();
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s] { server_main(*s); });
  }
  return Status::ok();
}

Client DamarisNode::client(int id) { return Client(this, id); }

Status DamarisNode::stop() {
  if (!started_.load(std::memory_order_acquire))
    return failed_precondition("node not started");
  // Drain queued async submissions while the servers can still consume
  // them, then close the shard queues.
  stop_async_workers();
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  started_.store(false, std::memory_order_release);
  if (checker_) {
    const auto violations = checker_->finalize();
    for (const auto& v : violations) {
      DMR_LOG(kError, "damaris") << "shm protocol: " << v.to_string();
    }
    MutexLock lock(stats_mutex_);
    server_stats_.protocol_violations = violations.size();
  }
  return Status::ok();
}

ServerStats DamarisNode::stats() const {
  MutexLock lock(stats_mutex_);
  ServerStats s = server_stats_;
  for (const auto& shard : shards_) {
    // PersistencyStats are only mutated by the shard's (now idle or
    // joined) thread; summing here is fine for monitoring purposes.
    const auto& p = shard->persistency.stats();
    s.persistency.files_written += p.files_written;
    s.persistency.datasets_written += p.datasets_written;
    s.persistency.raw_bytes += p.raw_bytes;
    s.persistency.stored_bytes += p.stored_bytes;
    s.persistency.retries += p.retries;
    s.persistency.failed_writes += p.failed_writes;
    s.stages.merge(shard->persistency.stage_stats());
  }
  s.degrade = degrade_->stats();
  // Ingest is what the clients paid to hand their data over.
  for (const ClientStats& c : client_stats_) {
    iopath::StageCounters& ingest = s.stages.of(iopath::StageKind::kIngest);
    ingest.ops += c.writes;
    ingest.seconds += c.write_seconds;
    ingest.max_seconds = std::max(ingest.max_seconds, c.max_write_seconds);
    ingest.bytes_in += c.bytes_written;
    ingest.bytes_out += c.bytes_written;
  }
  return s;
}

ClientStats DamarisNode::client_stats(int id) const {
  MutexLock lock(stats_mutex_);
  return client_stats_.at(id);
}

std::map<std::string, double> DamarisNode::analytics() const {
  MutexLock lock(stats_mutex_);
  return analytics_;
}

void DamarisNode::publish_analytic(const std::string& key, double value) {
  MutexLock lock(stats_mutex_);
  analytics_[key] = value;
}

std::optional<std::string> DamarisNode::parameter(
    const std::string& name) const {
  MutexLock lock(params_mutex_);
  auto it = parameters_.find(name);
  if (it == parameters_.end()) return std::nullopt;
  return it->second;
}

std::optional<long long> DamarisNode::parameter_int(
    const std::string& name) const {
  auto v = parameter(name);
  if (!v) return std::nullopt;
  char* end = nullptr;
  const long long out = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') return std::nullopt;
  return out;
}

std::optional<double> DamarisNode::parameter_double(
    const std::string& name) const {
  auto v = parameter(name);
  if (!v) return std::nullopt;
  char* end = nullptr;
  const double out = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') return std::nullopt;
  return out;
}

Status DamarisNode::set_parameter(const std::string& name,
                                  const std::string& value) {
  MutexLock lock(params_mutex_);
  auto it = parameters_.find(name);
  if (it == parameters_.end()) {
    return not_found("parameter '" + name + "' not declared");
  }
  it->second = value;
  return Status::ok();
}

Status DamarisNode::signal_external(const std::string& event,
                                    std::int64_t iteration) {
  const std::uint32_t id = name_id(event);
  if (id == ~0u || !cfg_.find_event(event)) {
    return not_found("event '" + event + "' not configured");
  }
  shm::Message msg;
  msg.type = shm::MessageType::kUserEvent;
  msg.client_id = -1;  // external tool, not a client
  msg.iteration = iteration;
  msg.name_id = id;
  if (!shards_[0]->queue.push(msg)) {
    return resource_busy("event '" + event +
                         "' dropped: server queue already closed");
  }
  return Status::ok();
}

// ---------------------------------------------------------------- server

void DamarisNode::server_main(Shard& shard) {
  while (auto msg = shard.queue.pop()) {
    const auto t0 = Clock::now();
    handle_message(shard, *msg);
    const double dt = seconds_since(t0);
    MutexLock lock(stats_mutex_);
    server_stats_.busy_seconds += dt;
    ++server_stats_.messages_handled;
    server_stats_.elapsed_seconds = seconds_since(start_time_);
  }
  // Queue closed: flush anything still pending (e.g. a run that never
  // called end_iteration on its last step).
  for (std::int64_t it : shard.metadata.pending_iterations()) {
    complete_iteration(shard, it);
  }
  MutexLock lock(stats_mutex_);
  server_stats_.elapsed_seconds = seconds_since(start_time_);
}

void DamarisNode::handle_message(Shard& shard, const shm::Message& msg) {
  switch (msg.type) {
    case shm::MessageType::kWriteNotification: {
      VariableBlock block;
      block.variable = names_.at(msg.name_id);
      block.iteration = msg.iteration;
      block.source = msg.client_id;
      block.block = msg.block;
      block.size = msg.block.size;
      if (const format::Layout* l = cfg_.layout_of(block.variable)) {
        block.layout = *l;
      }
      if (auto replaced = shard.metadata.add(std::move(block))) {
        buffer_->deallocate(replaced->block);
        if (opts_.fault_checker != nullptr) {
          opts_.fault_checker->note_superseded(replaced->iteration);
        }
      }
      break;
    }
    case shm::MessageType::kUserEvent: {
      const std::string& name = names_.at(msg.name_id);
      // The reserved "..end_iteration" event drives iteration completion.
      if (name == "..end_iteration") {
        if (++shard.end_counts[msg.iteration] == shard.clients) {
          shard.end_counts.erase(msg.iteration);
          maybe_crash(shard, msg.iteration);
          complete_iteration(shard, msg.iteration);
          maybe_close_queue(shard, msg.iteration);
        }
        break;
      }
      const config::EventDecl* decl = cfg_.find_event(name);
      if (!decl) {
        DMR_LOG(kWarn, "damaris") << "unknown event '" << name << "'";
        break;
      }
      if (msg.client_id < 0) {
        // External steering tools bypass the scope counting: their
        // event runs once, immediately.
        run_event(shard, *decl, msg.iteration, /*source=*/-1);
      } else if (decl->scope == "global") {
        // Fires once all clients of this shard have signalled (the
        // shard *is* the symmetric group, §V-A).
        auto key = std::make_pair(msg.name_id, msg.iteration);
        if (++shard.event_counts[key] == shard.clients) {
          shard.event_counts.erase(key);
          run_event(shard, *decl, msg.iteration, /*source=*/-1);
        }
      } else {
        run_event(shard, *decl, msg.iteration, msg.client_id);
      }
      break;
    }
    case shm::MessageType::kClientFinalize: {
      if (++shard.finalized_clients == shard.clients) {
        shard.queue.close();
      }
      break;
    }
  }
}

void DamarisNode::run_event(Shard& shard, const config::EventDecl& decl,
                            std::int64_t iteration, int source) {
  const PluginFn* fn = plugins_.find(decl.action);
  if (!fn) {
    DMR_LOG(kWarn, "damaris")
        << "event '" << decl.name << "': unknown action '" << decl.action
        << "'";
    return;
  }
  EventContext ctx{*this,     shard.metadata, *buffer_, decl.name,
                   iteration, source,         shard.id};
  (*fn)(ctx);
  MutexLock lock(stats_mutex_);
  ++server_stats_.events_handled;
}

void DamarisNode::complete_iteration(Shard& shard, std::int64_t iteration) {
  std::vector<VariableBlock> blocks = shard.metadata.take_iteration(iteration);
  if (blocks.empty()) return;

  IterationRecord rec;
  rec.iteration = iteration;
  rec.shard = shard.id;
  rec.blocks = blocks.size();
  for (const auto& b : blocks) rec.raw_bytes += b.size;

  // The in-situ window (DESIGN.md §15): every block of the iteration is
  // published and still in shared memory, persist has not started —
  // plugins read the complete data here, on the dedicated core, while
  // the clients already compute the next iteration. A zero-plugin
  // configuration takes the exact historical path (no views built, no
  // pipeline call), which is what the byte-identical parity test pins.
  if (block_plugins_ != nullptr && !block_plugins_->empty()) {
    std::vector<plugin::BlockView> views;
    views.reserve(blocks.size());
    for (const auto& b : blocks) {
      plugin::BlockView v;
      v.variable = b.variable;
      v.iteration = b.iteration;
      v.source = b.source;
      v.layout = &b.layout;
      v.data = std::span<const std::byte>(buffer_->data(b.block),
                                          static_cast<std::size_t>(b.size));
      views.push_back(v);
    }
    plugin::PluginContext ctx;
    ctx.shard = shard.id;
    ctx.publish = [this](const std::string& key, double value) {
      publish_analytic(key, value);
    };
    const auto p0 = Clock::now();
    Status plugin_status =
        block_plugins_->run_iteration(iteration, views, ctx);
    rec.plugin_seconds = seconds_since(p0);
    if (!plugin_status.is_ok()) {
      // Already counted + logged per plugin by the pipeline; the
      // iteration proceeds regardless (a broken plugin must never fail
      // a persist).
      DMR_LOG(kWarn, "damaris")
          << "plugin chain reported an error on iteration " << iteration
          << ": " << plugin_status.to_string();
    }
  }

  const auto t0 = Clock::now();
  Status persist_status = Status::ok();
  if (opts_.persist_on_end_iteration) {
    const std::uint64_t retries_before = shard.persistency.stats().retries;
    persist_status =
        shard.persistency.write_blocks(iteration, blocks, *buffer_, cfg_);
    if (!persist_status.is_ok()) {
      DMR_LOG(kError, "damaris")
          << "persist failed for iteration " << iteration << ": "
          << persist_status.to_string();
    }
    if (opts_.fault_checker != nullptr) {
      const std::uint64_t retried =
          shard.persistency.stats().retries - retries_before;
      for (std::uint64_t i = 0; i < retried; ++i) {
        opts_.fault_checker->note_retry();
      }
      opts_.fault_checker->note_persist(shard.id, iteration,
                                        static_cast<int>(blocks.size()),
                                        persist_status);
    }
  }
  rec.write_seconds = seconds_since(t0);
  rec.persisted = persist_status.is_ok();

  for (const auto& b : blocks) buffer_->deallocate(b.block);

  MutexLock lock(stats_mutex_);
  if (!persist_status.is_ok()) {
    ++server_stats_.failed_iterations;
    if (server_stats_.first_error.is_ok()) {
      server_stats_.first_error = persist_status;
    }
  }
  server_stats_.iterations.push_back(rec);
}

void DamarisNode::maybe_crash(Shard& shard, std::int64_t iteration) {
  if (injector_ == nullptr ||
      !injector_->fires(fault::Site::kCoreCrash,
                        static_cast<double>(iteration),
                        fault::mix_key(static_cast<std::uint64_t>(shard.id),
                                       static_cast<std::uint64_t>(iteration)))) {
    return;
  }
  double stall = injector_->stall_of(fault::Site::kCoreCrash);
  if (stall <= 0.0) stall = 0.005;
  DMR_LOG(kWarn, "damaris") << "injected crash of shard " << shard.id
                            << " at iteration " << iteration << " ("
                            << stall << " s restart)";
  degrade_->on_server_down();
  const double t0 = [] {
    if (trace::Tracer* tr = trace::current()) return tr->wall_now();
    return 0.0;
  }();
  std::this_thread::sleep_for(std::chrono::duration<double>(stall));
  degrade_->on_server_up();
  if (trace::Tracer* tr = trace::current();
      tr != nullptr && tr->enabled(trace::Category::kFault)) {
    tr->record_span({trace::EntityType::kNode,
                     static_cast<std::uint32_t>(opts_.node_id)},
                    trace::Category::kFault, "core-restart", t0,
                    tr->wall_now() - t0, 0,
                    static_cast<std::int32_t>(iteration));
  }
  MutexLock lock(stats_mutex_);
  ++server_stats_.crashes;
}

void DamarisNode::maybe_close_queue(Shard& shard, std::int64_t iteration) {
  if (injector_ == nullptr ||
      !injector_->fires(fault::Site::kShmQueueClose,
                        static_cast<double>(iteration),
                        fault::mix_key(static_cast<std::uint64_t>(shard.id),
                                       static_cast<std::uint64_t>(iteration)))) {
    return;
  }
  DMR_LOG(kWarn, "damaris") << "injected queue close of shard " << shard.id
                            << " after iteration " << iteration;
  trace_fault(opts_.node_id, "queue-close", iteration);
  shard.queue.close();
}

void DamarisNode::register_builtin_actions() {
  // "write": persist the signalled iteration immediately (on the shard
  // that received the event).
  plugins_.register_action("write", [this](EventContext& ctx) {
    complete_iteration(*shards_[ctx.shard], ctx.iteration);
  });
  // "stats": publish min/max/mean of every float32 block of the
  // iteration (a representative inline-analytics plugin).
  plugins_.register_action("stats", [this](EventContext& ctx) {
    for (const VariableBlock* b : ctx.metadata.blocks_of(ctx.iteration)) {
      if (b->layout.type != format::DataType::kFloat32) continue;
      const std::size_t n = b->size / sizeof(float);
      if (n == 0) continue;
      const float* vals =
          reinterpret_cast<const float*>(buffer_->data(b->block));
      float lo = vals[0], hi = vals[0];
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        lo = std::min(lo, vals[i]);
        hi = std::max(hi, vals[i]);
        sum += vals[i];
      }
      publish_analytic(b->variable + ".min", lo);
      publish_analytic(b->variable + ".max", hi);
      publish_analytic(b->variable + ".mean", sum / static_cast<double>(n));
    }
  });
}

// ---------------------------------------------------------------- client

std::chrono::milliseconds DamarisNode::block_timeout() const {
  return resilience_.degrade.block_timeout_ms >= 0
             ? std::chrono::milliseconds(resilience_.degrade.block_timeout_ms)
             : opts_.alloc_timeout;
}

Result<shm::Block> DamarisNode::blocking_allocate(Bytes size, int client) {
  const auto deadline = Clock::now() + block_timeout();
  bool stalled = false;
  for (;;) {
    auto r = buffer_->allocate(size, client);
    if (r.is_ok()) {
      if (stalled) {
        MutexLock lock(stats_mutex_);
        ++client_stats_[client].alloc_stalls;
      }
      return r;
    }
    if (r.status().code() != ErrorCode::kOutOfMemory) return r;
    if (Clock::now() >= deadline) {
      return out_of_memory("allocation timed out after waiting for server");
    }
    stalled = true;
    std::this_thread::yield();
  }
}

Status DamarisNode::check_client(int client) const {
  if (client < 0 || client >= num_clients_) {
    return invalid_argument("client id " + std::to_string(client) +
                            " out of range [0, " +
                            std::to_string(num_clients_) + ")");
  }
  return Status::ok();
}

Status Client::write(const std::string& variable, std::int64_t iteration,
                     std::span<const std::byte> data) {
  const format::Layout* layout = node_->cfg_.layout_of(variable);
  if (!layout) return not_found("variable '" + variable + "' not configured");
  if (data.size() != layout->byte_size()) {
    return invalid_argument("variable '" + variable + "': payload is " +
                            std::to_string(data.size()) + " bytes, layout " +
                            std::to_string(layout->byte_size()));
  }
  return write_sized(variable, iteration, data);
}

Status Client::write_sized(const std::string& variable,
                           std::int64_t iteration,
                           std::span<const std::byte> data) {
  if (Status st = node_->check_client(id_); !st.is_ok()) return st;
  const std::uint32_t id = node_->name_id(variable);
  if (id == ~0u) return not_found("variable '" + variable + "' unknown");
  // Ordered after this client's pending async tickets, then run here.
  node_->drain_async(id_);
  WriteOutcome outcome = WriteOutcome::kPending;
  return node_->timed_write(id_, id, iteration, data, nullptr, &outcome);
}

WriteTicket Client::write_async(const std::string& variable,
                                std::int64_t iteration,
                                std::span<const std::byte> data,
                                AsyncWriteOptions opts) {
  const format::Layout* layout = node_->cfg_.layout_of(variable);
  if (!layout) {
    return node_->failed_ticket(
        not_found("variable '" + variable + "' not configured"),
        opts.on_complete);
  }
  if (data.size() != layout->byte_size()) {
    return node_->failed_ticket(
        invalid_argument("variable '" + variable + "': payload is " +
                         std::to_string(data.size()) + " bytes, layout " +
                         std::to_string(layout->byte_size())),
        opts.on_complete);
  }
  return write_sized_async(variable, iteration, data, std::move(opts));
}

WriteTicket Client::write_sized_async(const std::string& variable,
                                      std::int64_t iteration,
                                      std::span<const std::byte> data,
                                      AsyncWriteOptions opts) {
  if (Status st = node_->check_client(id_); !st.is_ok()) {
    return node_->failed_ticket(st, opts.on_complete);
  }
  const std::uint32_t id = node_->name_id(variable);
  if (id == ~0u) {
    return node_->failed_ticket(not_found("variable '" + variable + "' unknown"),
                                opts.on_complete);
  }
  return node_->submit(id_, id, iteration, data, std::move(opts));
}

// ------------------------------------------------- async submission path

WriteTicket DamarisNode::failed_ticket(const Status& status,
                                       const WriteCallback& cb) {
  auto state = std::make_shared<detail::TicketState>(
      ticket_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  complete_ticket(state, status, WriteOutcome::kFailed, cb);
  return WriteTicket(std::move(state));
}

void DamarisNode::complete_ticket(const detail::TicketStatePtr& state,
                                  const Status& status, WriteOutcome outcome,
                                  const WriteCallback& cb) {
  // Ordering contract (core/async.hpp): publish Status/outcome, run the
  // callback, and only then flip done — wait() returning implies the
  // callback finished.
  const std::uint64_t seq =
      ticket_completions_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    MutexLock lock(state->mutex);
    state->status = status;
    state->outcome = outcome;
    state->completion_seq = seq;
  }
  if (cb) cb(WriteTicket(state));
  {
    MutexLock lock(state->mutex);
    state->done = true;
  }
  state->cv.notify_all();
}

WriteTicket DamarisNode::submit(int client, std::uint32_t name_id,
                                std::int64_t iteration,
                                std::span<const std::byte> data,
                                AsyncWriteOptions opts) {
  auto state = std::make_shared<detail::TicketState>(
      ticket_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  AsyncSubmission sub;
  sub.state = state;
  sub.name_id = name_id;
  sub.iteration = iteration;
  sub.payload.assign(data.begin(), data.end());
  sub.deps.reserve(opts.after.size());
  for (const WriteTicket& dep : opts.after) {
    if (dep.state_ != nullptr) sub.deps.push_back(dep.state_);
  }
  sub.on_complete = std::move(opts.on_complete);
  AsyncWorker* worker = async_worker(client);
  {
    MutexLock lock(worker->mutex);
    worker->queue.push_back(std::move(sub));
  }
  worker->cv.notify_all();
  return WriteTicket(std::move(state));
}

DamarisNode::AsyncWorker* DamarisNode::async_worker(int client) {
  MutexLock lock(async_mutex_);
  auto& slot = async_workers_[static_cast<std::size_t>(client)];
  if (!slot) {
    slot = std::make_unique<AsyncWorker>();
    AsyncWorker* w = slot.get();
    w->thread = std::thread([this, client, w] { async_worker_main(client, *w); });
  }
  return slot.get();
}

void DamarisNode::async_worker_main(int client, AsyncWorker& worker) {
  for (;;) {
    AsyncSubmission sub;
    {
      MutexLock lock(worker.mutex);
      while (worker.queue.empty() && !worker.stopping) {
        worker.cv.wait(worker.mutex);
      }
      if (worker.queue.empty()) return;  // stopping and fully drained
      sub = std::move(worker.queue.front());
      worker.queue.pop_front();
      worker.in_flight = true;
    }
    // Honour dependences before touching shared memory. Cycles are
    // impossible (a ticket only depends on already-created tickets).
    for (const detail::TicketStatePtr& dep : sub.deps) {
      MutexLock lock(dep->mutex);
      while (!dep->done) dep->cv.wait(dep->mutex);
    }
    WriteOutcome outcome = WriteOutcome::kFailed;
    const Status st = timed_write(client, sub.name_id, sub.iteration,
                                  sub.payload, nullptr, &outcome);
    complete_ticket(sub.state, st, outcome, sub.on_complete);
    {
      MutexLock lock(worker.mutex);
      worker.in_flight = false;
    }
    worker.cv.notify_all();  // wake drain_async() fences
  }
}

void DamarisNode::drain_async(int client) {
  AsyncWorker* worker = nullptr;
  {
    MutexLock lock(async_mutex_);
    worker = async_workers_[static_cast<std::size_t>(client)].get();
  }
  if (worker == nullptr) return;
  MutexLock lock(worker->mutex);
  while (!worker->queue.empty() || worker->in_flight) {
    worker->cv.wait(worker->mutex);
  }
}

void DamarisNode::stop_async_workers() {
  std::vector<std::unique_ptr<AsyncWorker>> retired;
  {
    MutexLock lock(async_mutex_);
    for (auto& slot : async_workers_) {
      if (slot) retired.push_back(std::move(slot));
    }
  }
  for (auto& worker : retired) {
    {
      MutexLock lock(worker->mutex);
      worker->stopping = true;
    }
    worker->cv.notify_all();
    if (worker->thread.joinable()) worker->thread.join();
  }
}

// ------------------------------------------------------- the write path

Status DamarisNode::timed_write(int client, std::uint32_t name_id,
                                std::int64_t iteration,
                                std::span<const std::byte> data,
                                const shm::Block* staged,
                                WriteOutcome* outcome) {
  const auto t0 = Clock::now();
  Status st;
  if (staged == nullptr) {
    st = client_write(client, name_id, iteration, data, outcome);
  } else if (publish(client, name_id, iteration, *staged)) {
    *outcome = WriteOutcome::kPublished;
  } else {
    *outcome = WriteOutcome::kFailed;
    st = resource_busy("commit of '" + names_.at(name_id) +
                       "' dropped: server queue already closed");
  }
  const double dt = seconds_since(t0);
  if (st.is_ok()) {
    MutexLock lock(stats_mutex_);
    ClientStats& cs = client_stats_[client];
    ++cs.writes;
    cs.bytes_written += staged != nullptr ? staged->size : data.size();
    cs.write_seconds += dt;
    cs.max_write_seconds = std::max(cs.max_write_seconds, dt);
  }
  return st;
}

Status DamarisNode::client_write(int client, std::uint32_t name_id,
                                 std::int64_t iteration,
                                 std::span<const std::byte> data,
                                 WriteOutcome* outcome) {
  // Three ways to come back without a block, all funnelled through the
  // degrade controller: an injected exhaustion window, a real
  // exhaustion (timeout), or — in an already-degraded mode — a single
  // failed probe (no blocking wait: a degraded client must not stall the
  // simulation).
  Result<shm::Block> block = [&]() -> Result<shm::Block> {
    if (injector_ != nullptr &&
        injector_->fires_window(fault::Site::kShmExhaust,
                                static_cast<double>(iteration))) {
      return out_of_memory("injected shm exhaustion window at iteration " +
                           std::to_string(iteration));
    }
    if (degrade_->mode() != fault::DegradeMode::kNormal) {
      return buffer_->allocate(data.size(), client);
    }
    return blocking_allocate(data.size(), client);
  }();
  if (!block.is_ok()) {
    if (block.status().code() != ErrorCode::kOutOfMemory) {
      *outcome = WriteOutcome::kFailed;
      return block.status();
    }
    return degraded_write(client, name_id, iteration, data,
                          degrade_->on_pressure(), block.status(), outcome);
  }
  std::memcpy(buffer_->data(block.value()), data.data(), data.size());
  if (publish(client, name_id, iteration, block.value())) {
    degrade_->on_clear();
    if (opts_.fault_checker != nullptr) {
      opts_.fault_checker->note_write(client, iteration,
                                      check::WriteOutcome::kPublished);
    }
    *outcome = WriteOutcome::kPublished;
    return Status::ok();
  }
  const Status cause =
      resource_busy("write of '" + names_.at(name_id) +
                    "' dropped: server queue already closed");
  return degraded_write(client, name_id, iteration, data,
                        degrade_->on_pressure(), cause, outcome);
}

bool DamarisNode::publish(int client, std::uint32_t name_id,
                          std::int64_t iteration, shm::Block block) {
  // The client's last touch of the payload (a memcpy or, for dc_commit,
  // an in-place write).
  buffer_->note_write(block);
  shm::Message msg;
  msg.type = shm::MessageType::kWriteNotification;
  msg.client_id = client;
  msg.iteration = iteration;
  msg.name_id = name_id;
  msg.block = block;
  if (shards_[shard_of(client)]->queue.push(msg)) return true;
  // Dropped: the server is shutting down and will never consume this
  // block, so the pusher must release it or it leaks until shutdown.
  buffer_->deallocate(block);
  return false;
}

Status DamarisNode::degraded_write(int client, std::uint32_t name_id,
                                   std::int64_t iteration,
                                   std::span<const std::byte> data,
                                   fault::DegradeMode mode,
                                   const Status& cause, WriteOutcome* outcome) {
  const auto drop = [&]() -> Status {
    trace_fault(opts_.node_id, "write-dropped", iteration);
    if (opts_.fault_checker != nullptr) {
      opts_.fault_checker->note_write(client, iteration,
                                      check::WriteOutcome::kDropped);
    }
    *outcome = WriteOutcome::kDropped;
    MutexLock lock(stats_mutex_);
    ++client_stats_[client].dropped_writes;
    client_stats_[client].dropped_bytes += data.size();
    return Status::ok();
  };

  if (mode == fault::DegradeMode::kDrop && resilience_.degrade.allow_drop) {
    return drop();
  }
  if (resilience_.degrade.allow_sync) {
    Status st = sync_write(client, name_id, iteration, data);
    if (st.is_ok()) {
      if (opts_.fault_checker != nullptr) {
        opts_.fault_checker->note_write(client, iteration,
                                        check::WriteOutcome::kSyncWritten);
      }
      *outcome = WriteOutcome::kSyncFallback;
      MutexLock lock(stats_mutex_);
      ++client_stats_[client].sync_writes;
      return Status::ok();
    }
    if (resilience_.degrade.allow_drop) return drop();
    *outcome = WriteOutcome::kFailed;
    return st;
  }
  if (resilience_.degrade.allow_drop) return drop();
  // No fallback allowed: the historical behaviour — surface the cause.
  if (opts_.fault_checker != nullptr) {
    opts_.fault_checker->note_write(client, iteration,
                                    check::WriteOutcome::kFailed);
  }
  *outcome = WriteOutcome::kFailed;
  return cause;
}

Status DamarisNode::sync_write(int client, std::uint32_t name_id,
                               std::int64_t iteration,
                               std::span<const std::byte> data) {
  const std::string& variable = names_.at(name_id);
  std::error_code ec;
  std::filesystem::create_directories(opts_.output_dir, ec);
  if (ec) return io_error("cannot create " + opts_.output_dir);

  // One standalone file per degraded write — the per-process small-file
  // pattern the dedicated core normally avoids (that cost is the point).
  const std::uint64_t seq =
      sync_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::string path =
      opts_.output_dir + "/" + opts_.file_prefix + "_node" +
      std::to_string(opts_.node_id) + "_sync_c" + std::to_string(client) +
      "_it" + std::to_string(iteration) + "_" + std::to_string(seq) + ".dh5";
  auto writer = format::Dh5Writer::create(path);
  if (!writer.is_ok()) return writer.status();

  format::DatasetInfo info;
  info.name = variable;
  info.iteration = iteration;
  info.source = client;
  if (const format::Layout* l = cfg_.layout_of(variable)) info.layout = *l;

  Status st = writer.value().add_dataset(
      info, data, compression_model_for(cfg_, variable).codec_pipeline());
  if (!st.is_ok()) return st;
  st = writer.value().finalize();
  if (!st.is_ok()) return st;

  trace_fault(opts_.node_id, "sync-write", iteration);
  MutexLock lock(stats_mutex_);
  ++server_stats_.sync_files;
  server_stats_.sync_bytes += data.size();
  return Status::ok();
}

Result<std::span<std::byte>> Client::alloc(const std::string& variable,
                                           std::int64_t iteration) {
  if (Status st = node_->check_client(id_); !st.is_ok()) return st;
  const format::Layout* layout = node_->cfg_.layout_of(variable);
  if (!layout) return not_found("variable '" + variable + "' not configured");
  const std::uint32_t id = node_->name_id(variable);
  auto block = node_->blocking_allocate(layout->byte_size(), id_);
  if (!block.is_ok()) return block.status();
  {
    MutexLock lock(node_->pending_mutex_);
    node_->pending_allocs_[{id_, id, iteration}] = block.value();
  }
  return std::span<std::byte>(node_->buffer_->data(block.value()),
                              block.value().size);
}

Status Client::commit(const std::string& variable, std::int64_t iteration) {
  if (Status st = node_->check_client(id_); !st.is_ok()) return st;
  const std::uint32_t id = node_->name_id(variable);
  if (id == ~0u) return not_found("variable '" + variable + "' unknown");
  shm::Block block;
  {
    MutexLock lock(node_->pending_mutex_);
    auto it = node_->pending_allocs_.find({id_, id, iteration});
    if (it == node_->pending_allocs_.end()) {
      return failed_precondition("no pending alloc for '" + variable + "'");
    }
    block = it->second;
    node_->pending_allocs_.erase(it);
  }
  // Ordered after this client's pending async tickets, like write_sized.
  node_->drain_async(id_);
  WriteOutcome outcome = WriteOutcome::kPending;
  return node_->timed_write(id_, id, iteration, {}, &block, &outcome);
}

Status Client::signal(const std::string& event, std::int64_t iteration) {
  if (Status st = node_->check_client(id_); !st.is_ok()) return st;
  const std::uint32_t id = node_->name_id(event);
  if (id == ~0u) return not_found("event '" + event + "' unknown");
  if (!node_->cfg_.find_event(event)) {
    return not_found("event '" + event + "' not configured");
  }
  shm::Message msg;
  msg.type = shm::MessageType::kUserEvent;
  msg.client_id = id_;
  msg.iteration = iteration;
  msg.name_id = id;
  if (!node_->shards_[node_->shard_of(id_)]->queue.push(msg)) {
    return resource_busy("signal '" + event +
                         "' dropped: server queue already closed");
  }
  return Status::ok();
}

Status Client::end_iteration(std::int64_t iteration) {
  if (Status st = node_->check_client(id_); !st.is_ok()) return st;
  // Fence: an iteration must not complete under this client's pending
  // async writes (preserves the blocking API's ordering guarantees).
  node_->drain_async(id_);
  shm::Message msg;
  msg.type = shm::MessageType::kUserEvent;
  msg.client_id = id_;
  msg.iteration = iteration;
  msg.name_id = node_->name_id("..end_iteration");
  if (!node_->shards_[node_->shard_of(id_)]->queue.push(msg)) {
    return resource_busy("end_iteration dropped: server queue already closed");
  }
  return Status::ok();
}

Status Client::finalize() {
  if (Status st = node_->check_client(id_); !st.is_ok()) return st;
  node_->drain_async(id_);
  shm::Message msg;
  msg.type = shm::MessageType::kClientFinalize;
  msg.client_id = id_;
  // A drop means the queue is already closed — the server is gone,
  // which is the state finalize exists to reach.
  (void)node_->shards_[node_->shard_of(id_)]->queue.push(msg);
  return Status::ok();
}

ClientStats Client::stats() const { return node_->client_stats(id_); }

}  // namespace dmr::core
