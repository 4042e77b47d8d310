#include "core/async.hpp"

#include "core/damaris.hpp"

namespace dmr::core {

bool WriteTicket::done() const {
  if (!state_) return false;
  if (state_->is_done()) return true;
  state_->owner->pump(state_->client, /*wait=*/false, state_.get());
  return state_->is_done();
}

Status WriteTicket::wait() const {
  if (!state_) return failed_precondition("wait() on an invalid ticket");
  if (!state_->is_done()) {
    state_->owner->pump(state_->client, /*wait=*/true, state_.get());
  }
  MutexLock lock(state_->mutex);
  while (!state_->done) state_->cv.wait(state_->mutex);
  return state_->status;
}

Status WriteTicket::status() const {
  if (!state_) return failed_precondition("status() on an invalid ticket");
  MutexLock lock(state_->mutex);
  return state_->status;
}

WriteOutcome WriteTicket::outcome() const {
  if (!state_) return WriteOutcome::kPending;
  MutexLock lock(state_->mutex);
  return state_->outcome;
}

std::uint64_t WriteTicket::completion_seq() const {
  if (!state_) return 0;
  MutexLock lock(state_->mutex);
  return state_->completion_seq;
}

bool WriteBatch::all_done() const {
  for (const WriteTicket& t : tickets_) {
    if (!t.done()) return false;
  }
  return true;
}

Status WriteBatch::wait_all() const {
  Status first = Status::ok();
  for (const WriteTicket& t : tickets_) {
    const Status st = t.wait();
    if (first.is_ok() && !st.is_ok()) first = st;
  }
  return first;
}

}  // namespace dmr::core
