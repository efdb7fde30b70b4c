#include "sim/engine.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace cosched {

namespace {

EventId make_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(gen) << 32) | slot;
}

}  // namespace

EventId Engine::schedule_at(Time t, int priority, Handler fn) {
  COSCHED_CHECK(fn != nullptr);
  COSCHED_CHECK_MSG(t >= now_, "cannot schedule event in the past: t="
                                   << t << " now=" << now_);
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    COSCHED_CHECK_MSG(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                      "event slot space exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(Entry{t, priority, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++scheduled_;
  ++armed_;
  peak_pending_ = std::max(peak_pending_, armed_);
  return make_id(slot, s.gen);
}

bool Engine::cancel(EventId id) {
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.fn) return false;
  s.fn = nullptr;
  ++s.gen;  // the heap entry, now stale, is skipped as a tombstone
  free_.push_back(slot);
  ++dead_;
  --armed_;
  ++cancelled_;
  maybe_compact();
  return true;
}

void Engine::maybe_compact() {
  if (heap_.size() < kCompactMinHeap || dead_ * 2 <= heap_.size()) return;
  const auto live_end =
      std::remove_if(heap_.begin(), heap_.end(), [this](const Entry& e) {
        return slots_[e.slot].gen != e.gen;
      });
  const auto removed =
      static_cast<std::uint64_t>(std::distance(live_end, heap_.end()));
  heap_.erase(live_end, heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_ -= removed;
  tombstones_ += removed;
  ++compactions_;
}

const Engine::Entry* Engine::peek_live() {
  while (!heap_.empty()) {
    const Entry& e = heap_.front();
    if (slots_[e.slot].gen == e.gen) return &e;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --dead_;
    ++tombstones_;
  }
  return nullptr;
}

void Engine::exec_top() {
  const Entry e = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  Slot& s = slots_[e.slot];
  Handler fn = std::move(s.fn);
  s.fn = nullptr;
  ++s.gen;
  free_.push_back(e.slot);
  --armed_;
  now_ = e.time;
  ++executed_;
  fn();  // may schedule events and grow slots; no slot refs held past here
}

bool Engine::step() {
  if (peek_live() == nullptr) return false;
  exec_top();
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(Time t) {
  COSCHED_CHECK(t >= now_);
  for (const Entry* top = peek_live(); top != nullptr && top->time <= t;
       top = peek_live()) {
    exec_top();
  }
  now_ = t;
}

}  // namespace cosched
