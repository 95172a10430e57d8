#include "obs/trace_ring.hpp"

namespace paracosm::obs {

TraceRegistry& TraceRegistry::instance() {
  static TraceRegistry registry;
  return registry;
}

thread_local TraceRegistry::Entry* TraceRegistry::t_entry_ = nullptr;
thread_local std::string TraceRegistry::t_name_;

TraceRegistry::Entry* TraceRegistry::entry_for_this_thread() {
  // Steady-state path: one TLS load.
  if (t_entry_ != nullptr) return t_entry_;
  const std::lock_guard<std::mutex> lock(m_);
  auto entry = std::make_unique<Entry>();
  entry->tid = static_cast<std::uint32_t>(entries_.size());
  entry->ring = std::make_unique<TraceRing>(ring_capacity_);
  entry->name = t_name_;
  t_entry_ = entry.get();
  entries_.push_back(std::move(entry));
  return t_entry_;
}

TraceRing& TraceRegistry::ring() { return *entry_for_this_thread()->ring; }

void TraceRegistry::set_thread_name(const std::string& name) {
  t_name_ = name;
  if (t_entry_ == nullptr) return;  // applied when the ring registers
  const std::lock_guard<std::mutex> lock(instance().m_);
  t_entry_->name = name;
}

void TraceRegistry::set_ring_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(m_);
  ring_capacity_ = capacity;
}

std::vector<RingSnapshot> TraceRegistry::collect() const {
  const std::lock_guard<std::mutex> lock(m_);
  std::vector<RingSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    RingSnapshot snap;
    snap.tid = entry->tid;
    snap.name = entry->name;
    entry->ring->snapshot(snap.events);
    snap.pushed = entry->ring->pushed();
    snap.dropped = entry->ring->dropped();
    out.push_back(std::move(snap));
  }
  return out;
}

void TraceRegistry::clear() {
  const std::lock_guard<std::mutex> lock(m_);
  for (const auto& entry : entries_) entry->ring->clear();
}

}  // namespace paracosm::obs
