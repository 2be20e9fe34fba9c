#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

#include "util/logging.h"

namespace bass::net {

namespace {

// Colocated (same-node) transfers bypass the mesh entirely.
constexpr Bps kLoopbackBps = gbps(10);
constexpr sim::Duration kLoopbackLatency = sim::micros(100);

// Drain time in whole microseconds for `bytes` at `rate_bps`, rounded up.
sim::Duration drain_micros(double bytes, double rate_bps) {
  if (rate_bps <= 0.0) return -1;  // stalled
  const double us = bytes * 8.0 * 1e6 / rate_bps;
  return static_cast<sim::Duration>(std::ceil(us));
}

// Bytes moved in `dt` microseconds at `rate_bps`.
double bytes_in(sim::Duration dt, double rate_bps) {
  return rate_bps * static_cast<double>(dt) / 8e6;
}

}  // namespace

Network::Network(sim::Simulation& sim, Topology topology, NetworkConfig config)
    : sim_(&sim),
      topology_(std::move(topology)),
      routing_(topology_, config.routing),
      config_(config),
      link_entities_(static_cast<std::size_t>(topology_.link_count())),
      link_visit_(static_cast<std::size_t>(topology_.link_count()), 0),
      capacities_(static_cast<std::size_t>(topology_.link_count()), 0.0),
      link_allocated_(static_cast<std::size_t>(topology_.link_count()), 0.0),
      nominal_capacity_(static_cast<std::size_t>(topology_.link_count()), 0),
      link_down_(static_cast<std::size_t>(topology_.link_count()), 0) {
  for (int l = 0; l < topology_.link_count(); ++l) {
    capacities_[static_cast<std::size_t>(l)] =
        static_cast<double>(topology_.link(l).capacity);
    nominal_capacity_[static_cast<std::size_t>(l)] = topology_.link(l).capacity;
  }
  // Routing is fixed for the Network's lifetime, so the longest routed path
  // bounds every entity path forever — it strides the flat entity pool.
  stride_ = std::max<std::size_t>(1, static_cast<std::size_t>(routing_.max_hops()));
}

Network::BatchUpdate::BatchUpdate(Network& net) : net_(net) { ++net_.batch_depth_; }

Network::BatchUpdate::~BatchUpdate() {
  if (--net_.batch_depth_ == 0 && net_.batch_dirty_) {
    net_.batch_dirty_ = false;
    net_.reallocate();
  }
}

void Network::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder == nullptr) {
    m_reallocations_ = nullptr;
    m_shortcuts_ = nullptr;
    m_full_reallocations_ = nullptr;
    m_flows_touched_ = nullptr;
    m_links_touched_ = nullptr;
    m_alloc_pass_us_ = nullptr;
    m_solve_us_ = nullptr;
    return;
  }
  auto& metrics = recorder->metrics();
  m_reallocations_ = &metrics.counter("net.reallocations");
  m_shortcuts_ = nullptr;  // registered by the first shortcut
  m_full_reallocations_ = &metrics.counter("net.full_reallocations");
  m_flows_touched_ = &metrics.counter("net.flows_touched");
  m_links_touched_ = &metrics.counter("net.links_touched");
  m_alloc_pass_us_ = &metrics.log_timer_us("net.alloc_pass_us");
  m_solve_us_ = nullptr;  // registered by the first timed solve
}

void Network::apply_capacity(LinkId link, Bps capacity) {
  if (topology_.link(link).capacity == capacity) return;
  if (recorder_ != nullptr) {
    obs::LinkCapacityChanged changed;
    changed.at = sim_->now();
    changed.link = link;
    changed.old_bps = topology_.link(link).capacity;
    changed.new_bps = std::max<Bps>(capacity, 0);
    // Attribute to whatever scope is driving the change (a fault action, a
    // trace tick has none); capacity changes are effects, never causes.
    changed.parent = recorder_->current_span();
    recorder_->record(changed);
  }
  // No settling here: flows whose rate the change can affect are settled at
  // their pre-change rates inside reallocate(), which runs at this same
  // instant (or at batch close, still within the same event).
  topology_.set_capacity(link, std::max<Bps>(capacity, 0));
  capacities_[static_cast<std::size_t>(link)] =
      static_cast<double>(topology_.link(link).capacity);
  dirty_links_.push_back(link);
  if (batch_depth_ > 0) {
    batch_dirty_ = true;
  } else {
    reallocate();
  }
}

void Network::set_link_capacity(LinkId link, Bps capacity) {
  nominal_capacity_[static_cast<std::size_t>(link)] = std::max<Bps>(capacity, 0);
  if (link_is_down(link)) return;  // remembered; applied on link_up
  apply_capacity(link, capacity);
}

void Network::set_link_capacity_between(NodeId a, NodeId b, Bps capacity) {
  BatchUpdate batch(*this);
  if (auto ab = topology_.link_between(a, b)) {
    set_link_capacity(*ab, capacity);
    set_link_capacity(Topology::reverse(*ab), capacity);
  }
}

void Network::set_link_down(LinkId link, bool down) {
  if (link_is_down(link) == down) return;
  link_down_[static_cast<std::size_t>(link)] = down ? 1 : 0;
  apply_capacity(link, down ? 0 : nominal_capacity_[static_cast<std::size_t>(link)]);
}

void Network::set_link_down_between(NodeId a, NodeId b, bool down) {
  BatchUpdate batch(*this);
  if (auto ab = topology_.link_between(a, b)) {
    set_link_down(*ab, down);
    set_link_down(Topology::reverse(*ab), down);
  }
}

Bps Network::link_allocated(LinkId link) const {
  return static_cast<Bps>(link_allocated_.at(static_cast<std::size_t>(link)));
}

Network::Channel& Network::channel_for(NodeId src, NodeId dst) {
  const std::int64_t key = channel_key(src, dst);
  auto [it, inserted] = channels_.try_emplace(key);
  if (inserted) {
    it->second.src = src;
    it->second.dst = dst;
    it->second.last_update = sim_->now();
  }
  return it->second;
}

int Network::add_entity(double demand, NodeId src, NodeId dst, Channel* ch,
                        std::uint32_t stream) {
  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int>(entities_.size());
    entities_.emplace_back();
    entity_visit_.push_back(0);
    link_pos_pool_.resize(entities_.size() * 2 * stride_);
  }
  Entity& e = entities_[static_cast<std::size_t>(slot)];
  e.demand = demand;
  e.channel = ch;
  e.stream = stream;
  e.active = true;
  LinkId* path = entity_block(slot);
  e.hops = static_cast<std::uint32_t>(routing_.copy_path(src, dst, {path, stride_}));
  std::int32_t* pos = link_pos(slot);
  for (std::uint32_t i = 0; i < e.hops; ++i) {
    auto& occupants = link_entities_[static_cast<std::size_t>(path[i])];
    pos[i] = static_cast<std::int32_t>(occupants.size());
    occupants.push_back({slot, i});
  }
  ++active_entity_count_;
  if (ch != nullptr) ++active_channel_entities_;
  // A new contender changes its component's shares, unless it has none.
  if (!shift_in_place(slot, 0.0, demand)) {
    dirty_entities_.push_back(slot);
    reallocate();
  }
  return slot;
}

void Network::remove_entity(int slot) {
  Entity& e = entities_[static_cast<std::size_t>(slot)];
  assert(e.active);
  const bool in_place = shift_in_place(slot, e.demand, 0.0);
  const LinkId* path = entity_block(slot);
  const std::int32_t* my_pos = link_pos(slot);
  for (std::uint32_t i = 0; i < e.hops; ++i) {
    const LinkId l = path[i];
    auto& occupants = link_entities_[static_cast<std::size_t>(l)];
    const auto pos = static_cast<std::size_t>(my_pos[i]);
    occupants[pos] = occupants.back();
    const LinkRef moved = occupants[pos];
    link_pos(moved.slot)[moved.path_idx] = static_cast<std::int32_t>(pos);
    occupants.pop_back();
    // The vacated capacity may redistribute to whatever shared this link.
    if (!in_place) dirty_links_.push_back(l);
  }
  --active_entity_count_;
  if (e.channel != nullptr) --active_channel_entities_;
  e.active = false;
  e.channel = nullptr;
  e.stream = kNoSlot;
  e.hops = 0;
  free_slots_.push_back(slot);
  if (!in_place) reallocate();
}

TransferId Network::start_transfer(NodeId src, NodeId dst, std::int64_t bytes,
                                   TransferCallback done) {
  assert(bytes >= 0);
  if (src == dst) {
    // Colocated components talk over loopback; no mesh involvement. An
    // empty callback still takes its event, so event order is the same
    // whether or not the caller listens.
    const sim::Duration dt =
        kLoopbackLatency +
        std::max<sim::Duration>(drain_micros(static_cast<double>(bytes),
                                             static_cast<double>(kLoopbackBps)),
                                0);
    account_bytes(static_cast<double>(bytes));
    sim_->schedule_after(dt, done ? std::move(done) : TransferCallback([] {}));
    return kInvalidTransfer;
  }

  assert(routing_.reachable(src, dst) && "transfer between partitioned nodes");
  Channel& ch = channel_for(src, dst);
  std::uint32_t slot = transfer_free_;
  if (slot != kNoSlot) {
    transfer_free_ = transfers_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(transfers_.size());
    transfers_.emplace_back();
  }
  Transfer& t = transfers_[slot];
  t.bytes_remaining = static_cast<double>(bytes);
  t.done = std::move(done);
  t.channel = &ch;
  t.next = kNoSlot;
  const TransferId id = (static_cast<TransferId>(t.generation) << 32) | slot;

  if (!ch.idle()) {
    // The channel was already backlogged; rates are unchanged.
    transfers_[ch.tail].next = slot;
    ch.tail = slot;
    return id;
  }
  ch.head = ch.tail = slot;
  // Fresh contender: nothing to settle (it moved no bytes while idle), but
  // the stale idle-period rate must not leak into settlement.
  ch.rate_bps = 0.0;
  ch.last_update = sim_->now();
  ch.entity_slot = add_entity(static_cast<double>(kUnlimitedRate), src, dst, &ch, kNoSlot);
  return id;
}

void Network::release_transfer(std::uint32_t slot) {
  Transfer& t = transfers_[slot];
  Channel& ch = *t.channel;
  std::uint32_t prev = kNoSlot;
  for (std::uint32_t i = ch.head; i != slot; i = transfers_[i].next) prev = i;
  if (prev == kNoSlot) {
    ch.head = t.next;
  } else {
    transfers_[prev].next = t.next;
  }
  if (ch.tail == slot) ch.tail = prev;
  t.done = nullptr;
  t.channel = nullptr;
  if (++t.generation == 0) return;  // retired: its ids must never repeat
  t.next = transfer_free_;
  transfer_free_ = slot;
}

bool Network::cancel_transfer(TransferId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= transfers_.size()) return false;
  const Transfer& t = transfers_[slot];
  if (t.channel == nullptr || t.generation != static_cast<std::uint32_t>(id >> 32)) {
    return false;
  }
  Channel& ch = *t.channel;
  const bool was_head = ch.head == slot;
  if (was_head) settle_channel(ch);
  release_transfer(slot);
  if (was_head) {
    sim_->cancel(ch.head_event);
    if (ch.idle()) {
      deactivate_channel(ch);
    } else {
      schedule_head_event(ch);
    }
  }
  return true;
}

Network::Stream* Network::find_stream(StreamId id) {
  const std::uint32_t slot = stream_slot_of(id);
  if (slot >= stream_slots_.size()) return nullptr;
  StreamSlot& s = stream_slots_[slot];
  if (!s.open || s.generation != static_cast<std::uint32_t>(id >> 32)) return nullptr;
  return &s.stream;
}

const Network::Stream* Network::find_stream(StreamId id) const {
  return const_cast<Network*>(this)->find_stream(id);
}

StreamId Network::open_stream(NodeId src, NodeId dst, Bps demand) {
  std::uint32_t slot;
  if (!stream_free_.empty()) {
    slot = stream_free_.back();
    stream_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(stream_slots_.size());
    stream_slots_.emplace_back();
  }
  StreamSlot& placed_slot = stream_slots_[slot];
  placed_slot.open = true;
  ++open_streams_;
  const StreamId id =
      (static_cast<StreamId>(placed_slot.generation) << 32) | slot;
  Stream& placed = placed_slot.stream;
  placed = Stream{};  // reset a reused slot (Stream owns no heap state)
  placed.src = src;
  placed.dst = dst;
  placed.demand = std::max<Bps>(demand, 0);
  placed.last_update = sim_->now();
  if (src == dst) {
    // Loopback streams always run at full demand.
    placed.rate_bps = static_cast<double>(placed.demand);
    return id;
  }
  assert(routing_.reachable(src, dst) && "stream between partitioned nodes");
  if (placed.demand > 0) {
    placed.entity_slot =
        add_entity(static_cast<double>(placed.demand), src, dst, nullptr, slot);
  }
  return id;
}

void Network::set_stream_demand(StreamId id, Bps demand) {
  Stream* stp = find_stream(id);
  if (stp == nullptr) return;  // stale handle: no-op by contract
  Stream& st = *stp;
  demand = std::max<Bps>(demand, 0);
  if (st.demand == demand) return;
  if (st.src == st.dst) {
    settle_stream(st);  // progress accounting at the old rate first
    st.demand = demand;
    st.rate_bps = static_cast<double>(demand);
    return;
  }
  st.demand = demand;
  if (st.entity_slot < 0) {  // its first demand: the stream joins the mesh
    st.entity_slot = add_entity(static_cast<double>(demand), st.src, st.dst, nullptr,
                                stream_slot_of(id));
  } else if (demand == 0) {  // it leaves the mesh: close out the old rate
    settle_stream(st);
    remove_entity(st.entity_slot);
    st.entity_slot = -1;
    st.rate_bps = 0.0;
  } else {
    Entity& e = entities_[static_cast<std::size_t>(st.entity_slot)];
    const double from = e.demand;
    e.demand = static_cast<double>(demand);
    if (!shift_in_place(st.entity_slot, from, e.demand)) {
      dirty_entities_.push_back(st.entity_slot);
      reallocate();
    }
  }
}

std::int64_t Network::close_stream(StreamId id) {
  Stream* stp = find_stream(id);
  if (stp == nullptr) return 0;  // stale or double close: safe no-op
  Stream& st = *stp;
  settle_stream(st);
  const auto delivered = static_cast<std::int64_t>(st.bytes_delivered);
  if (st.entity_slot >= 0) {
    remove_entity(st.entity_slot);
    st.entity_slot = -1;
  }
  StreamSlot& s = stream_slots_[stream_slot_of(id)];
  s.open = false;
  ++s.generation;  // outstanding copies of `id` are stale from here on
  stream_free_.push_back(stream_slot_of(id));
  --open_streams_;
  return delivered;
}

void Network::count_shortcut() {
  ++alloc_stats_.shortcuts;
  if (recorder_ == nullptr) return;
  if (m_shortcuts_ == nullptr) {
    m_shortcuts_ = &recorder_->metrics().counter("net.alloc_shortcuts");
  }
  m_shortcuts_->inc();
}

bool Network::can_skip_pass() const {
  // Proportional shares depend on offered load, not on slack; a dirty seed
  // (an earlier change in this batch) means the allocation is not settled,
  // so the change joins that seed's pass; a change inside a span journals
  // its pass.
  return config_.fairness == FairnessPolicy::kMaxMin && dirty_links_.empty() &&
         dirty_entities_.empty() &&
         (recorder_ == nullptr || recorder_->current_span() == obs::kNoSpan);
}

bool Network::alone_on_path(int slot) const {
  for (LinkId l : entity_path(slot)) {
    if (link_entities_[static_cast<std::size_t>(l)].size() != 1) return false;
  }
  return true;
}

// A stream's shift is exact by the max-min bottleneck argument. It runs at
// its demand, and every link of its path keeps slack under the larger of
// its old and new load, so none of those links is or becomes anyone's
// bottleneck: a flow below its demand is held at a saturated link, and no
// saturated link changes load. Every other rate stands, and the stream
// runs at its new demand. A channel's demand is unlimited, so it saturates
// its bottleneck: it opens in place only when no other flow crosses its
// path, at the rate the pass would give a lone flow, and goes idle in place
// while that still holds, leaving its links carrying nothing.
bool Network::shift_in_place(int slot, double from, double to) {
  if (!can_skip_pass()) return false;
  const Entity& e = entities_[static_cast<std::size_t>(slot)];
  const std::span<const LinkId> path = entity_path(slot);
  if (e.channel != nullptr) {
    if (!alone_on_path(slot)) return false;
    const double rate = to > 0.0 ? MaxMinSolver::lone_rate(capacities_, {e.demand, path}) : 0.0;
    for (LinkId l : path) link_allocated_[static_cast<std::size_t>(l)] = rate;
    if (to > 0.0) {
      e.channel->rate_bps = rate;
      schedule_head_event(*e.channel);
    }
  } else {
    Stream& st = stream_slots_[e.stream].stream;
    if (st.rate_bps != from) return false;  // held below its demand
    const double rise = std::max(to - from, 0.0);
    for (LinkId l : path) {
      const auto li = static_cast<std::size_t>(l);
      if (capacities_[li] - link_allocated_[li] - rise <= kShortcutSlackBps) return false;
    }
    settle_stream(st);  // bytes so far moved at the old rate
    for (LinkId l : path) link_allocated_[static_cast<std::size_t>(l)] += to - from;
    st.rate_bps = to;
  }
  count_shortcut();
  return true;
}

void Network::deactivate_channel(Channel& ch) {
  remove_entity(ch.entity_slot);
  ch.entity_slot = -1;
}

std::int64_t Network::stream_bytes(StreamId id) const {
  const Stream* st = find_stream(id);
  if (st == nullptr) return 0;
  return static_cast<std::int64_t>(st->bytes_delivered +
                                   bytes_in(sim_->now() - st->last_update, st->rate_bps));
}

Bps Network::stream_rate(StreamId id) const {
  const Stream* st = find_stream(id);
  if (st == nullptr) return 0;
  return static_cast<Bps>(st->rate_bps);
}

void Network::account_bytes(double bytes) {
  total_bytes_delivered_ += static_cast<std::int64_t>(bytes);
}

void Network::settle_channel(Channel& ch) {
  const sim::Time now = sim_->now();
  const sim::Duration dt = now - ch.last_update;
  ch.last_update = now;
  if (dt <= 0 || ch.idle() || ch.rate_bps <= 0.0) return;
  double moved = bytes_in(dt, ch.rate_bps);
  Transfer& head = transfers_[ch.head];
  // Rounding of the completion event can make `moved` overshoot slightly.
  moved = std::min(moved, head.bytes_remaining);
  head.bytes_remaining -= moved;
  account_bytes(moved);
}

void Network::settle_stream(Stream& st) {
  const sim::Time now = sim_->now();
  const sim::Duration dt = now - st.last_update;
  st.last_update = now;
  if (dt <= 0 || st.rate_bps <= 0.0) return;
  const double moved = bytes_in(dt, st.rate_bps);
  st.bytes_delivered += moved;
  account_bytes(moved);
}

void Network::collect_component(std::span<const LinkId> seed_links,
                                const std::vector<int>& seed_entities) {
  ++visit_stamp_;
  if (visit_stamp_ == 0) {  // wrapped: invalidate every stale stamp
    std::fill(link_visit_.begin(), link_visit_.end(), 0u);
    std::fill(entity_visit_.begin(), entity_visit_.end(), 0u);
    visit_stamp_ = 1;
  }
  entity_visit_.resize(entities_.size(), 0);
  comp_entities_.clear();
  comp_links_.clear();

  auto visit_link = [this](LinkId l) {
    const auto li = static_cast<std::size_t>(l);
    if (link_visit_[li] == visit_stamp_) return;
    link_visit_[li] = visit_stamp_;
    comp_links_.push_back(l);
  };
  auto visit_entity = [this](int slot) {
    const auto si = static_cast<std::size_t>(slot);
    if (entity_visit_[si] == visit_stamp_) return;
    entity_visit_[si] = visit_stamp_;
    // Dirty seeds may name freed slots (e.g. opened and closed within one
    // batch); the links such an entity crossed are dirtied at removal.
    if (entities_[si].active) comp_entities_.push_back(slot);
  };

  for (LinkId l : seed_links) visit_link(l);
  for (int slot : seed_entities) {
    visit_entity(slot);
    if (entities_[static_cast<std::size_t>(slot)].active) {
      for (LinkId l : entity_path(slot)) visit_link(l);
    }
  }
  // comp_links_ doubles as the BFS frontier: every link appended past
  // `head` still needs its occupants expanded.
  for (std::size_t head = 0; head < comp_links_.size(); ++head) {
    const auto li = static_cast<std::size_t>(comp_links_[head]);
    for (const LinkRef& ref : link_entities_[li]) {
      const auto si = static_cast<std::size_t>(ref.slot);
      if (entity_visit_[si] == visit_stamp_) continue;
      entity_visit_[si] = visit_stamp_;
      comp_entities_.push_back(ref.slot);
      for (LinkId l : entity_path(ref.slot)) visit_link(l);
    }
  }
}

void Network::reallocate() {
  if (batch_depth_ > 0) {
    batch_dirty_ = true;
    return;
  }
  using Clock = std::chrono::steady_clock;
  // Pass 1, 1 + kTimedPassEvery, ... is timed: chosen by count, so
  // same-seed runs time the same passes.
  ++alloc_stats_.reallocations;
  const bool timed = alloc_stats_.reallocations % kTimedPassEvery == 1;
  const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};

  collect_component(dirty_links_, dirty_entities_);
  dirty_links_.clear();
  dirty_entities_.clear();

  // Links leaving/entering contention are re-derived from scratch below;
  // untouched links keep their standing allocations (their flows' rates
  // are provably unchanged).
  for (LinkId l : comp_links_) link_allocated_[static_cast<std::size_t>(l)] = 0.0;

  const auto touched = static_cast<std::int64_t>(comp_entities_.size());
  alloc_stats_.flows_touched += touched;
  alloc_stats_.links_touched += static_cast<std::int64_t>(comp_links_.size());
  alloc_stats_.last_flows_touched = touched;
  alloc_stats_.last_links_touched = static_cast<std::int64_t>(comp_links_.size());
  alloc_stats_.max_component_flows = std::max(alloc_stats_.max_component_flows, touched);
  if (touched == active_entity_count_ && touched > 0) ++alloc_stats_.full_reallocations;

  if (!comp_entities_.empty()) {
    // Settle at pre-change rates before repricing; flows outside the
    // component keep their rates, so their accounting stays linear and can
    // settle lazily.
    refs_.clear();
    refs_.reserve(comp_entities_.size());
    for (int slot : comp_entities_) {
      Entity& e = entities_[static_cast<std::size_t>(slot)];
      if (e.channel != nullptr) {
        settle_channel(*e.channel);
      } else {
        settle_stream(stream_slots_[e.stream].stream);
      }
      refs_.push_back({e.demand, entity_path(slot)});
    }

    const std::vector<double>* rates;
    std::vector<double> proportional;
    if (config_.fairness == FairnessPolicy::kProportional) {
      proportional = proportional_allocate_refs(capacities_, refs_);
      rates = &proportional;
    } else if (timed && recorder_ != nullptr) {
      if (m_solve_us_ == nullptr) {
        m_solve_us_ = &recorder_->metrics().log_timer_us("net.maxmin.solve_us");
      }
      const Clock::time_point s0 = Clock::now();
      rates = &solver_.solve(capacities_, refs_);
      m_solve_us_->observe(
          std::chrono::duration<double, std::micro>(Clock::now() - s0).count(),
          kTimedPassEvery);
    } else {
      rates = &solver_.solve(capacities_, refs_);
    }

    for (std::size_t i = 0; i < comp_entities_.size(); ++i) {
      Entity& e = entities_[static_cast<std::size_t>(comp_entities_[i])];
      const double rate = (*rates)[i];
      for (LinkId l : entity_path(comp_entities_[i])) {
        link_allocated_[static_cast<std::size_t>(l)] += rate;
      }
      if (e.channel != nullptr) {
        e.channel->rate_bps = rate;
        schedule_head_event(*e.channel);
      } else {
        stream_slots_[e.stream].stream.rate_bps = rate;
      }
    }
  }

  double pass_seconds = 0.0;
  if (timed) {
    pass_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    alloc_stats_.alloc_seconds += pass_seconds * kTimedPassEvery;
  }

  if (recorder_ != nullptr) {
    m_reallocations_->inc();
    m_flows_touched_->add(touched);
    m_links_touched_->add(static_cast<std::int64_t>(comp_links_.size()));
    const bool full = touched == active_entity_count_ && touched > 0;
    if (full) m_full_reallocations_->inc();
    if (timed) m_alloc_pass_us_->observe(pass_seconds * 1e6, kTimedPassEvery);
    // Only a pass with a cause (a controller round, fault or probe span)
    // enters the journal; the counters above cover every pass.
    const obs::SpanId parent = recorder_->current_span();
    if (parent != obs::kNoSpan) {
      obs::ReallocationSolved solved;
      solved.at = sim_->now();
      solved.flows = touched;
      solved.links = static_cast<std::int64_t>(comp_links_.size());
      solved.full = full;
      solved.span = recorder_->new_span();
      solved.parent = parent;
      recorder_->record(solved);
    }
  }
}

void Network::schedule_head_event(Channel& ch) {
  sim_->cancel(ch.head_event);
  if (ch.idle()) return;
  const sim::Duration drain =
      drain_micros(transfers_[ch.head].bytes_remaining, ch.rate_bps);
  if (drain < 0) return;  // stalled: wait for a rate change
  Channel* c = &ch;
  ch.head_event = sim_->schedule_after(drain, [this, c] { complete_head(*c); });
}

void Network::complete_head(Channel& ch) {
  settle_channel(ch);
  assert(!ch.idle());
  Transfer& head = transfers_[ch.head];
  // Account any residue lost to event rounding.
  if (head.bytes_remaining > 0.0) account_bytes(head.bytes_remaining);
  TransferCallback done = std::move(head.done);
  release_transfer(ch.head);

  if (ch.idle()) {
    deactivate_channel(ch);
  } else {
    schedule_head_event(ch);
  }

  // Delivery completes after propagation over the path's hops.
  const sim::Duration hop_delay =
      config_.per_hop_latency * routing_.hops(ch.src, ch.dst);
  if (done) sim_->schedule_after(hop_delay, std::move(done));
}

}  // namespace bass::net
