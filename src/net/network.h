// Flow-level network simulator. Two traffic primitives:
//
//  * Transfer — a finite byte payload between two nodes (an RPC message, a
//    video frame). Transfers between the same node pair share a FIFO
//    "channel" served at the channel's max-min fair rate, which gives
//    natural queueing behaviour when links saturate. Transfers live in
//    free-listed slots threaded into their channel's FIFO, so steady-state
//    request traffic reuses storage instead of allocating.
//  * Stream — a constant-demand flow (a video feed, a probe). Its delivered
//    rate is its max-min allocation; shortfall against demand models loss.
//    Each stream counts the bytes it has delivered, and close_stream()
//    returns that count, so a probe reads its own goodput without any
//    network-wide bookkeeping.
//
// Rates are recomputed only when the set of contending flows or a link
// capacity changes — completions inside a busy channel don't perturb the
// allocation, which keeps event counts tractable for long workloads.
//
// Allocation fast path: the Network maintains a persistent cache of
// allocation entities (one per active channel / demanding mesh stream) with
// per-link occupancy lists. A change dirties the links/flows it touches and
// reallocation reprices only the contention component reachable from the
// dirty set — flows that share no link (transitively) with the change keep
// their rates, which is exact because max-min allocations of disjoint
// components are independent. See DESIGN.md "Flow allocation fast path".
//
// Uncontended stream changes skip the pass altogether (max-min only). An
// open, a close and a demand change are one shift of the stream's load on
// its path (0 -> d, d -> 0, d -> d'), applied in place when the stream runs
// at its demand and every link of its path keeps more than
// kShortcutSlackBps of slack under the larger of its old and new load. A
// link with slack is nobody's bottleneck, so load moved on unsaturated
// links moves no other rate. A transfer channel, whose demand is
// unlimited, skips the pass only when it runs alone: it opens at the lone
// closed-form rate when no other flow crosses any link of its path, and
// goes idle in place while that still holds. Inside a batch, changes apply
// in place until the first one that needs the pass; every later change
// joins that one pass at batch close, so each in-place step starts from a
// settled allocation. Changes inside a recorder span, or under
// kProportional, always take the pass.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/maxmin.h"
#include "net/routing.h"
#include "net/topology.h"
#include "net/types.h"
#include "obs/recorder.h"
#include "sim/simulation.h"

namespace bass::net {

using TransferId = std::int64_t;
constexpr TransferId kInvalidTransfer = 0;
using StreamId = std::int64_t;

enum class FairnessPolicy {
  kMaxMin,        // TCP-like convergence (default; what the paper's testbed ran)
  kProportional,  // ablation: demands scaled by worst path oversubscription
};

struct NetworkConfig {
  // One-way propagation/processing latency added per traversed link.
  sim::Duration per_hop_latency = sim::millis(1);
  FairnessPolicy fairness = FairnessPolicy::kMaxMin;
  // The mesh's routing protocol behaviour (see net/routing.h).
  RoutingPolicy routing = RoutingPolicy::kMinHop;
};

// Allocator observability (cumulative unless noted). `reallocations` counts
// allocator passes; `flows_touched` counts entity repricings summed over
// passes, so flows_touched / reallocations is the mean contention-component
// size the engine actually paid for. `shortcuts` counts stream opens,
// closes and demand changes and channel opens and closes applied in place,
// without a pass; they touch no other flow and are not in the per-pass
// fields.
//
// Only one pass in kTimedPassEvery reads the clock (passes 1, 65, 129, ...);
// its time counts kTimedPassEvery times, so `alloc_seconds` and the
// net.alloc_pass_us / net.maxmin.solve_us sums are estimates of the totals,
// exact in expectation, not measurements of every pass. The estimate also
// counts what timing costs: the timed pass's own clock reads and its
// nested solve timer, which an untimed pass never pays. It overstates what
// the passes cost: on mesh_requests (seed 1) it read 0.58-0.67 ms per
// round, but skipping 96 % of those passes (the lone-channel shortcut)
// saved only about 0.04 ms of round time.
inline constexpr std::int64_t kTimedPassEvery = 64;

// Slack a link must keep, beyond the change, for an uncontended stream
// open, close or demand change to skip the allocator pass: three orders of
// magnitude above kAllocEps, and far above the rounding of link sums at
// mesh rates.
inline constexpr double kShortcutSlackBps = 1.0;

struct AllocStats {
  std::int64_t reallocations = 0;
  std::int64_t shortcuts = 0;  // stream/channel changes applied without a pass
  // Passes whose component covered every active entity.
  std::int64_t full_reallocations = 0;
  std::int64_t flows_touched = 0;
  std::int64_t links_touched = 0;
  std::int64_t last_flows_touched = 0;   // most recent pass only
  std::int64_t last_links_touched = 0;   // most recent pass only
  std::int64_t max_component_flows = 0;  // largest component ever repriced
  double alloc_seconds = 0.0;  // estimated wall time in collect+solve+apply
};

class Network {
 public:
  Network(sim::Simulation& sim, Topology topology, NetworkConfig config = {});
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const { return topology_; }
  const RoutingTable& routing() const { return routing_; }
  sim::Simulation& simulation() { return *sim_; }
  const NetworkConfig& config() const { return config_; }

  // One-way propagation latency along the routed path (0 when colocated).
  sim::Duration path_latency(NodeId src, NodeId dst) const {
    return config_.per_hop_latency * routing_.hops(src, dst);
  }

  // ---- Capacity control (driven by the trace player / experiments) ----
  // While a link is forced down (fault injection) the new capacity is only
  // remembered as the nominal value, so trace playback layered on top keeps
  // updating and the latest trace value takes effect on link_up.
  void set_link_capacity(LinkId link, Bps capacity);
  // Convenience: sets both directions of the (a,b) link.
  void set_link_capacity_between(NodeId a, NodeId b, Bps capacity);
  Bps link_capacity(LinkId link) const { return topology_.link(link).capacity; }

  // ---- Fault overlay ----
  // Forces a link's effective capacity to zero (down) or restores the
  // nominal capacity (up). Orthogonal to set_link_capacity: the overlay
  // shadows capacity writes instead of discarding them.
  void set_link_down(LinkId link, bool down);
  // Both directions of the (a,b) link.
  void set_link_down_between(NodeId a, NodeId b, bool down);
  bool link_is_down(LinkId link) const {
    return link_down_[static_cast<std::size_t>(link)] != 0;
  }
  // Current sum of flow rates crossing the link (refreshed on reallocation).
  Bps link_allocated(LinkId link) const;

  // Batch updates: once a change inside the guard needs a pass, settling
  // and reallocation are deferred until the guard dies, so a trace tick
  // that touches L links settles and reprices once, not L times. Changes
  // the in-place shortcut covers apply at once until then.
  class BatchUpdate {
   public:
    explicit BatchUpdate(Network& net);
    ~BatchUpdate();
    BatchUpdate(const BatchUpdate&) = delete;
    BatchUpdate& operator=(const BatchUpdate&) = delete;

   private:
    Network& net_;
  };

  // ---- Transfers ----
  // `done` is moved into the event queue on completion, never wrapped: a
  // callback whose captures fit std::function's inline buffer (two words,
  // e.g. `[this, index]`) keeps the whole transfer allocation-free.
  using TransferCallback = std::function<void()>;
  // Moves `bytes` from src to dst; `done` fires when the last byte lands
  // (drain time + per-hop latency). Returns an id usable with
  // cancel_transfer(): a generation-tagged slot handle ((generation << 32)
  // | slot), as for streams, so the id of a completed or cancelled transfer
  // stays inert after its slot is reused. Loopback (src == dst) transfers
  // never touch the mesh and return kInvalidTransfer.
  TransferId start_transfer(NodeId src, NodeId dst, std::int64_t bytes,
                            TransferCallback done);
  // Cancels a queued/in-flight transfer. False if it already completed, was
  // cancelled, or the id is stale or a loopback id.
  bool cancel_transfer(TransferId id);

  // ---- Streams ----
  // StreamIds are generation-tagged slot handles ((generation << 32) |
  // slot): closed ids go stale instead of dangling, so a stale id reads
  // rate 0, set_stream_demand is a no-op, and double-close is safe. Slots
  // are free-listed, so steady-state stream churn reuses storage instead of
  // allocating.
  StreamId open_stream(NodeId src, NodeId dst, Bps demand);
  void set_stream_demand(StreamId id, Bps demand);
  // Closes the stream and returns the bytes it delivered over its life
  // (settled up to now); 0 for a stale id or a double close.
  std::int64_t close_stream(StreamId id);
  // The bytes the stream has delivered up to now, without settling it: a
  // read moves no flow's accounting. 0 for a stale id. Reading this at a
  // stream's close gives close_stream()'s value.
  std::int64_t stream_bytes(StreamId id) const;
  // Current allocated rate; 0 for unknown/closed streams.
  Bps stream_rate(StreamId id) const;

  // ---- Observability ----
  // Attaches the run's recorder: an allocator pass that runs inside a span
  // (a controller round, fault or probe) journals a ReallocationSolved
  // event parented to it, capacity changes journal LinkCapacityChanged, and
  // the AllocStats counters of every pass, parented or not, are mirrored
  // into the metrics registry (net.reallocations, net.flows_touched, ...;
  // shortcuts go to net.alloc_shortcuts, registered by the first one). A
  // stream or channel change inside a span always takes the pass, so it
  // still journals its ReallocationSolved.
  // The sampled pass and solve times (see kTimedPassEvery) go to
  // net.alloc_pass_us and net.maxmin.solve_us. Instrument handles are
  // resolved once here, so the hot path only pays pointer increments. Pass
  // nullptr to detach.
  void set_recorder(obs::Recorder* recorder);

  std::int64_t total_bytes_delivered() const { return total_bytes_delivered_; }
  std::int64_t reallocation_count() const { return alloc_stats_.reallocations; }
  // Bumped by every change to the allocation, pass or shortcut: rates and
  // link_allocated() can only move when this moves.
  std::int64_t allocation_changes() const {
    return alloc_stats_.reallocations + alloc_stats_.shortcuts;
  }
  const AllocStats& alloc_stats() const { return alloc_stats_; }
  std::size_t active_channel_count() const {
    return static_cast<std::size_t>(active_channel_entities_);
  }
  std::size_t stream_count() const { return open_streams_; }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Channel {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    // FIFO of transfer slots, linked through Transfer::next.
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
    double rate_bps = 0.0;
    sim::Time last_update = 0;
    sim::EventId head_event = sim::kInvalidEvent;
    int entity_slot = -1;  // slot in entities_ while backlogged, else -1
    bool idle() const { return head == kNoSlot; }
  };

  // A transfer slot: queued in `channel`'s FIFO while live, else on the
  // free list. Both lists thread through `next`. The generation moves on
  // at every release, which makes outstanding ids stale; a slot whose
  // generation would wrap to 0 is retired, so no id is handed out twice.
  struct Transfer {
    double bytes_remaining = 0.0;
    TransferCallback done;
    Channel* channel = nullptr;  // channels_ nodes are stable
    std::uint32_t next = kNoSlot;
    std::uint32_t generation = 1;
  };

  struct Stream {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    Bps demand = 0;
    double rate_bps = 0.0;
    sim::Time last_update = 0;
    double bytes_delivered = 0.0;  // settled up to last_update
    int entity_slot = -1;  // slot in entities_ while a demanding mesh flow
  };

  // One allocation entity: an active (backlogged) channel or a demanding
  // mesh stream. Slots are stable (free-listed), so per-link occupancy
  // lists and dirty sets can hold slot indices across churn.
  struct Entity {
    double demand = 0.0;
    Channel* channel = nullptr;  // set for a channel, else `stream` is
    std::uint32_t stream = kNoSlot;  // index into stream_slots_
    std::uint32_t hops = 0;  // length of the slot's path (entity_path)
    bool active = false;
  };
  struct LinkRef {
    int slot = 0;
    std::uint32_t path_idx = 0;  // index of this link within the slot's path
  };

  std::int64_t channel_key(NodeId src, NodeId dst) const {
    return (static_cast<std::int64_t>(src) << 32) | static_cast<std::uint32_t>(dst);
  }

  Channel& channel_for(NodeId src, NodeId dst);
  // Advances a flow's byte accounting to `now` at its current rate.
  void settle_channel(Channel& ch);
  void settle_stream(Stream& st);

  // Entity cache maintenance, each change priced as it is made: in place
  // when shift_in_place() allows, else adding marks the entity dirty and
  // removing marks its links dirty, and reallocate() reprices exactly the
  // affected contention component (at batch close, inside a batch).
  int add_entity(double demand, NodeId src, NodeId dst, Channel* ch,
                 std::uint32_t stream);
  void remove_entity(int slot);
  // The in-place shortcut (see the header comment): moves the load of the
  // flow in `slot` on its path from `from` to `to` bps (an open is 0 ->
  // demand, a close demand -> 0, a demand change d -> d'). Returns false,
  // changing nothing, when the change needs the pass.
  bool can_skip_pass() const;
  bool alone_on_path(int slot) const;
  bool shift_in_place(int slot, double from, double to);
  void count_shortcut();

  // Flood-fills links ↔ entities from the dirty seeds into comp_links_ /
  // comp_entities_ (every flow on an included link is included, so the
  // result is closed under link sharing).
  void collect_component(std::span<const LinkId> seed_links,
                         const std::vector<int>& seed_entities);
  // Settles and reprices the dirty contention component(s), then
  // reschedules head events for repriced channels.
  void reallocate();
  void schedule_head_event(Channel& ch);
  void complete_head(Channel& ch);
  // Drops an emptied channel's entity: in place when it ran alone on its
  // path, else with a pass.
  void deactivate_channel(Channel& ch);
  // Unlinks `slot` from its channel's FIFO, drops its callback and frees it.
  void release_transfer(std::uint32_t slot);
  void account_bytes(double bytes);

  sim::Simulation* sim_;
  Topology topology_;
  RoutingTable routing_;
  NetworkConfig config_;

  // Stream storage. Closed slots are free-listed and their generation
  // bumped, so stale StreamIds miss in O(1). A slot's generation wraps
  // after 2^32 closes — accepted: an id would have to be held across four
  // billion reuses of its slot to alias.
  struct StreamSlot {
    Stream stream;
    std::uint32_t generation = 1;
    bool open = false;
  };
  static std::uint32_t stream_slot_of(StreamId id) {
    return static_cast<std::uint32_t>(id);
  }
  Stream* find_stream(StreamId id);
  const Stream* find_stream(StreamId id) const;

  // Keyed by (src,dst). A map, not a dense n² array: it allocates only on a
  // pair's first transfer, and its nodes stay put for Transfer::channel.
  std::unordered_map<std::int64_t, Channel> channels_;
  std::vector<StreamSlot> stream_slots_;
  std::vector<std::uint32_t> stream_free_;
  std::size_t open_streams_ = 0;
  std::vector<Transfer> transfers_;
  std::uint32_t transfer_free_ = kNoSlot;  // free list through Transfer::next

  // ---- Entity cache ----
  std::vector<Entity> entities_;
  std::vector<int> free_slots_;
  std::vector<std::vector<LinkRef>> link_entities_;  // per-link active slots
  // Each slot owns one block of the flat pool, two halves of `stride_`
  // entries: the entity's path in src -> dst order (a contiguous span, as
  // the solver takes it), then link_pos(slot)[i], the slot's index within
  // link_entities_[path[i]], which makes detach an O(path) swap-remove
  // instead of a list scan. The stride is the longest routed path (routing
  // is fixed at construction), so entity churn never resizes anything.
  std::vector<std::int32_t> link_pos_pool_;
  std::size_t stride_ = 1;
  std::int32_t* entity_block(int slot) {
    return link_pos_pool_.data() + static_cast<std::size_t>(slot) * 2 * stride_;
  }
  std::span<const LinkId> entity_path(int slot) const {
    return {link_pos_pool_.data() + static_cast<std::size_t>(slot) * 2 * stride_,
            entities_[static_cast<std::size_t>(slot)].hops};
  }
  std::int32_t* link_pos(int slot) { return entity_block(slot) + stride_; }
  int active_entity_count_ = 0;
  int active_channel_entities_ = 0;

  // Dirty seeds accumulated since the last allocator pass (deduplicated by
  // the component walk, so plain vectors suffice).
  std::vector<LinkId> dirty_links_;
  std::vector<int> dirty_entities_;

  // Component-walk + solver scratch.
  MaxMinSolver solver_;
  std::vector<AllocEntityRef> refs_;
  std::vector<int> comp_entities_;
  std::vector<LinkId> comp_links_;
  std::vector<std::uint32_t> link_visit_;
  std::vector<std::uint32_t> entity_visit_;
  std::uint32_t visit_stamp_ = 0;

  // Applies an effective-capacity change (journal + topology + mirror +
  // dirty seed + reallocate); set_link_capacity/set_link_down route here.
  void apply_capacity(LinkId link, Bps capacity);

  std::vector<double> capacities_;  // mirror of topology capacities
  std::vector<double> link_allocated_;
  std::vector<Bps> nominal_capacity_;     // capacity a downed link returns to
  std::vector<std::uint8_t> link_down_;   // fault overlay flags

  // Observability (all null until set_recorder; see emit sites).
  obs::Recorder* recorder_ = nullptr;
  obs::Counter* m_reallocations_ = nullptr;
  obs::Counter* m_shortcuts_ = nullptr;
  obs::Counter* m_full_reallocations_ = nullptr;
  obs::Counter* m_flows_touched_ = nullptr;
  obs::Counter* m_links_touched_ = nullptr;
  obs::LogHistogram* m_alloc_pass_us_ = nullptr;
  obs::LogHistogram* m_solve_us_ = nullptr;

  std::int64_t total_bytes_delivered_ = 0;
  AllocStats alloc_stats_;
  int batch_depth_ = 0;
  bool batch_dirty_ = false;
};

}  // namespace bass::net
