// Input-queued virtual-channel router with credit-based flow control, in the
// BookSim microarchitectural tradition:
//
//   RC  -> head flits compute route candidates
//   VA  -> separable virtual-channel allocation (round-robin)
//   SA  -> two-stage separable switch allocation (round-robin)
//   ST  -> crossbar + link traversal into the output channel
//
// The router is *run-time reconfigurable* along the two axes the DRL
// controller drives:
//   * active VC count   — VA stops allocating gated VCs; in-flight packets
//                         drain, so no flit is ever dropped;
//   * active buffer depth — implemented exactly with credit withholding:
//                         the downstream input unit withholds credits to
//                         shrink advertised capacity, or grants bonus
//                         credits to grow it (see docs/ARCHITECTURE.md,
//                         "Run-time reconfiguration").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "noc/channel.h"
#include "noc/routing.h"
#include "noc/topology.h"
#include "noc/types.h"

namespace drlnoc::noc {

/// Energy-event counters; consumed by the power model and reset per epoch.
struct RouterActivity {
  std::uint64_t buffer_writes = 0;
  std::uint64_t buffer_reads = 0;
  std::uint64_t vc_allocs = 0;
  std::uint64_t sw_arbs = 0;
  std::uint64_t xbar_traversals = 0;
  std::uint64_t link_flits = 0;

  void reset() { *this = RouterActivity{}; }
  RouterActivity& operator+=(const RouterActivity& o);
};

struct RouterParams {
  int num_ports = 5;     ///< at most 32
  int max_vcs = 4;       ///< physical VCs per port, at most 32
  int max_depth = 8;     ///< physical buffer slots per VC, at most 127
  int vc_classes = 1;    ///< 1 (mesh) or 2 (ring/torus dateline)
  int active_vcs = 4;    ///< initial configuration
  int active_depth = 8;  ///< initial configuration
  /// Router pipeline depth in cycles. 1 models an aggressive single-cycle
  /// router; larger values delay each flit's link entry by (stages - 1)
  /// cycles, modelling RC/VA/SA/ST as separate stages.
  int pipeline_stages = 1;
};

/// Channel indices of one router port (-1: none), into FabricView::flits
/// and FabricView::credits. `in_flits`/`out_credits` form the upstream link
/// (flits arrive, credits go back); `out_flits`/`in_credits` the downstream
/// one. Either side may be a NIC.
struct PortChannels {
  int in_flits = -1;
  int out_credits = -1;
  int out_flits = -1;
  int in_credits = -1;
};

class Router {
 public:
  /// `ports` holds one entry per port (params.num_ports).
  Router(NodeId id, RouterParams params, std::vector<PortChannels> ports);

  /// FabricView::fifo slots one router's input VCs take: num_ports x
  /// max_vcs FIFOs of bit_ceil(max_depth) flits each. Router `id` owns the
  /// `id`-th such block of the fabric's arena.
  static std::size_t fifo_slots(const RouterParams& params);

  /// Sets the initial credit count of every VC of an output port to the
  /// capacity advertised by the downstream input unit. Called once by
  /// Network after construction, before the first step().
  void init_output_credits(PortId port, int credits_per_vc);

  /// One router-clock cycle over the fabric `view`: receives from the
  /// inbound channels named in the node's pending masks, routes with
  /// view.routing, consults view.faults at link traversal and traces to
  /// view.recorder (each null-checked where optional).
  void step(Cycle cycle, const FabricView& view);

  /// Reconfiguration (safe at any cycle; never drops flits). Depth growth
  /// sends bonus credits upstream through `view`.
  void set_active_vcs(int vcs, Cycle now);
  void set_active_depth(int depth, Cycle now, const FabricView& view);
  int active_vcs() const { return params_.active_vcs; }
  int active_depth() const { return params_.active_depth; }

  /// VC gating is a property of the *downstream* buffers: when per-router
  /// configurations differ, the VA stage must restrict allocations to the
  /// VCs the next-hop router keeps active. Network propagates this after
  /// every (re)configuration; defaults to this router's own active_vcs.
  void set_output_active_vcs(PortId port, int vcs);
  int output_active_vcs(PortId port) const;

  NodeId id() const { return id_; }
  const RouterParams& params() const { return params_; }

  // --- observability -------------------------------------------------------
  const RouterActivity& activity() const { return activity_; }
  void reset_activity() { activity_.reset(); }
  /// Total flits currently buffered in this router's input units. O(1):
  /// maintained incrementally on every buffer write/read.
  int buffered_flits() const { return buffered_total_; }
  /// Occupancy of the fullest single input VC (congestion feature).
  int max_vc_occupancy() const;
  bool idle() const { return buffered_flits() == 0; }

  /// Test hook: downstream-advertised capacity of one input VC
  /// (must always equal upstream credits + credits in flight + occupancy).
  int advertised_capacity(PortId port, VcId vc) const;
  /// Test hook: credits this router currently holds for a downstream VC.
  int output_credits(PortId port, VcId vc) const;
  /// Test hook: occupancy of one input VC buffer.
  int input_occupancy(PortId port, VcId vc) const;
  /// Calls `f` on every buffered flit, read from the fabric's FIFO arena
  /// `fifo` (audits).
  template <typename F>
  void for_each_buffered(const Flit* fifo, F&& f) const {
    for (std::size_t idx = 0; idx < inputs_.size(); ++idx) {
      for (int i = 0; i < vc_meta_[idx].occ; ++i) {
        f(fifo[fifo_slot(static_cast<int>(idx), i)]);
      }
    }
  }
  /// Test hook: recomputes the incrementally maintained scheduling state
  /// (SA-ready masks, output-VC owners, VA stall flag) by brute force from
  /// the primary state and returns a description of the first mismatch, or
  /// "" when everything is consistent. Network::audit_quiescence checks the
  /// inbound pending masks.
  std::string audit_schedule_state() const;

 private:
  /// Per input VC pipeline state. Kept OUT of InputVc in one compact
  /// side array: the per-cycle allocator loops scan every input VC, and
  /// with ~100-byte InputVc records those scans were L1-miss bound; at four
  /// bytes per VC a router's whole scan state fits in one or two cache
  /// lines.
  enum class VcState : std::uint8_t { kIdle, kVcAlloc, kActive };

  struct VcMeta {
    VcState state = VcState::kIdle;
    std::int8_t occ = 0;       ///< flits in the FIFO (max_depth <= 127)
    std::int8_t out_port = -1; ///< allocated output port (radix <= 127)
    std::int8_t out_vc = -1;   ///< allocated output VC (max_vcs <= 32)
  };

  /// The FIFO itself is a ring of fifo_mask_ + 1 slots in the fabric's
  /// arena (fifo_slot); InputVc holds its head and VcMeta its count.
  struct InputVc {
    std::vector<RouteChoice> candidates;
    int advertised = 0;  ///< capacity advertised upstream (credit protocol)
    std::uint8_t head = 0;  ///< ring index of the head-of-line flit
  };

  struct OutputVc {
    int credits = 0;  ///< downstream slots this router may still consume
    /// Input slot (port * max_vcs + vc) of the packet that owns this VC, or
    /// -1 when free. Lets a credit arrival find the input VC it unblocks.
    std::int16_t owner = -1;
  };

  InputVc& ivc(PortId p, VcId v) {
    return inputs_[static_cast<std::size_t>(p * params_.max_vcs + v)];
  }
  const InputVc& ivc(PortId p, VcId v) const {
    return inputs_[static_cast<std::size_t>(p * params_.max_vcs + v)];
  }
  OutputVc& ovc(PortId p, VcId v) {
    return outputs_[static_cast<std::size_t>(p * params_.max_vcs + v)];
  }
  /// Arena offset of flit `i` (0 = head of line) of input VC `idx`.
  std::size_t fifo_slot(int idx, int i) const {
    return fifo_base_ + (static_cast<std::size_t>(idx) << fifo_shift_) +
           ((inputs_[static_cast<std::size_t>(idx)].head + i) & fifo_mask_);
  }

  /// Admissible out-VC index range [begin, end) for a VC class, gated by
  /// the downstream router's active-VC configuration for `out_port`.
  std::pair<VcId, VcId> admissible_range(std::uint8_t vc_class,
                                         PortId out_port) const;
  /// Rebuilds the cached admissible ranges (adm_begin_/adm_end_) after any
  /// change to out_active_vcs_ — keeps the integer divides of
  /// admissible_range() out of the per-cycle VA loop.
  void refresh_admissible_cache();
  int adm_index(PortId port, std::uint8_t vc_class) const {
    return port * params_.vc_classes + static_cast<int>(vc_class);
  }

  void receive_phase(Cycle cycle, const FabricView& view);
  void route_compute(const FabricView& view);
  void vc_allocate(Cycle cycle, const FabricView& view);
  void switch_allocate_and_traverse(Cycle cycle, const FabricView& view);
  /// Recomputes one input VC's bit of the SA-ready mask (and its port's bit
  /// of sa_ready_ports_) from the VC's state, occupancy and credits.
  void update_sa_ready(PortId port, VcId vc);
  /// Frees one input slot: sends a credit upstream or withholds it when the
  /// advertised capacity must shrink toward the configured depth.
  void release_slot(PortId port, VcId vc, Cycle cycle,
                    const FabricView& view);

  NodeId id_;
  RouterParams params_;
  std::vector<PortChannels> ports_;
  std::vector<InputVc> inputs_;
  std::vector<OutputVc> outputs_;
  std::vector<int> out_active_vcs_;  ///< per output port (downstream gating)
  // Round-robin pointers.
  std::vector<int> va_rr_;       // per output VC
  std::vector<int> sa_in_rr_;    // per input port
  std::vector<int> sa_out_rr_;   // per output port
  // Persistent allocation scratch for the per-cycle allocators. The VA
  // requester lists are intrusive singly-linked lists keyed by input slot
  // index (head per output VC, next per input slot), reset by a fill each
  // cycle; SA stage 1 records at most one winning VC per input port.
  std::vector<int> va_head_;       // per output VC: first requester, or -1
  std::vector<int> va_next_;       // per input slot: next requester, or -1
  std::vector<int> va_touched_;    // output VC slots with requests this cycle
  // Event-driven pipeline worklists: the allocator stages iterate only the
  // input VCs that can actually make progress instead of scanning every
  // (port, VC) slot each cycle. List order never affects results — every
  // arbitration picks the minimum cyclic distance over unique indices.
  std::vector<std::int16_t> route_ready_;  // kIdle VCs with a waiting head
  std::vector<std::int16_t> va_list_;      // VCs in state kVcAlloc
  struct SaWinner {
    std::int8_t in_port;
    std::int8_t in_vc;
    std::int8_t out_port;
  };
  std::vector<SaWinner> sa_winners_;       // SA stage-1 scratch
  // Ready bitmasks: each stage visits only what can make progress this
  // cycle, and every arbitration still picks the same winner as a full scan
  // (see docs/ARCHITECTURE.md, "Router scheduling state"). Bit v of
  // sa_ready_[p] is set iff input VC (p, v) is kActive, holds a flit and its
  // output VC has a credit; sa_ready_ports_ has bit p iff sa_ready_[p] != 0.
  // va_stalled_ is set when a VA round found no requestable output VC and
  // cleared by the only events that can create one: a head joining
  // va_list_, a tail freeing an output VC, an admissible-range refresh.
  std::vector<std::uint32_t> sa_ready_;
  std::uint32_t sa_ready_ports_ = 0;
  bool va_stalled_ = false;
  // Incremental occupancy counter: Network's per-cycle statistics need no
  // buffer walks.
  int buffered_total_ = 0;   // flits across all input VC FIFOs
  int vcs_per_class_ = 1;    // max_vcs / vc_classes, precomputed
  // This router's block of the FIFO arena: input VC idx's ring starts at
  // fifo_base_ + (idx << fifo_shift_) and wraps with fifo_mask_.
  std::size_t fifo_base_ = 0;
  int fifo_shift_ = 0;
  int fifo_mask_ = 0;
  std::vector<VcId> adm_begin_, adm_end_;  // per (port, class); see above
  // Compact per-input-VC pipeline state (see VcMeta above). Indexed like
  // inputs_: port * max_vcs + vc.
  std::vector<VcMeta> vc_meta_;
  RouterActivity activity_;
};

}  // namespace drlnoc::noc
