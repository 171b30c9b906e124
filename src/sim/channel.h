// Channel: a serializing, fixed-latency pipe.
//
// Models one direction of an Ethernet link, a PCIe lane bundle, or the path
// through a switch. Transmissions serialize at `bytes_per_ns`; each delivery
// additionally incurs `latency` ns of propagation. Byte accounting feeds the
// bandwidth-saturation checks in the Figure 8 benches.
//
// Queueing observability mirrors sim::Resource: each send's head-of-line
// wait (how long the frame sat behind earlier traffic before its first byte
// hit the wire) feeds always-on scalars and an optionally attached wait
// histogram; busy-time accounting separates serialization occupancy from
// idle air. With an Engine trace sink attached, each transmission's
// occupancy interval is emitted as a span. None of it perturbs the
// simulation.

#ifndef SRC_SIM_CHANNEL_H_
#define SRC_SIM_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/histogram.h"
#include "src/sim/engine.h"

namespace xenic::sim {

class Channel {
 public:
  // Per-send fault decision, produced by an optional hook (chaos testing).
  // The default-constructed decision is the identity: the send behaves
  // exactly as if no hook were installed -- same occupancy accounting, same
  // delivery tick, same event-insertion order.
  struct FaultDecision {
    bool drop = false;          // destroy the frame; callback never runs
    uint32_t duplicates = 0;    // extra copies that re-occupy the channel
    Tick extra_delay = 0;       // added propagation delay for this frame
  };
  using FaultHook = std::function<FaultDecision(uint64_t bytes)>;

  Channel(Engine* engine, std::string name, double bytes_per_ns, Tick latency);

  // Transmit `bytes`; `delivered` runs when the tail arrives at the far end.
  void Send(uint64_t bytes, Engine::Callback delivered) { Send(bytes, 0, std::move(delivered)); }

  // Same, plus `extra_occupancy` ns of fixed channel time for this send
  // (per-frame port overhead, unbatched queue-handling cost, ...).
  void Send(uint64_t bytes, Tick extra_occupancy, Engine::Callback delivered);

  // Install (or clear, with nullptr) the fault hook. The hook is consulted
  // once per Send; duplicated copies do not re-enter the hook.
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }
  bool has_fault_hook() const { return static_cast<bool>(fault_hook_); }

  uint64_t frames_dropped() const { return frames_dropped_; }
  uint64_t frames_duplicated() const { return frames_duplicated_; }
  uint64_t frames_delayed() const { return frames_delayed_; }

  const std::string& name() const { return name_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t sends() const { return sends_; }
  double bytes_per_ns() const { return bytes_per_ns_; }
  // Propagation delay per delivery (ns), added after serialization.
  Tick latency() const { return latency_; }

  // --- Queueing accounting (since the last ResetStats) ---
  // Occupancy (serialization + per-frame extras) charged to the wire.
  Tick busy_time() const { return busy_time_; }
  // Total / peak head-of-line wait: time frames spent queued behind earlier
  // traffic before starting to serialize.
  Tick wait_time_total() const { return wait_time_total_; }
  Tick peak_backlog() const { return peak_backlog_; }
  double MeanWaitNs() const {
    return sends_ == 0 ? 0.0
                       : static_cast<double>(wait_time_total_) / static_cast<double>(sends_);
  }
  // Attach (or detach, with nullptr) a wait-time histogram (caller-owned,
  // pure bookkeeping; see sim::Resource::set_wait_histogram).
  void set_wait_histogram(Histogram* hist) { wait_hist_ = hist; }

  // Fraction of link payload capacity used over `window` ns (bytes-based;
  // excludes per-frame fixed costs -- see BusyFraction for those). Guards
  // window == 0: an empty window reports 0, not a divide-by-zero.
  double Utilization(Tick window) const {
    if (window == 0) {
      return 0.0;
    }
    return static_cast<double>(bytes_sent_) / (bytes_per_ns_ * static_cast<double>(window));
  }

  // Fraction of wall time the channel was occupied (serialization plus
  // per-frame overheads) -- the queueing-relevant utilization.
  double BusyFraction(Tick window) const {
    if (window == 0) {
      return 0.0;
    }
    return static_cast<double>(busy_time_) / static_cast<double>(window);
  }

  void ResetStats() {
    bytes_sent_ = 0;
    sends_ = 0;
    frames_dropped_ = 0;
    frames_duplicated_ = 0;
    frames_delayed_ = 0;
    busy_time_ = 0;
    wait_time_total_ = 0;
    peak_backlog_ = 0;
  }

 private:
  // Charge one transmission's occupancy (serialization + extra) and byte
  // accounting; returns the tick at which the tail leaves the channel.
  Tick Occupy(uint64_t bytes, Tick extra_occupancy);

  void SendFaulted(uint64_t bytes, Tick extra_occupancy, Engine::Callback delivered);

  Engine* engine_;
  std::string name_;
  double bytes_per_ns_;
  Tick latency_;
  Tick next_free_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t sends_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t frames_duplicated_ = 0;
  uint64_t frames_delayed_ = 0;
  Tick busy_time_ = 0;
  Tick wait_time_total_ = 0;
  Tick peak_backlog_ = 0;
  Histogram* wait_hist_ = nullptr;
  TraceSink* trace_sink_ = nullptr;
  uint32_t trace_track_ = 0;
  uint32_t trace_wait_track_ = 0;
  FaultHook fault_hook_;
};

}  // namespace xenic::sim

#endif  // SRC_SIM_CHANNEL_H_
