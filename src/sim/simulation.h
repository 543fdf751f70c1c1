// Discrete-event simulation engine.
//
// The engine owns an indexed 4-ary min-heap of timestamped events. Events
// scheduled at the same instant run in scheduling order (a monotone sequence
// number breaks ties), which makes every run bit-for-bit deterministic for a
// fixed seed.
//
// Hot-path design (this is the substrate every figure bench, partitioning
// sweep and chaos soak executes on):
//   * Callbacks are InlineTask, not std::function: typical captures
//     ([this, EnvelopePtr, epoch], [this, id, token]) stay inline, so
//     steady-state scheduling performs zero heap allocations.
//   * Event state lives in a slab of reusable slots; the heap holds
//     (when, seq, slot) triples with the sort key inline, so sift operations
//     touch only the contiguous heap array. A 4-ary layout halves the tree
//     depth of a binary heap and keeps children in one cache line.
//   * EventIds are generation-stamped slot references. Cancel(id) removes
//     the event from the heap in O(log n) — no lazy-deletion garbage — and
//     returns false for ids that already fired or were already cancelled
//     (the slot's generation advances on every free, invalidating old ids).
//     pending_events() is therefore exact.
//   * Periodic tasks occupy their own generation-stamped slab; their ticks
//     are ordinary events, rescheduled after each callback returns, so the
//     (when, seq) dispatch order is identical to scheduling the next tick by
//     hand. Cancelling a periodic removes its in-flight tick directly.
//
// Everything in the repository — the network, SEDA servers, the actor
// runtime, the ActOp partitioning protocol and thread controllers — executes
// as callbacks on this single engine.

#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/check.h"
#include "src/common/inline_function.h"
#include "src/common/sim_time.h"

namespace actop {

// Identifies a scheduled event (or, with the top bit set, a periodic task)
// so it can be cancelled. Layout: [63] periodic tag, [62:32] slot generation
// (never 0), [31:0] slot index. Id 0 is never minted. Stale ids — fired,
// cancelled, or from a previous slot occupant — fail generation validation;
// a collision would require the same slot to be reused 2^31 times.
using EventId = uint64_t;

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current simulated time.
  SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (must be >= now()).
  EventId ScheduleAt(SimTime when, InlineTask fn);

  // Schedules `fn` to run `delay` after now (delay must be >= 0).
  EventId ScheduleAfter(SimDuration delay, InlineTask fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Cancels a pending event in O(log n). Returns true if the event was
  // pending (it had not fired and had not been cancelled before); returns
  // false for already-fired events, double cancels, and invalid ids — no
  // bookkeeping is corrupted by such calls. On a periodic control id this is
  // equivalent to CancelPeriodic.
  bool Cancel(EventId id);

  // Moves a pending event to absolute time `when` (must be >= now()) in one
  // sift instead of Cancel + ScheduleAt: the id stays valid and the callback
  // is untouched, so periodic re-arming (CpuModel's completion event on every
  // arrival/departure) does not churn slots or rebuild closures. The event is
  // re-sequenced exactly as a fresh schedule would be — it runs after events
  // already pending at the same instant — so dispatch order is identical to
  // the Cancel + ScheduleAt it replaces. Returns false (and does nothing) for
  // fired/cancelled/periodic ids.
  bool Reschedule(EventId id, SimTime when);

  // Schedules `fn` to run every `period` starting at now() + `period`.
  // Returns a control id accepted by CancelPeriodic (or Cancel). The
  // callback may cancel its own id from inside its invocation.
  EventId SchedulePeriodic(SimDuration period, InlineTask fn);

  // Stops a periodic task, removing its pending tick from the event queue.
  // Returns true if the task was live; false for stale/foreign ids.
  bool CancelPeriodic(EventId id);

  // Runs events until the queue is empty. Returns the number of events run.
  uint64_t Run();

  // Runs events with timestamp <= `deadline`, then advances the clock to
  // `deadline`. Returns the number of events run.
  uint64_t RunUntil(SimTime deadline);

  // Runs the single next event if any; returns false when the queue is empty.
  bool RunOne();

  // Timestamp of the earliest pending event, or kSimTimeMax when the queue
  // is empty. The sharded engine uses this to compute conservative window
  // bounds across shards.
  SimTime next_event_time() const { return heap_.empty() ? kSimTimeMax : heap_[0].when; }

  // Runs events with timestamp strictly < `end` and leaves the clock at the
  // last dispatched event (it does NOT advance to `end`): the window owner
  // advances all shard clocks together via AdvanceClockTo once the barrier
  // closes. Returns the number of events run.
  uint64_t RunWindow(SimTime end);

  // Advances the clock to `t` without running anything. Requires t >= now()
  // and no pending event earlier than `t` — i.e. the window up to `t` has
  // been fully executed.
  void AdvanceClockTo(SimTime t) {
    ACTOP_CHECK(t >= now_);
    ACTOP_CHECK(heap_.empty() || heap_[0].when >= t);
    now_ = t;
  }

  // Observation hook invoked after every dispatched event (chaos harness:
  // event-batch invariant checks). The hook must not run events itself, but
  // may schedule new ones. Pass nullptr to remove.
  void set_after_event_hook(std::function<void()> hook) { after_event_hook_ = std::move(hook); }

  // Number of events currently pending (exact: cancelled events are removed
  // from the heap immediately). Each live periodic contributes its one
  // in-flight tick.
  size_t pending_events() const { return heap_.size(); }

  // Total events executed since construction.
  uint64_t events_executed() const { return events_executed_; }

 private:
  static constexpr uint32_t kNilIndex = 0xFFFFFFFFu;
  static constexpr uint64_t kPeriodicTag = 1ULL << 63;
  static constexpr uint32_t kGenMask = 0x7FFFFFFFu;

  // Heap entries carry the full sort key so sift operations compare within
  // the contiguous heap array instead of chasing slot indices. 16 bytes:
  // `key` packs the monotone sequence tie-breaker (high 40 bits — seq order
  // IS key order because slots never tie on seq) over the slot index (low 24
  // bits), so a sibling group of four spans a single cache line.
  struct HeapEntry {
    SimTime when;
    uint64_t key;

    uint32_t slot() const { return static_cast<uint32_t>(key & kSlotMask); }
  };

  static constexpr uint32_t kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  // 2^40 ScheduleAt calls per Simulation (~1.1e12; the longest soaks run
  // ~1e9) before the packed seq would wrap — checked, not assumed.
  static constexpr uint64_t kMaxSeq = (1ULL << (64 - kSlotBits)) - 1;

  struct EventSlot {
    InlineTask fn;
    uint32_t gen = 1;
    // Position in heap_ while pending; next-free link while on the free list.
    uint32_t heap_pos = kNilIndex;
  };

  struct PeriodicSlot {
    InlineTask fn;
    SimDuration period = 0;
    EventId next_event = 0;  // pending tick; 0 while the callback is running
    uint32_t gen = 1;
    uint32_t free_next = kNilIndex;
    bool live = false;
  };

  // (when, seq) order. Sequence numbers are unique, so for equal timestamps
  // comparing the packed keys (seq in the high bits) is exactly seq order.
  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.when != b.when ? a.when < b.when : a.key < b.key;
  }
  static uint32_t NextGen(uint32_t gen) {
    gen = (gen + 1) & kGenMask;
    return gen == 0 ? 1 : gen;
  }
  static EventId PackId(uint32_t gen, uint32_t slot, uint64_t tag) {
    return tag | (static_cast<uint64_t>(gen) << 32) | slot;
  }

  size_t MinChild(size_t first, size_t n) const;
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  void PopRoot();
  void RemoveHeapAt(size_t pos);
  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  uint32_t AllocPeriodicSlot();
  void DispatchTop();
  void PeriodicTick(uint32_t slot, uint32_t gen);

  std::vector<HeapEntry> heap_;
  std::vector<EventSlot> slots_;
  uint32_t free_head_ = kNilIndex;

  std::vector<PeriodicSlot> periodic_slots_;
  uint32_t periodic_free_head_ = kNilIndex;

  std::function<void()> after_event_hook_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
};

}  // namespace actop

#endif  // SRC_SIM_SIMULATION_H_
