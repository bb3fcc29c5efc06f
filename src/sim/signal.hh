/**
 * @file
 * Signal: the "wire" connecting boxes.
 *
 * A signal has a bandwidth (objects per cycle) and a latency (cycles
 * between write and read).  All communication between boxes happens
 * in a message-passing style through signals, which both transport
 * the data and *verify* the modelled communication constraints: a
 * write beyond the configured bandwidth, or data that reaches the
 * reader's cycle without being read, terminates the simulation with a
 * diagnostic (SimError).  This is what keeps timing bugs loud instead
 * of silent.
 *
 * Two-phase (buffered) mode: when a signal is owned by a Simulator,
 * writes issued during the update phase are staged in a pending
 * buffer and only published into the delivery slots by commit(),
 * which the writer box runs in its propagate phase.  Because every
 * latency is >= 1 this does not change the modelled timing, but it
 * removes every same-cycle ordering hazard between boxes, so the
 * order in which boxes are clocked within a cycle cannot matter.
 * Standalone signals (unit tests) default to immediate mode, where
 * write() publishes directly.
 */

#ifndef ATTILA_SIM_SIGNAL_HH
#define ATTILA_SIM_SIGNAL_HH

#include <string>
#include <vector>

#include "sim/dynamic_object.hh"
#include "sim/types.hh"

namespace attila::sim
{

class Box;
class EventTrace;
class SignalTraceWriter;
class Statistic;

/**
 * Latency- and bandwidth-modelled communication wire between two
 * boxes.
 */
class Signal
{
  public:
    /**
     * @param name Unique signal name (assigned by the SignalBinder).
     * @param bandwidth Maximum objects writable per cycle (>= 1).
     * @param latency Cycles between write and availability (>= 1).
     */
    Signal(std::string name, u32 bandwidth, u32 latency);

    const std::string& name() const { return _name; }
    u32 bandwidth() const { return _bandwidth; }
    u32 latency() const { return _latency; }

    /**
     * Write an object into the signal at @p cycle; it becomes
     * readable at cycle + latency.  Throws SimError when the cycle's
     * bandwidth is exceeded or when undelivered data would be
     * overwritten.  In buffered mode the object is staged and only
     * published by commit(); the bandwidth check still fires here,
     * the data-loss check fires at commit time.
     */
    void write(Cycle cycle, DynamicObjectPtr obj);

    /**
     * True when writing another object at @p cycle would not exceed
     * the signal bandwidth.
     */
    bool
    canWrite(Cycle cycle) const
    {
        if (_buffered)
            return canWriteBuffered(cycle);
        const Cycle arrival = cycle + _latency;
        const Slot& slot = _slots[arrival & _slotMask];
        if (slot.objects.empty() || slot.arrival != arrival)
            return true;
        return slot.objects.size() < _bandwidth;
    }

    /**
     * Read one object arriving at @p cycle.  Returns nullptr when no
     * (more) objects arrive this cycle.
     *
     * Inline with a _live == 0 early-out: the link layer polls every
     * input signal every cycle and the overwhelming majority of polls
     * find an empty wire, so the common case must be a load and a
     * branch, not an out-of-line call.
     */
    DynamicObjectPtr
    read(Cycle cycle)
    {
        if (_live == 0)
            return nullptr;
        Slot& slot = _slots[cycle & _slotMask];
        if (slot.objects.empty() || slot.arrival != cycle ||
            slot.drained()) {
            return nullptr;
        }
        DynamicObjectPtr obj = std::move(slot.objects[slot.readIndex]);
        ++slot.readIndex;
        --_live;
        ++_totalReads;
        if (slot.drained()) {
            slot.objects.clear();
            slot.readIndex = 0;
        }
        return obj;
    }

    /** Number of unread objects arriving at @p cycle. */
    u32
    pendingAt(Cycle cycle) const
    {
        if (_live == 0)
            return 0;
        const Slot& slot = _slots[cycle & _slotMask];
        if (slot.objects.empty() || slot.arrival != cycle)
            return 0;
        return static_cast<u32>(slot.objects.size() - slot.readIndex);
    }

    /**
     * Enable or disable two-phase buffered writes.  Disabling
     * publishes any still-staged writes first.
     */
    void setBuffered(bool buffered);
    bool buffered() const { return _buffered; }

    /**
     * Publish all writes staged since the last commit.  Called by the
     * writer box's propagate phase.  Throws SimError on the data-loss
     * check.  Inline no-op when nothing is staged — every active box
     * commits every output each cycle, and most have nothing
     * pending.
     */
    void
    commit()
    {
        if (!_pending.empty())
            commitPending();
    }

    /** Writes staged but not yet committed. */
    u32 pendingWrites() const
    {
        return static_cast<u32>(_pending.size());
    }

    /**
     * Objects somewhere inside the wire: committed but unread, plus
     * staged writes.  Used by the drain detector — a model is only
     * quiescent when every signal is empty.  O(1): maintained as a
     * live counter, not a slot walk.
     */
    u64 inFlight() const;

    /**
     * Set the reader box (SignalBinder, on the reader's
     * registration).  Every published object wakes it at its
     * arrival cycle (Box::wakeAt), so a sleeping reader is clocked
     * exactly when the object can be read.
     */
    void setReader(Box* reader) { _reader = reader; }

    /** Attach a trace writer; every write is then recorded. */
    void setTracer(SignalTraceWriter* tracer) { _tracer = tracer; }

    /** Attach a statistic counting objects written. */
    void setWriteStat(Statistic* stat) { _writeStat = stat; }

    /**
     * Attach the structured event trace under unit id @p id; every
     * published object then emits one SignalWrite event.
     */
    void
    setEventTrace(EventTrace* trace, u16 id)
    {
        _eventTrace = trace;
        _eventTraceId = id;
    }

    /** Lifetime statistics. */
    u64 totalWrites() const { return _totalWrites; }
    u64 totalReads() const { return _totalReads; }

  private:
    struct Slot
    {
        Cycle arrival = 0;
        std::vector<DynamicObjectPtr> objects;
        u32 readIndex = 0;

        bool
        drained() const
        {
            return readIndex >= objects.size();
        }
    };

    struct PendingWrite
    {
        Cycle cycle = 0;
        DynamicObjectPtr obj;
    };

    Slot& slotFor(Cycle arrival);
    const Slot& slotFor(Cycle arrival) const;

    /** Publish one object (the pre-two-phase write body). */
    void publish(Cycle cycle, DynamicObjectPtr obj);

    /** canWrite() when buffered: scans the staged writes. */
    bool canWriteBuffered(Cycle cycle) const;

    /** commit() slow path: publishes the staged writes. */
    void commitPending();

    std::string _name;
    u32 _bandwidth;
    u32 _latency;
    bool _buffered = false;
    std::vector<Slot> _slots;
    /** _slots.size() - 1; the slot count is rounded up to a power of
     * two so the per-poll ring index is a mask, not a division. */
    Cycle _slotMask = 0;
    std::vector<PendingWrite> _pending;
    Box* _reader = nullptr;
    SignalTraceWriter* _tracer = nullptr;
    Statistic* _writeStat = nullptr;
    EventTrace* _eventTrace = nullptr;
    u16 _eventTraceId = 0;
    u64 _totalWrites = 0;
    u64 _totalReads = 0;
    /** Committed-but-unread objects across all slots. */
    u64 _live = 0;
};

} // namespace attila::sim

#endif // ATTILA_SIM_SIGNAL_HH
