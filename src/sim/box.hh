/**
 * @file
 * Box: base class for every simulated pipeline unit.
 *
 * A box abstracts a "large enough" piece of the pipeline (the
 * Clipper, the Fragment Generator, ...).  Boxes model resource
 * restrictions and control/data flow; signals model latency and
 * bandwidth.
 *
 * Each cycle a box goes through an explicit two-phase lifecycle:
 *
 *  - update(cycle)    (phase A): read input signals, advance local
 *                     state (registers and queues) and *stage* output
 *                     signal writes.  No other box observes these
 *                     writes yet, so phase A has no ordering hazards
 *                     between boxes of a clock domain.
 *  - propagate(cycle) (phase B): publish the staged writes into the
 *                     signals' delivery slots.  Each signal has a
 *                     single writer box, so phase B is also free of
 *                     cross-box hazards.
 *
 * ClockDomain::clock runs phase A for every awake box of a domain,
 * then phase B for the same boxes.  clock() bundles both phases for
 * single-box harnesses and tests.
 */

#ifndef ATTILA_SIM_BOX_HH
#define ATTILA_SIM_BOX_HH

#include <string>
#include <vector>

#include "sim/event_trace.hh"
#include "sim/signal_binder.hh"
#include "sim/statistics.hh"
#include "sim/types.hh"

namespace attila::sim
{

class ClockDomain;

/** Base class for all simulated pipeline units. */
class Box
{
  public:
    /**
     * @param binder Signal name server used to register this box's
     *               interface.
     * @param stats Statistic name server.
     * @param name Unique box instance name.
     */
    Box(SignalBinder& binder, StatisticManager& stats,
        std::string name)
        : _binder(binder), _stats(stats), _name(std::move(name))
    {}
    virtual ~Box() = default;

    Box(const Box&) = delete;
    Box& operator=(const Box&) = delete;

    const std::string& name() const { return _name; }

    /**
     * Phase A: read inputs, advance internal state, stage output
     * writes.  Must not touch state owned by another box.  Returns
     * whether the box made progress (see the activity contract
     * below); a box that returns false sleeps.
     */
    virtual bool update(Cycle cycle) = 0;

    /**
     * Phase B: publish the output writes staged during update().
     * The default commits every output signal registered by this
     * box; boxes with extra end-of-cycle bookkeeping may override
     * (and must call the base).
     */
    virtual void
    propagate(Cycle cycle)
    {
        (void)cycle;
        for (Signal* signal : _outputSignals)
            signal->commit();
    }

    /** Run both phases; for single-box harnesses and tests. */
    void
    clock(Cycle cycle)
    {
        update(cycle);
        propagate(cycle);
    }

    /**
     * True when the box holds no in-flight work.  Used by the
     * simulator's drain detection.
     */
    virtual bool empty() const { return true; }

    // ===== Activity contract (tick on progress) ====================
    //
    // update() returns whether the box made *progress*.  A box that
    // returns false *sleeps*: the clock loop stops clocking it until
    // one of these events wakes it:
    //
    //  - an object committed to one of its input signals (data or a
    //    returned link credit) arrives: the box is clocked at the
    //    arrival cycle;
    //  - a cycle it announced with wakeAt() comes;
    //  - a statistics window closes: the box is settled, not clocked;
    //  - the box is handed work from outside the clock loop
    //    (CommandProcessor::submit calls wakeAt).
    //
    // Contract for implementors:
    //  - Return false only when clocking the box again before one of
    //    those events would change nothing but what settle()
    //    replays.  The usual rule: the box's state did not change
    //    this cycle (nothing read, sent, popped, moved, computed), so
    //    every later update() until an event is the same blocked
    //    update().  When unsure, return true: an extra clock is always
    //    correct, a missed one is not.
    //  - Every condition update() compares against the cycle number
    //    (a delay line's ready time, a timer, a scoreboard) must be
    //    announced with wakeAt(thatCycle) before returning false.
    //  - The per-cycle side effects of a blocked update() (busy and
    //    stall counters, a round-robin pointer that advances on every
    //    call) are replayed by settle(n), with n the exact number of
    //    cycles the box slept.  The clock loop calls it before the
    //    box's next update() and before every statistics window
    //    closes, so totals and windowed statistics stay exact.
    //  - A box that does not model its blocked states may return
    //    !empty(): it is then clocked every cycle while it holds work
    //    and sleeps once drained.
    //
    // idleSkip=false (Simulator::setIdleSkip) clocks every box every
    // cycle and ignores the return value: the oracle every observable
    // of the activity-driven path is compared against.

    /**
     * Replay the side effects of @p cycles consecutive no-progress
     * update() calls the clock loop skipped.  The box's state is
     * exactly what the last update() left.
     */
    virtual void settle(Cycle cycles) { (void)cycles; }

    /** Sentinel for "no wakeup scheduled". */
    static constexpr Cycle NoWake = ~Cycle{0};

    /** Cycles this box's update() ran (host-side counter, not a
     * Statistic: it differs between idleSkip on and off). */
    u64 clockedCycles() const { return _clockedCycles; }

    /**
     * Clock-loop entry point for phase A: settle the cycles slept
     * since the last update(), then run update().
     */
    bool
    beginUpdate(Cycle cycle)
    {
        settleTo(cycle);
        _settledTo = cycle + 1;
        ++_clockedCycles;
        if constexpr (kEventTraceCompiled) {
            // Activity spans cover the clocked cycles: a gap since
            // the last clock closes the open span and opens a new
            // one.
            if (_eventTrace) [[unlikely]] {
                if (_spanOpen && _spanLast + 1 != cycle)
                    finishEventSpan();
                if (!_spanOpen) {
                    _eventTrace->emit(EventKind::SpanBegin, cycle,
                                      _eventTraceId);
                    _spanOpen = true;
                }
                _spanLast = cycle;
            }
        }
        return update(cycle);
    }

    /** Replay (settle) every cycle slept before @p cycle. */
    void
    settleTo(Cycle cycle)
    {
        if (cycle > _settledTo) {
            settle(cycle - _settledTo);
            _settledTo = cycle;
        }
    }

    /**
     * Make sure this box is clocked no later than @p cycle.  A cycle
     * that has already begun means the next one.  Signals call it
     * for the reader at every arrival.  Before the box is added to a
     * clock domain the request is held and handed over at
     * registration.  (Defined with ClockDomain.)
     */
    inline void wakeAt(Cycle cycle);

    // ===== Structured event tracing ================================

    /**
     * Install the event trace sink and this box's registered id
     * (Simulator::enableEventTrace).  Activity spans are recorded
     * from the clock/skip decisions without any help
     * from the subclass.
     */
    void
    installEventTrace(EventTrace* trace, u16 id)
    {
        _eventTrace = trace;
        _eventTraceId = id;
        _spanOpen = false;
    }

    /**
     * Hook for boxes with unit-level event sources (caches, shader
     * thread slots): register names with @p trace and wire internal
     * emitters.  Called once, after installEventTrace().
     */
    virtual void attachEventTrace(EventTrace& trace) { (void)trace; }

    /**
     * Close an open activity span one cycle past the last clocked
     * cycle.  Called when the box is clocked again after a gap and
     * at trace collection, so spans of boxes that never sleep still
     * terminate.
     */
    void
    finishEventSpan()
    {
        if constexpr (kEventTraceCompiled) {
            if (_eventTrace && _spanOpen) {
                _eventTrace->emit(EventKind::SpanEnd, _spanLast + 1,
                                  _eventTraceId);
                _spanOpen = false;
            }
        }
    }

  protected:
    /** Register an input signal of this box. */
    Signal*
    input(const std::string& signal_name, u32 bandwidth, u32 latency)
    {
        return _binder.registerSignal(this, signal_name, Direction::In,
                                      bandwidth, latency);
    }

    /** Register an output signal of this box. */
    Signal*
    output(const std::string& signal_name, u32 bandwidth, u32 latency)
    {
        return _binder.registerSignal(this, signal_name,
                                      Direction::Out, bandwidth,
                                      latency);
    }

    /** Get (or create) a statistic scoped to this box. */
    Statistic&
    stat(const std::string& stat_name)
    {
        return _stats.get(_name, stat_name);
    }

    SignalBinder& binder() { return _binder; }
    StatisticManager& statistics() { return _stats; }

  private:
    // The binder appends every signal this box writes, and makes the
    // box the reader of every signal it reads, regardless of whether
    // registration went through input()/output() or a helper (links,
    // memory ports) talking to the binder directly.
    friend class SignalBinder;
    friend class ClockDomain;

    SignalBinder& _binder;
    StatisticManager& _stats;
    std::string _name;
    std::vector<Signal*> _outputSignals;
    ClockDomain* _domain = nullptr;
    u32 _domainIndex = 0;
    /** Earliest wake requested before the box joined a domain. */
    Cycle _heldWake = NoWake;
    /** The last wake timer armed in the domain for this box. */
    Cycle _timerAt = NoWake;
    /** Cycles before this one are settled (or were clocked). */
    Cycle _settledTo = 0;
    u64 _clockedCycles = 0;
    EventTrace* _eventTrace = nullptr;
    u16 _eventTraceId = 0;
    bool _spanOpen = false;
    Cycle _spanLast = 0;
};

} // namespace attila::sim

// Box::wakeAt is defined with ClockDomain.
#include "sim/clock_domain.hh"

#endif // ATTILA_SIM_BOX_HH
