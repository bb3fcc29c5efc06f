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
 * ClockDomain::clock runs phase A for every box of a domain, then
 * phase B for every box.  clock() bundles both phases
 * for single-box harnesses and tests.
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
     * writes.  Must not touch state owned by another box.
     */
    virtual void update(Cycle cycle) = 0;

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

    // ===== Activity contract (idle skipping) =======================
    //
    // A box is *provably idle* at a cycle when its update() would be
    // a semantic no-op: no internal state to advance, no input
    // traffic to consume, no scheduled wakeup due.  The clock loop
    // may then skip both phases for the cycle without changing any
    // observable (cycle counts, statistics, signal traffic) — the
    // basis for the engine's activity-driven clocking.
    //
    // Contract for implementors:
    //  - busy() must return true whenever update() does anything
    //    observable that is not triggered by input-signal traffic
    //    (stat increments count!).  The default returns true, so a
    //    box that does not opt in is simply always clocked.
    //  - Work that begins at a known future cycle while the box is
    //    otherwise idle must be announced with wakeAt(); the
    //    clock loop guarantees the box is clocked no later than the
    //    announced cycle.  A box that is busy() until the work lands
    //    never needs wakeAt().
    //  - Input traffic needs no reporting: every registered input
    //    signal holding an in-flight object keeps the box awake
    //    automatically (signal delivery marks the consumer active).

    /**
     * True while update() may have observable work that is not
     * driven by input-signal traffic.  Override to opt in to idle
     * skipping; the conservative default keeps the box clocked
     * every cycle.
     */
    virtual bool busy() const { return true; }

    /** Sentinel for "no wakeup scheduled". */
    static constexpr Cycle NoWake = ~Cycle{0};

    /** Earliest scheduled wakeup, or NoWake. */
    Cycle nextWake() const { return _nextWake; }

    /**
     * True when the clock loop may skip this box at @p cycle: not
     * busy, no wakeup due, and no object in flight on any input
     * signal.  An object is counted from the moment its writer
     * commits until it is read, so a sleeping consumer is clocked
     * throughout the delivery window and can never miss an arrival
     * (which would otherwise trip the signal's data-loss check).
     */
    bool
    idleAt(Cycle cycle) const
    {
        if (busy())
            return false;
        if (cycle >= _nextWake)
            return false;
        for (const Signal* signal : _inputSignals) {
            if (!signal->fastEmpty())
                return false;
        }
        return true;
    }

    /**
     * Clock-loop entry point for phase A: clears an expired wakeup
     * hint (the box re-arms it from update() when needed) and runs
     * update().
     */
    void
    beginUpdate(Cycle cycle)
    {
        if (cycle >= _nextWake)
            _nextWake = NoWake;
        if constexpr (kEventTraceCompiled) {
            // Activity span bookkeeping.
            if (_eventTrace) [[unlikely]] {
                if (!_spanOpen) {
                    _eventTrace->emit(EventKind::SpanBegin, cycle,
                                      _eventTraceId);
                    _spanOpen = true;
                }
                _spanLast = cycle;
            }
        }
        update(cycle);
    }

    /**
     * Per-cycle skip latch, written by the skip pass before any box
     * is clocked and read back in phase B so a skipped box also
     * skips propagate().
     */
    void
    markSkipped(bool skipped)
    {
        if constexpr (kEventTraceCompiled) {
            if (_eventTrace && skipped) [[unlikely]]
                finishEventSpan();
        }
        _skipped = skipped;
    }
    bool skipped() const { return _skipped; }

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
     * cycle.  Called when the box is skipped and at trace
     * collection, so spans of boxes that never go idle still
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

    /**
     * Announce that this box, though currently not busy(), has work
     * scheduled at @p cycle.  Earlier of the two wins when a wakeup
     * is already pending; the hint is cleared when the box is next
     * clocked at or after the announced cycle.
     */
    void
    wakeAt(Cycle cycle)
    {
        if (cycle < _nextWake)
            _nextWake = cycle;
    }

    SignalBinder& binder() { return _binder; }
    StatisticManager& statistics() { return _stats; }

  private:
    // The binder appends every signal this box writes or reads,
    // regardless of whether registration went through
    // input()/output() or a helper (links, memory ports) talking to
    // the binder directly.
    friend class SignalBinder;

    SignalBinder& _binder;
    StatisticManager& _stats;
    std::string _name;
    std::vector<Signal*> _outputSignals;
    std::vector<Signal*> _inputSignals;
    Cycle _nextWake = NoWake;
    bool _skipped = false;
    EventTrace* _eventTrace = nullptr;
    u16 _eventTraceId = 0;
    bool _spanOpen = false;
    Cycle _spanLast = 0;
};

} // namespace attila::sim

#endif // ATTILA_SIM_BOX_HH
