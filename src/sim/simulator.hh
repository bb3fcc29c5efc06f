/**
 * @file
 * Simulator: the clock loop driving boxes and signals.
 *
 * The simulator owns the signal binder, the statistic manager and
 * the clock domains grouping the boxes.  Each master tick clocks
 * every domain whose divider matches (ClockDomain::clock: phase A for
 * every awake box, then phase B), then closes the statistics window
 * when one ends, after settling every sleeping box (Box::settle).
 *
 * A Simulator, and every object its model hands out, is used by one
 * thread at a time.  Independent Simulators may run on different
 * threads.
 */

#ifndef ATTILA_SIM_SIMULATOR_HH
#define ATTILA_SIM_SIMULATOR_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/box.hh"
#include "sim/clock_domain.hh"
#include "sim/event_trace.hh"
#include "sim/signal_binder.hh"
#include "sim/signal_trace.hh"
#include "sim/statistics.hh"

namespace attila::sim
{

/** Owns the simulation infrastructure and runs the clock loop. */
class Simulator
{
  public:
    Simulator()
    {
        // Simulator-driven models always use the two-phase write
        // protocol; standalone binders (unit tests) stay immediate.
        _binder.setBuffered(true);
    }

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    SignalBinder& binder() { return _binder; }
    StatisticManager& stats() { return _stats; }

    /**
     * Find or create the clock domain @p name.  The divider is fixed
     * at creation; re-requesting an existing domain with a different
     * divider is a configuration error.
     */
    ClockDomain&
    domain(const std::string& name, u32 divider = 1)
    {
        for (auto& d : _domains) {
            if (d->name() == name) {
                if (d->divider() != divider)
                    fatal("clock domain '", name,
                          "': divider mismatch (", d->divider(),
                          " vs ", divider, ")");
                return *d;
            }
        }
        _domains.push_back(
            std::make_unique<ClockDomain>(name, divider));
        return *_domains.back();
    }

    const std::vector<std::unique_ptr<ClockDomain>>&
    domains() const
    {
        return _domains;
    }

    /**
     * Register a box to be clocked each cycle (not owned); shorthand
     * for adding to the master-rate "default" domain.
     */
    void
    addBox(Box* box)
    {
        domain("default").addBox(box);
    }

    /**
     * Enable or disable activity-driven clocking (default on):
     * ClockDomain::clock visits only awake boxes, and run() and
     * Gpu::runUntilIdle fast-forward while every domain sleeps.  Off
     * clocks every box every cycle: the oracle path, with identical
     * observables.
     */
    void setIdleSkip(bool enable) { _idleSkip = enable; }

    bool idleSkip() const { return _idleSkip; }

    /** Enable signal tracing into @p path. */
    void
    enableTracing(const std::string& path)
    {
        _tracer = std::make_unique<SignalTraceWriter>(path);
        _binder.setTracer(_tracer.get());
    }

    SignalTraceWriter* tracer() { return _tracer.get(); }

    /**
     * Enable structured event tracing: register every box (span
     * events come from the clock/skip decisions), give
     * each box the chance to wire unit-level emitters
     * (attachEventTrace), and attach the trace to every signal.
     * Call after all boxes are in their domains; boxes and signals
     * added later are still picked up via the binder and explicit
     * attachment, but ids assigned here are deterministic.
     */
    void
    enableEventTrace()
    {
        if (_eventTrace)
            return;
        _eventTrace = std::make_unique<EventTrace>();
        for (auto& d : _domains) {
            for (Box* box : d->boxes()) {
                box->installEventTrace(
                    _eventTrace.get(),
                    _eventTrace->registerBox(box->name()));
                box->attachEventTrace(*_eventTrace);
            }
        }
        _binder.setEventTrace(_eventTrace.get());
    }

    EventTrace* eventTrace() { return _eventTrace.get(); }

    /**
     * Close all open activity spans at the current cycle and return
     * the merged, cycle-sorted trace snapshot.  Run between steps;
     * recording continues afterwards if the model keeps running.
     */
    EventTraceData
    finishEventTrace()
    {
        if (!_eventTrace)
            fatal("finishEventTrace: event tracing is not enabled");
        for (auto& d : _domains) {
            for (Box* box : d->boxes())
                box->finishEventSpan();
        }
        return _eventTrace->collect();
    }

    /** Master ticks elapsed (the rate of divider-1 domains). */
    Cycle cycle() const { return _tick; }

    /** Advance the whole model one master tick. */
    void
    step()
    {
        for (auto& d : _domains) {
            if (d->ticksAt(_tick))
                d->clock(_idleSkip);
        }
        ++_tick;
        if (_stats.windowEndsAt(_tick))
            closeWindow();
    }

    /** Run for @p cycles master ticks. */
    void
    run(u64 cycles)
    {
        for (u64 i = 0; i < cycles; ++i) {
            step();
            if (_idleSkip && i + 1 < cycles)
                i += fastForward(cycles - i - 1);
        }
        settle();
    }

    /**
     * Settle every sleeping box up to the current cycle (see
     * Box::settle).  run() and Gpu::runUntilIdle do this before they
     * return; call it before reading statistics after driving the
     * model with step().
     */
    void
    settle()
    {
        for (auto& d : _domains)
            d->settleAll();
    }

    /**
     * Whole-model fast-forward: when no box of any domain is awake,
     * nothing can change state before the earliest wake timer (every
     * object inside a wire has one armed for its arrival), so skip
     * up to @p maxTicks master ticks in bulk, performing only the
     * per-tick bookkeeping the skipped steps would have done: domain
     * cycle counters, and the statistics windows, each closed after
     * settling the sleeping boxes.  Returns the ticks skipped (0 when
     * some box is awake).  Observables stay bit-identical: the
     * skipped steps would have clocked no box.
     */
    u64
    fastForward(u64 maxTicks)
    {
        if (maxTicks == 0)
            return 0;
        u64 skip = maxTicks;
        for (const auto& d : _domains) {
            if (!d->asleep())
                return 0;
            const Cycle wake = d->nextWake();
            if (wake == Box::NoWake)
                continue;
            const Cycle local = d->cycle();
            if (wake <= local)
                return 0; // Wakeup due at the very next tick.
            // Master tick running domain cycle `wake`: the next tick
            // where the domain fires, plus (wake - local) periods.
            const u64 div = d->divider();
            const u64 rem = _tick % div;
            const u64 firstFire = rem == 0 ? _tick : _tick + div - rem;
            const u64 wakeTick = firstFire + (wake - local) * div;
            skip = std::min(skip, wakeTick - _tick);
        }
        u64 left = skip;
        while (left > 0) {
            // Stop at every window boundary to settle and close it.
            u64 chunk = left;
            if (_stats.window() != 0)
                chunk = std::min(chunk,
                                 _stats.window() - _tick % _stats.window());
            for (auto& d : _domains) {
                const u64 div = d->divider();
                const u64 rem = _tick % div;
                const u64 firstFire =
                    rem == 0 ? _tick : _tick + div - rem;
                if (firstFire < _tick + chunk) {
                    d->advanceBy((_tick + chunk - 1 - firstFire) /
                                     div +
                                 1);
                }
            }
            _tick += chunk;
            left -= chunk;
            if (_stats.windowEndsAt(_tick))
                closeWindow();
        }
        return skip;
    }

    /** True when every box reports no in-flight work. */
    bool
    allEmpty() const
    {
        for (const auto& d : _domains) {
            if (!d->allEmpty())
                return false;
        }
        return true;
    }

    /**
     * True when every box is empty *and* no signal holds in-flight
     * objects: the model is fully drained.  O(boxes + signals); poll
     * sparingly.
     */
    bool
    quiescent() const
    {
        return allEmpty() && _binder.totalInFlight() == 0;
    }

  private:
    /** Settle the sleeping boxes, then close the statistics window
     * ending at the current tick. */
    void
    closeWindow()
    {
        settle();
        _stats.closeAllWindows();
    }

    SignalBinder _binder;
    StatisticManager _stats;
    std::vector<std::unique_ptr<ClockDomain>> _domains;
    std::unique_ptr<SignalTraceWriter> _tracer;
    std::unique_ptr<EventTrace> _eventTrace;
    Cycle _tick = 0;
    bool _idleSkip = true;
};

} // namespace attila::sim

#endif // ATTILA_SIM_SIMULATOR_HH
