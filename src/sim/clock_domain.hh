/**
 * @file
 * ClockDomain: a group of boxes sharing one clock.
 *
 * Modern GPUs run different parts of the chip at different
 * frequencies (core, memory, display).  A ClockDomain groups the
 * boxes of one such region and owns their cycle counter; the
 * Simulator ticks a master clock and steps each domain whose divider
 * matches, handing the domain's own cycle to the boxes.
 *
 * A divider of N means the domain advances once every N master
 * ticks; divider 1 is the master rate.  Signals between boxes of
 * different-rate domains are not translated — cross-rate traffic
 * must go through an explicit bridge box.  (All of the ATTILA
 * pipeline currently runs in one divider-1 "gpu" domain; the
 * abstraction is the seam for memory/display clocks.)
 */

#ifndef ATTILA_SIM_CLOCK_DOMAIN_HH
#define ATTILA_SIM_CLOCK_DOMAIN_HH

#include <algorithm>
#include <string>
#include <vector>

#include "sim/box.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace attila::sim
{

/** A named group of boxes advanced by a common clock. */
class ClockDomain
{
  public:
    /**
     * @param name Unique domain name ("gpu", "memory", ...).
     * @param divider Master ticks per domain cycle (>= 1).
     */
    explicit ClockDomain(std::string name, u32 divider = 1)
        : _name(std::move(name)), _divider(divider)
    {
        if (_divider < 1)
            fatal("clock domain '", _name,
                  "': divider must be >= 1");
    }

    ClockDomain(const ClockDomain&) = delete;
    ClockDomain& operator=(const ClockDomain&) = delete;

    const std::string& name() const { return _name; }
    u32 divider() const { return _divider; }

    /**
     * Nominal frequency metadata in MHz (0 = unspecified).  Purely
     * informational — timing is governed by the divider — but it is
     * what configuration files and reports call the domain's rate,
     * so the owner records it here for introspection.
     */
    void setFrequencyMHz(u64 mhz) { _frequencyMHz = mhz; }
    u64 frequencyMHz() const { return _frequencyMHz; }

    /** Domain-local cycle counter (cycles completed so far). */
    Cycle cycle() const { return _cycle; }

    /** Register a box to be clocked with this domain (not owned). */
    void
    addBox(Box* box)
    {
        _boxes.push_back(box);
    }

    const std::vector<Box*>& boxes() const { return _boxes; }

    /** True when this domain advances on master tick @p tick. */
    bool
    ticksAt(u64 tick) const
    {
        return tick % _divider == 0;
    }

    /**
     * Run the domain's current cycle: phase A (update) for every
     * box, then phase B (propagate), then advance the cycle counter.
     * Every signal has latency >= 1 and writes are published only in
     * phase B, so the order of boxes within a phase cannot change the
     * modelled behaviour.
     *
     * With @p idleSkip, boxes that are provably idle (Box::idleAt)
     * skip both phases, and whether every box was skipped is recorded
     * for the simulator's fast-forward check.  Without it every box
     * runs both phases: the always-clock reference path, with
     * identical observables.
     */
    void
    clock(bool idleSkip)
    {
        bool allIdle = true;
        for (Box* box : _boxes) {
            const bool skip = idleSkip && box->idleAt(_cycle);
            box->markSkipped(skip);
            if (!skip) {
                allIdle = false;
                box->beginUpdate(_cycle);
            }
        }
        for (Box* box : _boxes) {
            if (!box->skipped())
                box->propagate(_cycle);
        }
        _lastAllIdle = allIdle;
        ++_cycle;
    }

    /** Complete @p n domain cycles at once (whole-domain
     * fast-forward: the skipped cycles clock no boxes). */
    void advanceBy(u64 n) { _cycle += n; }

    /** Whether the last clock() skipped every box; read by the
     * simulator's fast-forward check. */
    bool lastAllIdle() const { return _lastAllIdle; }

    /** Earliest wakeup scheduled by any box, or Box::NoWake. */
    Cycle
    nextWake() const
    {
        Cycle wake = Box::NoWake;
        for (const Box* box : _boxes)
            wake = std::min(wake, box->nextWake());
        return wake;
    }

    /** True when every box of the domain reports no in-flight work. */
    bool
    allEmpty() const
    {
        for (const Box* box : _boxes) {
            if (!box->empty())
                return false;
        }
        return true;
    }

  private:
    std::string _name;
    u32 _divider;
    u64 _frequencyMHz = 0;
    std::vector<Box*> _boxes;
    Cycle _cycle = 0;
    bool _lastAllIdle = false;
};

} // namespace attila::sim

#endif // ATTILA_SIM_CLOCK_DOMAIN_HH
