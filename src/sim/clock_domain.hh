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
#include <bit>
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

    /**
     * Register a box to be clocked with this domain (not owned).  A
     * new box starts awake; a wake it requested before registration
     * is scheduled now.
     */
    void
    addBox(Box* box)
    {
        if (box->_domain)
            fatal("box '", box->name(), "' is already in clock domain '",
                  box->_domain->name(), "'");
        const u32 index = static_cast<u32>(_boxes.size());
        _boxes.push_back(box);
        if (_awake.size() * 64 < _boxes.size()) {
            _awake.push_back(0);
            _run.push_back(0);
        }
        box->_domain = this;
        box->_domainIndex = index;
        box->_settledTo = _cycle;
        setAwake(index);
        if (box->_heldWake != Box::NoWake) {
            wake(*box, box->_heldWake);
            box->_heldWake = Box::NoWake;
        }
    }

    const std::vector<Box*>& boxes() const { return _boxes; }

    /** True when this domain advances on master tick @p tick. */
    bool
    ticksAt(u64 tick) const
    {
        return tick % _divider == 0;
    }

    /**
     * Make sure @p box is clocked no later than domain cycle
     * @p cycle: set its awake bit when that is the next cycle to
     * run (or earlier), else arm a timer.  Repeating the box's last
     * timer request arms nothing new.
     */
    void
    wake(Box& box, Cycle cycle)
    {
        if (cycle <= _horizon) {
            setAwake(box._domainIndex);
            return;
        }
        if (cycle == box._timerAt)
            return;
        box._timerAt = cycle;
        _timers.push_back({cycle, box._domainIndex});
        std::push_heap(_timers.begin(), _timers.end(), laterTimer);
    }

    /**
     * Run the domain's current cycle: phase A (update) for every
     * awake box, then phase B (propagate) for the same boxes, then
     * advance the cycle counter.  Every signal has latency >= 1 and
     * writes are published only in phase B, so the order of boxes
     * within a phase cannot change the modelled behaviour; both
     * phases still run in registration order.
     *
     * A box stays awake for the next cycle when its update()
     * reported progress; otherwise it sleeps until a signal arrival,
     * a wakeAt() timer or an outside wake sets its bit again.
     * Without @p idleSkip every box runs both phases every cycle:
     * the always-clock oracle, with identical observables.
     */
    void
    clock(bool idleSkip)
    {
        const Cycle cycle = _cycle;
        while (!_timers.empty() && _timers.front().at <= cycle) {
            setAwake(_timers.front().box);
            std::pop_heap(_timers.begin(), _timers.end(), laterTimer);
            _timers.pop_back();
        }
        if (!idleSkip) {
            for (std::size_t i = 0; i < _boxes.size(); ++i)
                setAwake(static_cast<u32>(i));
        }
        _run.swap(_awake);
        std::fill(_awake.begin(), _awake.end(), u64{0});
        _horizon = cycle + 1;

        forEachBit(_run, [&](u32 i) {
            if (_boxes[i]->beginUpdate(cycle))
                setAwake(i);
        });
        forEachBit(_run, [&](u32 i) { _boxes[i]->propagate(cycle); });
        ++_cycle;
    }

    /** Complete @p n domain cycles at once (whole-domain
     * fast-forward: the skipped cycles clock no boxes). */
    void
    advanceBy(u64 n)
    {
        _cycle += n;
        _horizon = _cycle;
    }

    /** True when no box is awake for the next cycle: until the
     * earliest timer (nextWake()) fires, clock() would clock
     * nothing. */
    bool
    asleep() const
    {
        for (u64 word : _awake) {
            if (word)
                return false;
        }
        return true;
    }

    /** Earliest armed timer, or Box::NoWake. */
    Cycle
    nextWake() const
    {
        return _timers.empty() ? Box::NoWake : _timers.front().at;
    }

    /** Settle every sleeping box up to the current cycle, so
     * statistics read now are exact (see Box::settle). */
    void
    settleAll()
    {
        for (Box* box : _boxes)
            box->settleTo(_cycle);
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
    struct Timer
    {
        Cycle at;
        u32 box;
    };

    /** Heap order: the earliest timer on top. */
    static bool
    laterTimer(const Timer& a, const Timer& b)
    {
        return a.at > b.at;
    }

    void
    setAwake(u32 index)
    {
        _awake[index >> 6] |= u64{1} << (index & 63);
    }

    /** Call @p fn with every set bit of @p bits, in index order. */
    template <typename Fn>
    static void
    forEachBit(const std::vector<u64>& bits, Fn&& fn)
    {
        for (std::size_t w = 0; w < bits.size(); ++w) {
            for (u64 word = bits[w]; word; word &= word - 1) {
                fn(static_cast<u32>(w * 64 +
                                    std::countr_zero(word)));
            }
        }
    }

    std::string _name;
    u32 _divider;
    u64 _frequencyMHz = 0;
    std::vector<Box*> _boxes;
    /** Boxes to clock at the next clock() (one bit per box). */
    std::vector<u64> _awake;
    /** The boxes clock() is running this cycle. */
    std::vector<u64> _run;
    /** Min-heap of wake timers. */
    std::vector<Timer> _timers;
    Cycle _cycle = 0;
    /** The next cycle whose awake set is still open: a wake at or
     * before it sets the awake bit instead of arming a timer. */
    Cycle _horizon = 0;
};

inline void
Box::wakeAt(Cycle cycle)
{
    if (_domain)
        _domain->wake(*this, cycle);
    else if (cycle < _heldWake)
        _heldWake = cycle;
}

} // namespace attila::sim

#endif // ATTILA_SIM_CLOCK_DOMAIN_HH
