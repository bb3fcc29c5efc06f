/**
 * @file
 * Tests for the activity-driven clocking contract (tick on
 * progress): a box that reports no progress sleeps until a delivery,
 * a returned credit or its wakeAt() cycle; settle() replays exactly
 * the cycles it slept; and whole-model fast-forward keeps statistics
 * windows and cycle counts identical to the always-clock oracle.
 */

#include <sstream>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "gpu/link.hh"
#include "sim/box.hh"
#include "sim/signal.hh"
#include "sim/signal_binder.hh"
#include "sim/simulator.hh"
#include "sim/statistics.hh"

using namespace attila;
using namespace attila::sim;

namespace
{

/** Fires every @p period cycles via wakeAt(), asleep between
 * firings.  Records every cycle its update() actually ran. */
class PeriodicBox : public Box
{
  public:
    PeriodicBox(SignalBinder& binder, StatisticManager& stats,
                std::string name, Cycle period)
        : Box(binder, stats, std::move(name)), _period(period)
    {
        wakeAt(0);
    }

    bool
    update(Cycle cycle) override
    {
        updates.push_back(cycle);
        wakeAt(cycle + _period);
        return false;
    }

    std::vector<Cycle> updates;

  private:
    Cycle _period;
};

/** Writes a single object at a scheduled cycle, idle otherwise. */
class OneShotProducer : public Box
{
  public:
    OneShotProducer(SignalBinder& binder, StatisticManager& stats,
                    std::string name, const std::string& wire,
                    Cycle fireAt, u32 latency)
        : Box(binder, stats, std::move(name)), _fireAt(fireAt)
    {
        _out = output(wire, 1, latency);
        wakeAt(fireAt);
    }

    bool
    update(Cycle cycle) override
    {
        if (cycle == _fireAt)
            _out->write(cycle, std::make_shared<DynamicObject>());
        return false;
    }

  private:
    Signal* _out = nullptr;
    Cycle _fireAt;
};

/** Stateless consumer: never makes progress, never schedules a
 * wakeup.  It can only run again because arriving signal data wakes
 * it. */
class SleepyConsumer : public Box
{
  public:
    SleepyConsumer(SignalBinder& binder, StatisticManager& stats,
                   std::string name, const std::string& wire,
                   u32 latency)
        : Box(binder, stats, std::move(name)),
          _stat(stats.get(this->name(), "received"))
    {
        _in = input(wire, 1, latency);
    }

    bool
    update(Cycle cycle) override
    {
        if (_in->read(cycle)) {
            receivedAt.push_back(cycle);
            _stat.inc();
        }
        return false;
    }

    std::vector<Cycle> receivedAt;

  private:
    Signal* _in = nullptr;
    Statistic& _stat;
};

/** Never makes progress.  Sends one object over a credit link at its
 * first clock (spending the link's only credit), reads a data wire,
 * and asks for one wakeup; records every cycle it is clocked. */
class BlockedBox : public Box
{
  public:
    BlockedBox(SignalBinder& binder, StatisticManager& stats,
               Cycle wake)
        : Box(binder, stats, "blocked"), _wake(wake)
    {
        _in = input("data", 1, 1);
        _tx.init(*this, binder, "link", 1, 1, 1);
    }

    bool
    update(Cycle cycle) override
    {
        clockedAt.push_back(cycle);
        _in->read(cycle);
        _tx.clock(cycle);
        if (_tx.canSend(cycle))
            _tx.send(cycle, std::make_shared<gpu::WorkObject>());
        if (cycle < _wake)
            wakeAt(_wake);
        return false;
    }

    std::vector<Cycle> clockedAt;

  private:
    Signal* _in = nullptr;
    gpu::LinkTx _tx;
    Cycle _wake;
};

/** Clocked every cycle (always reports progress): holds what the
 * link delivers and pops it at @p popAt, returning the credit. */
class PoppingConsumer : public Box
{
  public:
    PoppingConsumer(SignalBinder& binder, StatisticManager& stats,
                    Cycle popAt)
        : Box(binder, stats, "popper"), _popAt(popAt)
    {
        _rx.init(*this, binder, "link", 1, 1, 1);
    }

    bool
    update(Cycle cycle) override
    {
        _rx.clock(cycle);
        if (cycle == _popAt && !_rx.empty())
            _rx.pop(cycle);
        return true;
    }

  private:
    gpu::LinkRx<gpu::WorkObject> _rx;
    Cycle _popAt;
};

/** Stalls (a per-cycle counter, no progress) until @p unblockAt;
 * settle() replays the stall count of a stalled sleep and logs every
 * call. */
class StallBox : public Box
{
  public:
    StallBox(SignalBinder& binder, StatisticManager& stats,
             Cycle unblockAt)
        : Box(binder, stats, "staller"),
          _stalls(stats.get(name(), "stallCycles")),
          _unblockAt(unblockAt)
    {}

    bool
    update(Cycle cycle) override
    {
        _stalled = cycle < _unblockAt;
        if (_stalled) {
            _stalls.inc();
            wakeAt(_unblockAt);
        }
        return false;
    }

    void
    settle(Cycle cycles) override
    {
        settled.push_back(cycles);
        if (_stalled)
            _stalls.inc(cycles);
    }

    std::vector<Cycle> settled;

  private:
    Statistic& _stalls;
    Cycle _unblockAt;
    bool _stalled = false;
};

/** Reports progress on every update. */
class BusyBox : public Box
{
  public:
    BusyBox(SignalBinder& binder, StatisticManager& stats)
        : Box(binder, stats, "busy")
    {}

    bool
    update(Cycle cycle) override
    {
        clockedAt.push_back(cycle);
        return true;
    }

    std::vector<Cycle> clockedAt;
};

} // anonymous namespace

// A box that hints wakeAt(c) must be clocked at cycle c even when
// everything is idle and the simulator fast-forwards: skipping may
// never jump past a scheduled wakeup.
TEST(Activity, WakeAtNeverSkippedPastWakeup)
{
    Simulator sim;
    PeriodicBox box(sim.binder(), sim.stats(), "periodic", 10);
    sim.addBox(&box);
    sim.run(95);
    ASSERT_EQ(box.updates.size(), 10u);
    for (u64 i = 0; i < box.updates.size(); ++i)
        EXPECT_EQ(box.updates[i], i * 10);
    EXPECT_EQ(sim.cycle(), 95u);
}

// With idle skipping off the box is clocked every cycle; the wakeAt
// hint must be behaviour-neutral (updates are a superset).
TEST(Activity, IdleSkipOffClocksEveryCycle)
{
    Simulator sim;
    sim.setIdleSkip(false);
    PeriodicBox box(sim.binder(), sim.stats(), "periodic", 10);
    sim.addBox(&box);
    sim.run(20);
    EXPECT_EQ(box.updates.size(), 20u);
}

// Delivering an object into a sleeping box's input must wake it in
// time to observe the arrival, without any wakeAt cooperation
// from the consumer.
TEST(Activity, SignalDeliveryReactivatesSleepingConsumer)
{
    Simulator sim;
    OneShotProducer prod(sim.binder(), sim.stats(), "prod", "wire",
                         /*fireAt=*/5, /*latency=*/3);
    SleepyConsumer cons(sim.binder(), sim.stats(), "cons", "wire",
                        /*latency=*/3);
    sim.addBox(&prod);
    sim.addBox(&cons);
    sim.run(20);
    ASSERT_EQ(cons.receivedAt.size(), 1u);
    EXPECT_EQ(cons.receivedAt[0], 8u);
}

// Fast-forwarding over idle stretches must close exactly the same
// statistics windows the skipped cycles would have closed: the CSV
// dumps are bit-identical with idle skipping on and off.
TEST(Activity, FastForwardKeepsStatWindowsExact)
{
    const auto capture = [](bool idle_skip) {
        Simulator sim;
        sim.setIdleSkip(idle_skip);
        sim.stats().setWindow(8);
        PeriodicBox box(sim.binder(), sim.stats(), "periodic", 17);
        OneShotProducer prod(sim.binder(), sim.stats(), "prod",
                             "wire", 40, 2);
        SleepyConsumer cons(sim.binder(), sim.stats(), "cons",
                            "wire", 2);
        sim.addBox(&box);
        sim.addBox(&prod);
        sim.addBox(&cons);
        sim.run(100);
        std::ostringstream windows;
        std::ostringstream totals;
        sim.stats().writeCsv(windows);
        sim.stats().writeTotalsCsv(totals);
        return std::make_pair(windows.str(), totals.str());
    };
    const auto on = capture(true);
    const auto off = capture(false);
    EXPECT_EQ(on.first, off.first);
    EXPECT_EQ(on.second, off.second);
}

// When every box is quiescent and nothing is scheduled, run() must
// still account for every requested cycle (fast-forward consumes the
// budget rather than spinning).
TEST(Activity, QuiescentModelFastForwardsToBudget)
{
    Simulator sim;
    OneShotProducer prod(sim.binder(), sim.stats(), "prod", "wire",
                         3, 1);
    SleepyConsumer cons(sim.binder(), sim.stats(), "cons", "wire",
                        1);
    sim.addBox(&prod);
    sim.addBox(&cons);
    sim.run(1'000'000);
    EXPECT_EQ(sim.cycle(), 1'000'000u);
    ASSERT_EQ(cons.receivedAt.size(), 1u);
    EXPECT_EQ(cons.receivedAt[0], 4u);
}

// A box that reports no progress is clocked again only at a data
// delivery, a credit returned to its LinkTx, or its wakeAt() cycle.
TEST(Activity, NoProgressSleepsUntilDeliveryCreditOrWake)
{
    Simulator sim;
    BlockedBox blocked(sim.binder(), sim.stats(), /*wake=*/30);
    PoppingConsumer popper(sim.binder(), sim.stats(), /*popAt=*/20);
    OneShotProducer prod(sim.binder(), sim.stats(), "prod", "data",
                         /*fireAt=*/10, /*latency=*/1);
    sim.addBox(&blocked);
    sim.addBox(&popper);
    sim.addBox(&prod);
    sim.run(60);
    // Cycle 0: every box starts awake.  11: the data written at 10
    // arrives.  21: the credit of the pop at 20 comes home.  30: the
    // announced wakeup.
    EXPECT_EQ(blocked.clockedAt, (std::vector<Cycle>{0, 11, 21, 30}));
    EXPECT_EQ(blocked.clockedCycles(), 4u);
    EXPECT_EQ(popper.clockedCycles(), 60u);
    EXPECT_EQ(sim.cycle(), 60u);
}

// settle() receives exactly the cycles a box slept, split at every
// statistics window boundary, so a per-cycle stall counter gives the
// same windowed CSV with idle skipping on and off.
TEST(Activity, SettleReplaysExactlySkippedCycles)
{
    const auto capture = [](bool idle_skip) {
        Simulator sim;
        sim.setIdleSkip(idle_skip);
        sim.stats().setWindow(8);
        StallBox box(sim.binder(), sim.stats(), /*unblockAt=*/50);
        sim.addBox(&box);
        // run() settles the sleeping box before it returns.
        sim.run(45);
        sim.run(35);
        std::ostringstream windows;
        std::ostringstream totals;
        sim.stats().writeCsv(windows);
        sim.stats().writeTotalsCsv(totals);
        return std::make_tuple(windows.str(), totals.str(),
                               box.settled, box.clockedCycles());
    };
    const auto [onWindows, onTotals, onSettled, onClocks] =
        capture(true);
    const auto [offWindows, offTotals, offSettled, offClocks] =
        capture(false);
    EXPECT_EQ(onWindows, offWindows);
    EXPECT_EQ(onTotals, offTotals);
    EXPECT_NE(onTotals.find("staller.stallCycles,50"),
              std::string::npos);
    // Clocked at 0, then asleep: windows close at 8, 16, ..., 40;
    // run(45) ends at 45; a window closes at 48; the wakeup at 50
    // clocks it again; windows close at 56, 64, 72; run(35) ends at
    // 80.
    EXPECT_EQ(onSettled,
              (std::vector<Cycle>{7, 8, 8, 8, 8, 5, 3, 2, 5, 8, 8, 8}));
    EXPECT_EQ(onClocks, 2u);
    // The oracle clocks every cycle, so it never settles.
    EXPECT_TRUE(offSettled.empty());
    EXPECT_EQ(offClocks, 80u);
}

// A box that reports progress every cycle is clocked every cycle.
TEST(Activity, ProgressEveryCycleIsClockedEveryCycle)
{
    Simulator sim;
    BusyBox box(sim.binder(), sim.stats());
    PeriodicBox periodic(sim.binder(), sim.stats(), "periodic", 25);
    sim.addBox(&box);
    sim.addBox(&periodic);
    sim.run(100);
    ASSERT_EQ(box.clockedAt.size(), 100u);
    for (u64 i = 0; i < box.clockedAt.size(); ++i)
        EXPECT_EQ(box.clockedAt[i], i);
    EXPECT_EQ(box.clockedCycles(), 100u);
    EXPECT_EQ(periodic.clockedCycles(), 4u);
}
