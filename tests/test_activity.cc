/**
 * @file
 * Tests for the activity-driven clocking contract: busy()/wakeAt()
 * hints, automatic re-activation on signal delivery, and the
 * bit-exactness of whole-model fast-forward (statistics windows and
 * cycle counts must not depend on whether idle skipping is enabled).
 */

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "sim/box.hh"
#include "sim/signal.hh"
#include "sim/signal_binder.hh"
#include "sim/simulator.hh"
#include "sim/statistics.hh"

using namespace attila;
using namespace attila::sim;

namespace
{

/** Fires every @p period cycles via wakeAt(), never busy between
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

    void
    update(Cycle cycle) override
    {
        updates.push_back(cycle);
        wakeAt(cycle + _period);
    }

    bool busy() const override { return false; }

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

    void
    update(Cycle cycle) override
    {
        if (cycle == _fireAt)
            _out->write(cycle, std::make_shared<DynamicObject>());
    }

    bool busy() const override { return false; }

  private:
    Signal* _out = nullptr;
    Cycle _fireAt;
};

/** Stateless consumer: never busy, never schedules a wakeup.  It can
 * only run again because arriving signal data re-activates it. */
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

    void
    update(Cycle cycle) override
    {
        if (_in->read(cycle)) {
            receivedAt.push_back(cycle);
            _stat.inc();
        }
    }

    bool busy() const override { return false; }

    std::vector<Cycle> receivedAt;

  private:
    Signal* _in = nullptr;
    Statistic& _stat;
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

// Delivering an object into a sleeping box's input must re-activate
// it in time to observe the arrival, without any wakeAt cooperation
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
