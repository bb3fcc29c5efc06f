/**
 * @file
 * Unit tests for the boxes-and-signals simulation framework.
 */

#include <cstdio>
#include <fstream>
#include <thread>

#include <gtest/gtest.h>

#include "sim/box.hh"
#include "sim/logging.hh"
#include "sim/object_pool.hh"
#include "sim/signal.hh"
#include "sim/signal_binder.hh"
#include "sim/signal_trace.hh"
#include "sim/simulator.hh"
#include "sim/statistics.hh"

using namespace attila;
using namespace attila::sim;

namespace
{

DynamicObjectPtr
makeObj(const std::string& info = "")
{
    auto obj = std::make_shared<DynamicObject>();
    obj->setInfo(info);
    return obj;
}

/** Minimal box for binder tests. */
class NullBox : public Box
{
  public:
    NullBox(SignalBinder& binder, StatisticManager& stats,
            std::string name)
        : Box(binder, stats, std::move(name))
    {}

    bool update(Cycle) override { return true; }

    Signal*
    addInput(const std::string& name, u32 bw, u32 lat)
    {
        return input(name, bw, lat);
    }

    Signal*
    addOutput(const std::string& name, u32 bw, u32 lat)
    {
        return output(name, bw, lat);
    }
};

} // anonymous namespace

TEST(Signal, DeliversAfterLatency)
{
    Signal sig("s", 1, 3);
    auto obj = makeObj("x");
    sig.write(10, obj);
    EXPECT_EQ(sig.read(11), nullptr);
    EXPECT_EQ(sig.read(12), nullptr);
    auto got = sig.read(13);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->id(), obj->id());
    // Nothing left afterwards.
    EXPECT_EQ(sig.read(13), nullptr);
}

TEST(Signal, RespectsBandwidthWithinCycle)
{
    Signal sig("s", 2, 1);
    sig.write(0, makeObj());
    sig.write(0, makeObj());
    EXPECT_FALSE(sig.canWrite(0));
    EXPECT_THROW(sig.write(0, makeObj()), SimError);
}

TEST(Signal, BandwidthRefreshesEachCycle)
{
    Signal sig("s", 1, 2);
    sig.write(0, makeObj());
    EXPECT_TRUE(sig.canWrite(1));
    sig.write(1, makeObj());
    ASSERT_NE(sig.read(2), nullptr);
    ASSERT_NE(sig.read(3), nullptr);
}

TEST(Signal, DetectsDataLoss)
{
    Signal sig("s", 1, 2);
    sig.write(0, makeObj());
    // Never read; writing the slot again a full lap later must
    // detect the lost object.  The ring is rounded up to a power of
    // two (4 slots for latency 2), so the lap is 4 cycles.
    EXPECT_THROW(sig.write(4, makeObj()), SimError);
}

TEST(Signal, MultipleObjectsSameCycleFifo)
{
    Signal sig("s", 4, 1);
    auto a = makeObj("a");
    auto b = makeObj("b");
    sig.write(5, a);
    sig.write(5, b);
    EXPECT_EQ(sig.pendingAt(6), 2u);
    EXPECT_EQ(sig.read(6)->info(), "a");
    EXPECT_EQ(sig.read(6)->info(), "b");
}

TEST(Signal, RejectsZeroBandwidthOrLatency)
{
    EXPECT_THROW(Signal("s", 0, 1), FatalError);
    EXPECT_THROW(Signal("s", 1, 0), FatalError);
}

TEST(SignalBinder, ConnectsTwoEnds)
{
    SignalBinder binder;
    StatisticManager stats;
    NullBox producer(binder, stats, "producer");
    NullBox consumer(binder, stats, "consumer");
    Signal* out = producer.addOutput("wire", 2, 3);
    Signal* in = consumer.addInput("wire", 2, 3);
    EXPECT_EQ(out, in);
    EXPECT_NO_THROW(binder.checkConnectivity());
    EXPECT_EQ(binder.writerOf("wire"), "producer");
    EXPECT_EQ(binder.readerOf("wire"), "consumer");
}

TEST(SignalBinder, RejectsInterfaceMismatch)
{
    SignalBinder binder;
    StatisticManager stats;
    NullBox producer(binder, stats, "producer");
    NullBox consumer(binder, stats, "consumer");
    producer.addOutput("wire", 2, 3);
    EXPECT_THROW(consumer.addInput("wire", 2, 4), FatalError);
}

TEST(SignalBinder, RejectsDoubleWriter)
{
    SignalBinder binder;
    StatisticManager stats;
    NullBox a(binder, stats, "a");
    NullBox b(binder, stats, "b");
    a.addOutput("wire", 1, 1);
    EXPECT_THROW(b.addOutput("wire", 1, 1), FatalError);
}

TEST(SignalBinder, ReportsDanglingSignals)
{
    SignalBinder binder;
    StatisticManager stats;
    NullBox a(binder, stats, "a");
    a.addOutput("wire", 1, 1);
    EXPECT_THROW(binder.checkConnectivity(), FatalError);
}

TEST(ObjectPool, RecyclesStorage)
{
    ObjectPool<DynamicObject> pool;
    void* first = nullptr;
    {
        auto obj = pool.acquire();
        first = obj.get();
    }
    EXPECT_EQ(pool.freeCount(), 1u);
    auto again = pool.acquire();
    EXPECT_EQ(again.get(), first);
    EXPECT_EQ(pool.allocated(), 1u);
    EXPECT_EQ(pool.recycled(), 1u);
}

TEST(ObjectPool, SurvivesPoolDeathWithLiveObjects)
{
    std::shared_ptr<DynamicObject> survivor;
    {
        ObjectPool<DynamicObject> pool;
        survivor = pool.acquire();
    }
    // Releasing after the pool is gone must not crash.
    survivor.reset();
}

TEST(Statistics, TotalsAndWindows)
{
    StatisticManager stats;
    stats.setWindow(10);
    Statistic& s = stats.get("box", "events");
    s.inc(3);
    stats.cycle(10); // Window boundary closes the window.
    s.inc(5);
    stats.cycle(20);
    EXPECT_EQ(s.total(), 8u);
    ASSERT_EQ(s.samples().size(), 2u);
    EXPECT_EQ(s.samples()[0], 3u);
    EXPECT_EQ(s.samples()[1], 5u);
}

TEST(Statistics, LateRegistrationPadsWindows)
{
    StatisticManager stats;
    stats.setWindow(10);
    stats.get("box", "early").inc(1);
    stats.cycle(10);
    Statistic& late = stats.get("box", "late");
    late.inc(2);
    stats.cycle(20);
    ASSERT_EQ(late.samples().size(), 2u);
    EXPECT_EQ(late.samples()[0], 0u);
    EXPECT_EQ(late.samples()[1], 2u);
}

TEST(Statistics, CsvOutputShape)
{
    StatisticManager stats;
    stats.setWindow(5);
    stats.get("a", "x").inc(7);
    stats.cycle(5);
    std::ostringstream os;
    stats.writeCsv(os);
    EXPECT_EQ(os.str(), "window,a.x\n0,7\n");
    std::ostringstream totals;
    stats.writeTotalsCsv(totals);
    EXPECT_EQ(totals.str(), "statistic,total\na.x,7\n");
}

TEST(SignalTrace, RoundTrip)
{
    const std::string path = "test_signal_trace.tmp";
    {
        SignalTraceWriter writer(path);
        auto obj = makeObj("hello|world");
        obj->setColor(7);
        writer.record(42, "pipe.stage", *obj);
        writer.record(43, "pipe.stage", *makeObj("second"));
        writer.record(43, "other", *makeObj());
    }
    SignalTraceReader reader(path);
    ASSERT_EQ(reader.records().size(), 3u);
    EXPECT_EQ(reader.records()[0].cycle, 42u);
    EXPECT_EQ(reader.records()[0].signal, "pipe.stage");
    EXPECT_EQ(reader.records()[0].color, 7u);
    EXPECT_EQ(reader.records()[0].info, "hello|world");
    EXPECT_EQ(reader.activity("pipe.stage", 42, 44), 2u);
    EXPECT_EQ(reader.activity("pipe.stage", 43, 44), 1u);
    EXPECT_EQ(reader.activity("absent", 0, 100), 0u);
    EXPECT_EQ(reader.signalNames().size(), 2u);
    std::remove(path.c_str());
}

TEST(SignalTrace, RoundTripEscapedCharacters)
{
    // '|' is the field separator and '\' the escape character; both,
    // plus embedded newlines, must survive write → read unchanged in
    // every escaped field (signal name, trail, info).
    const std::string path = "test_signal_trace_esc.tmp";
    const std::string nasty = "a|b\\c\nd\\\\|e";
    DynamicObject parent;
    {
        SignalTraceWriter writer(path);
        auto obj = makeObj(nasty);
        obj->copyTrailFrom(parent);
        writer.record(1, "stage|odd\\name", *obj);
        writer.record(2, "plain", *makeObj("\\n is not a newline"));
    }
    SignalTraceReader reader(path);
    ASSERT_EQ(reader.records().size(), 2u);
    EXPECT_EQ(reader.records()[0].signal, "stage|odd\\name");
    EXPECT_EQ(reader.records()[0].info, nasty);
    EXPECT_EQ(reader.records()[0].trail,
              std::to_string(parent.id()));
    EXPECT_EQ(reader.records()[1].info, "\\n is not a newline");
    std::remove(path.c_str());
}

namespace
{

/** Diagnostic text from parsing @p body as a signal trace file. */
std::string
traceParseError(const std::string& body)
{
    const std::string path = "test_signal_trace_bad.tmp";
    {
        std::ofstream out(path);
        out << body;
    }
    std::string message;
    try {
        SignalTraceReader reader(path);
        ADD_FAILURE() << "expected FatalError for: " << body;
    } catch (const FatalError& e) {
        message = e.what();
    }
    std::remove(path.c_str());
    return message;
}

} // anonymous namespace

TEST(SignalTrace, CorruptInputFatalsWithLocation)
{
    // Non-numeric cycle: diagnostic names file, line and content.
    std::string msg = traceParseError("# header\nbogus|s|1|t|0|i\n");
    EXPECT_NE(msg.find("test_signal_trace_bad.tmp:2"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("non-numeric cycle"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("bogus|s|1|t|0|i"), std::string::npos) << msg;

    // Negative numbers are not unsigned fields.
    msg = traceParseError("-4|s|1|t|0|i\n");
    EXPECT_NE(msg.find("non-numeric cycle"), std::string::npos)
        << msg;

    // Overflow past u64 in the object id.
    msg = traceParseError("1|s|99999999999999999999|t|0|i\n");
    EXPECT_NE(msg.find("overflowing object id"), std::string::npos)
        << msg;

    // A color that fits u64 but not u32.
    msg = traceParseError("1|s|1|t|4294967296|i\n");
    EXPECT_NE(msg.find("overflowing color"), std::string::npos)
        << msg;

    // Truncated line: missing fields are named.
    msg = traceParseError("7|only_two\n");
    EXPECT_NE(msg.find("missing object id"), std::string::npos)
        << msg;

    // Empty cycle field.
    msg = traceParseError("|s|1|t|0|i\n");
    EXPECT_NE(msg.find("empty cycle"), std::string::npos) << msg;
}

TEST(SignalTrace, ActivityWindowIsHalfOpen)
{
    // activity(from, to) counts records with from <= cycle < to.
    const std::string path = "test_signal_trace_act.tmp";
    {
        SignalTraceWriter writer(path);
        writer.record(10, "s", *makeObj());
        writer.record(20, "s", *makeObj());
    }
    SignalTraceReader reader(path);
    EXPECT_EQ(reader.activity("s", 10, 20), 1u); // 20 excluded.
    EXPECT_EQ(reader.activity("s", 10, 21), 2u);
    EXPECT_EQ(reader.activity("s", 11, 20), 0u);
    EXPECT_EQ(reader.activity("s", 11, 21), 1u);
    EXPECT_EQ(reader.activity("s", 10, 10), 0u); // Empty window.
    EXPECT_EQ(reader.activity("s", 0, 10), 0u);
    std::remove(path.c_str());
}

TEST(Statistics, ConcurrentGetAndFind)
{
    // get() may insert from some threads while others call
    // find()/names(); every registry accessor must take the lock.
    // Run under TSan this is the regression test for the find() race.
    StatisticManager stats;
    stats.setWindow(100);
    constexpr u32 kThreads = 4;
    constexpr u32 kIters = 200;
    std::vector<std::thread> pool;
    for (u32 t = 0; t < kThreads; ++t) {
        pool.emplace_back([&stats, t] {
            const std::string box = "box" + std::to_string(t);
            for (u32 i = 0; i < kIters; ++i) {
                stats.get(box, "ctr" + std::to_string(i)).inc();
                // Probe the registry only: reading the *counter* of
                // a statistic another thread owns is outside the
                // threading contract, so don't dereference it here.
                const std::string other =
                    "box" + std::to_string((t + 1) % kThreads) +
                    ".ctr" + std::to_string(i);
                [[maybe_unused]] const Statistic* found =
                    stats.find(other);
                if (i % 50 == 0) {
                    EXPECT_GE(stats.names().size(), 1u);
                }
            }
        });
    }
    for (auto& thread : pool)
        thread.join();
    EXPECT_EQ(stats.names().size(), kThreads * kIters);
    for (u32 t = 0; t < kThreads; ++t) {
        const Statistic* s =
            stats.find("box" + std::to_string(t) + ".ctr0");
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->total(), 1u);
    }
}

TEST(DynamicObject, CookieTrail)
{
    DynamicObject parent;
    DynamicObject child;
    child.copyTrailFrom(parent);
    DynamicObject grandchild;
    grandchild.copyTrailFrom(child);
    ASSERT_EQ(grandchild.cookies().size(), 2u);
    EXPECT_EQ(grandchild.cookies()[0], parent.id());
    EXPECT_EQ(grandchild.cookies()[1], child.id());
    EXPECT_EQ(grandchild.trailString(),
              std::to_string(parent.id()) + "." +
                  std::to_string(child.id()));
}

// ===== Two-phase write buffering ===================================

TEST(SignalBuffered, StagedWritesInvisibleUntilCommit)
{
    Signal sig("s", 1, 1);
    sig.setBuffered(true);
    sig.write(0, makeObj("x"));
    EXPECT_EQ(sig.pendingWrites(), 1u);
    // Not yet published: the reader must not see it.
    EXPECT_EQ(sig.read(1), nullptr);
    sig.commit();
    EXPECT_EQ(sig.pendingWrites(), 0u);
    auto got = sig.read(1);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->info(), "x");
}

TEST(SignalBuffered, DisablingBufferingFlushesPending)
{
    Signal sig("s", 1, 1);
    sig.setBuffered(true);
    sig.write(0, makeObj());
    sig.setBuffered(false);
    EXPECT_EQ(sig.pendingWrites(), 0u);
    EXPECT_NE(sig.read(1), nullptr);
}

TEST(SignalBuffered, CanWriteCountsPendingWrites)
{
    Signal sig("s", 2, 1);
    sig.setBuffered(true);
    EXPECT_TRUE(sig.canWrite(0));
    sig.write(0, makeObj());
    EXPECT_TRUE(sig.canWrite(0));
    sig.write(0, makeObj());
    EXPECT_FALSE(sig.canWrite(0));
}

/** The exact diagnostic text from a failing write/commit. */
template <typename Fn>
std::string
simErrorMessage(Fn&& fn)
{
    try {
        fn();
    } catch (const SimError& e) {
        return e.what();
    }
    ADD_FAILURE() << "expected SimError";
    return {};
}

TEST(SignalBuffered, BandwidthDiagnosticMatchesImmediateMode)
{
    const std::string immediate = simErrorMessage([] {
        Signal sig("s", 2, 1);
        sig.write(7, makeObj());
        sig.write(7, makeObj());
        sig.write(7, makeObj());
    });
    const std::string buffered = simErrorMessage([] {
        Signal sig("s", 2, 1);
        sig.setBuffered(true);
        sig.write(7, makeObj());
        sig.write(7, makeObj());
        sig.write(7, makeObj());
    });
    EXPECT_FALSE(immediate.empty());
    EXPECT_EQ(immediate, buffered);
}

TEST(SignalBuffered, DataLossDiagnosticMatchesImmediateMode)
{
    const std::string immediate = simErrorMessage([] {
        Signal sig("s", 1, 2);
        sig.write(0, makeObj());
        sig.write(4, makeObj()); // Same slot one lap on, never read.
    });
    const std::string buffered = simErrorMessage([] {
        Signal sig("s", 1, 2);
        sig.setBuffered(true);
        sig.write(0, makeObj());
        sig.commit();
        sig.write(4, makeObj());
        sig.commit(); // Loss detected when the write publishes.
    });
    EXPECT_FALSE(immediate.empty());
    EXPECT_EQ(immediate, buffered);
}

TEST(SignalBuffered, InFlightCountsSlotsAndPending)
{
    Signal sig("s", 1, 4);
    sig.setBuffered(true);
    EXPECT_EQ(sig.inFlight(), 0u);
    sig.write(0, makeObj());
    EXPECT_EQ(sig.inFlight(), 1u); // Staged.
    sig.commit();
    EXPECT_EQ(sig.inFlight(), 1u); // Travelling.
    ASSERT_NE(sig.read(4), nullptr);
    EXPECT_EQ(sig.inFlight(), 0u);
}

// ===== Clock domains and schedulers ================================

namespace
{

/** Emits one object per cycle for `count` cycles. */
class PulseBox : public Box
{
  public:
    PulseBox(SignalBinder& binder, StatisticManager& stats,
             std::string name, std::string wire, u32 count)
        : Box(binder, stats, std::move(name)), _count(count)
    {
        _out = output(std::move(wire), 1, 1);
    }

    bool
    update(Cycle cycle) override
    {
        if (_sent < _count) {
            _out->write(cycle, makeObj());
            ++_sent;
            stat("sent").inc();
        }
        return true;
    }

    bool empty() const override { return _sent >= _count; }

  private:
    Signal* _out;
    u32 _count;
    u32 _sent = 0;
};

/** Counts objects received on its input wire. */
class SinkBox : public Box
{
  public:
    SinkBox(SignalBinder& binder, StatisticManager& stats,
            std::string name, std::string wire)
        : Box(binder, stats, std::move(name))
    {
        _in = input(std::move(wire), 1, 1);
    }

    bool
    update(Cycle cycle) override
    {
        if (_in->read(cycle)) {
            ++received;
            stat("received").inc();
        }
        return true;
    }

    Signal* _in;
    u32 received = 0;
};

/** Box whose update panics at a given cycle. */
class FaultyBox : public Box
{
  public:
    FaultyBox(SignalBinder& binder, StatisticManager& stats,
              std::string name, Cycle fault_cycle)
        : Box(binder, stats, std::move(name)), _fault(fault_cycle)
    {}

    bool
    update(Cycle cycle) override
    {
        if (cycle == _fault)
            panic("box '", name(), "': injected fault at cycle ",
                  cycle);
        return true;
    }

  private:
    Cycle _fault;
};

} // anonymous namespace

TEST(Simulator, MeshDeliversEveryObject)
{
    Simulator sim;
    std::vector<std::unique_ptr<PulseBox>> producers;
    std::vector<std::unique_ptr<SinkBox>> sinks;
    for (u32 i = 0; i < 6; ++i) {
        const std::string wire = "wire" + std::to_string(i);
        producers.push_back(std::make_unique<PulseBox>(
            sim.binder(), sim.stats(), "producer" + std::to_string(i),
            wire, 10 + i));
        sinks.push_back(std::make_unique<SinkBox>(
            sim.binder(), sim.stats(), "sink" + std::to_string(i),
            wire));
        sim.addBox(producers.back().get());
        sim.addBox(sinks.back().get());
    }
    sim.run(32);
    EXPECT_TRUE(sim.quiescent());
    for (u32 i = 0; i < 6; ++i) {
        EXPECT_EQ(sinks[i]->received, 10 + i);
        EXPECT_EQ(sim.stats()
                      .find("sink" + std::to_string(i) + ".received")
                      ->total(),
                  10 + i);
    }
}

TEST(Simulator, BoxErrorSurfacesFromStep)
{
    Simulator sim;
    std::vector<std::unique_ptr<FaultyBox>> boxes;
    for (u32 i = 0; i < 8; ++i) {
        boxes.push_back(std::make_unique<FaultyBox>(
            sim.binder(), sim.stats(), "faulty" + std::to_string(i),
            i == 5 ? 3u : 1'000'000u));
        sim.addBox(boxes.back().get());
    }
    sim.run(3);
    EXPECT_THROW(sim.step(), SimError);
}

TEST(ClockDomain, DividerGatesTicks)
{
    Simulator sim;

    class TickBox : public Box
    {
      public:
        TickBox(SignalBinder& binder, StatisticManager& stats,
                std::string name)
            : Box(binder, stats, std::move(name))
        {}
        bool update(Cycle) override
        {
            ++ticks;
            return true;
        }
        u32 ticks = 0;
    };

    TickBox fast(sim.binder(), sim.stats(), "fast");
    TickBox slow(sim.binder(), sim.stats(), "slow");
    sim.domain("core").addBox(&fast);
    sim.domain("memory", 3).addBox(&slow);

    sim.run(9);
    EXPECT_EQ(fast.ticks, 9u);
    EXPECT_EQ(slow.ticks, 3u);
    EXPECT_EQ(sim.domain("core").cycle(), 9u);
    EXPECT_EQ(sim.domain("memory", 3).cycle(), 3u);

    // Re-requesting an existing domain with a different divider is a
    // configuration error.
    EXPECT_THROW(sim.domain("memory", 2), FatalError);
}

TEST(Simulator, DrainDetection)
{
    Simulator sim;

    class CountBox : public Box
    {
      public:
        CountBox(SignalBinder& binder, StatisticManager& stats)
            : Box(binder, stats, "count")
        {}
        bool update(Cycle) override
        {
            ++ticks;
            return true;
        }
        bool empty() const override { return ticks >= 5; }
        u32 ticks = 0;
    };

    CountBox box(sim.binder(), sim.stats());
    sim.addBox(&box);
    EXPECT_FALSE(sim.allEmpty());
    sim.run(5);
    EXPECT_TRUE(sim.allEmpty());
    EXPECT_EQ(sim.cycle(), 5u);
}
