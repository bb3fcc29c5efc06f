/**
 * @file
 * Signal trace output for the Signal Trace Visualizer.
 *
 * When enabled, every object written into a traced signal emits one
 * record: cycle, signal name, object id, cookie trail, color and info
 * string.  The SignalTraceReader parses the file back and computes
 * per-signal occupancy, which the visualizer example renders as an
 * ASCII timeline for performance debugging.
 */

#ifndef ATTILA_SIM_SIGNAL_TRACE_HH
#define ATTILA_SIM_SIGNAL_TRACE_HH

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "sim/dynamic_object.hh"
#include "sim/types.hh"

namespace attila::sim
{

/** Streams signal activity records to a trace file. */
class SignalTraceWriter
{
  public:
    /** Opens @p path for writing; throws FatalError on failure. */
    explicit SignalTraceWriter(const std::string& path);
    ~SignalTraceWriter();

    /** Record one object entering @p signal_name at @p cycle. */
    void record(Cycle cycle, const std::string& signal_name,
                const DynamicObject& obj);

    /** Flush buffered records to disk. */
    void flush();

    u64 recordCount() const { return _records; }

  private:
    std::ofstream _out;
    u64 _records = 0;
};

/** One parsed record from a signal trace file. */
struct SignalTraceRecord
{
    Cycle cycle = 0;
    std::string signal;
    u64 objectId = 0;
    std::string trail;
    u32 color = 0;
    std::string info;
};

/** Parses signal trace files and derives per-signal activity. */
class SignalTraceReader
{
  public:
    /** Parse the whole trace at @p path; throws FatalError on I/O or
     * parse errors. */
    explicit SignalTraceReader(const std::string& path);

    const std::vector<SignalTraceRecord>& records() const
    {
        return _records;
    }

    /** All signal names seen in the trace, sorted. */
    std::vector<std::string> signalNames() const;

    /**
     * Number of objects written into @p signal within
     * [@p from, @p to).
     */
    u64 activity(const std::string& signal, Cycle from, Cycle to) const;

    Cycle firstCycle() const { return _firstCycle; }
    Cycle lastCycle() const { return _lastCycle; }

  private:
    std::vector<SignalTraceRecord> _records;
    std::map<std::string, std::vector<Cycle>> _bySignal;
    Cycle _firstCycle = 0;
    Cycle _lastCycle = 0;
};

} // namespace attila::sim

#endif // ATTILA_SIM_SIGNAL_TRACE_HH
