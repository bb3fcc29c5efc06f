/**
 * @file
 * Statistics collection.
 *
 * Every statistic is registered with the StatisticManager under a
 * "box.stat" name.  Besides lifetime totals, the manager samples each
 * statistic over fixed cycle windows (10K cycles in the paper's
 * figures) so time-series such as per-frame texture cache hit rate or
 * unit utilization can be produced, and dumps everything as CSV —
 * the paper's statistics file.
 */

#ifndef ATTILA_SIM_STATISTICS_HH
#define ATTILA_SIM_STATISTICS_HH

#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace attila::sim
{

/** A monotonically accumulating counter with windowed sampling. */
class Statistic
{
  public:
    explicit Statistic(std::string name) : _name(std::move(name)) {}

    const std::string& name() const { return _name; }

    /** Accumulate @p n events. */
    void
    inc(u64 n = 1)
    {
        _total += n;
        _window += n;
    }

    /** Lifetime total. */
    u64 total() const { return _total; }

    /** Value accumulated in the current (unclosed) window. */
    u64 windowValue() const { return _window; }

    /** Per-window samples closed so far. */
    const std::vector<u64>& samples() const { return _samples; }

    /** Close the current window, pushing it onto the sample list. */
    void
    closeWindow()
    {
        _samples.push_back(_window);
        _window = 0;
    }

  private:
    std::string _name;
    u64 _total = 0;
    u64 _window = 0;
    std::vector<u64> _samples;
};

/**
 * Deferred accumulator for hot-loop counting.
 *
 * Incrementing a Statistic from an inner loop chases the reference
 * and touches two u64s per event.  A BatchedStat accumulates into a
 * plain local counter and folds the sum into the Statistic once per
 * clock (commit() at the end of the owning box's update), which is
 * observably identical as long as commits happen before the
 * StatisticManager closes the cycle's sampling window — the
 * simulator closes windows between master ticks, after every box
 * has updated.
 */
class BatchedStat
{
  public:
    explicit BatchedStat(Statistic& stat) : _stat(stat) {}

    void inc(u64 n = 1) { _pending += n; }

    /** Events accumulated since the last commit. */
    u64 pending() const { return _pending; }

    /** Committed total plus pending events — what total() will
     * read after the next commit. */
    u64 liveTotal() const { return _stat.total() + _pending; }

    void
    commit()
    {
        if (_pending) {
            _stat.inc(_pending);
            _pending = 0;
        }
    }

  private:
    Statistic& _stat;
    u64 _pending = 0;
};

/**
 * Name server that registers, samples and dumps statistics.
 *
 * Threading contract: every method that touches the registry map
 * (get(), find(), names(), the CSV dumps and closeAllWindows()) takes
 * the registry mutex, so lookups may run from any thread concurrently
 * with registration.  The *contents* of a Statistic are not locked:
 * they belong to the thread running the model, and a pointer
 * returned by find() is safe to read from another thread only while
 * the model is not being clocked.
 */
class StatisticManager
{
  public:
    /** Get or create the statistic "box.stat". */
    Statistic& get(const std::string& box_name,
                   const std::string& stat_name);

    /** Look up an existing statistic; nullptr when absent. */
    const Statistic* find(const std::string& full_name) const;

    /** Set the sampling window in cycles (0 disables sampling). */
    void setWindow(Cycle window) { _window = window; }
    Cycle window() const { return _window; }

    /** True when a sampling window ends at cycle @p now (every
     * nonzero multiple of the window size). */
    bool
    windowEndsAt(Cycle now) const
    {
        return _window != 0 && now != 0 && now % _window == 0;
    }

    /** Advance the sampling clock to @p now, closing the window that
     * ends there (the Simulator settles sleeping boxes first and
     * closes it directly). */
    void
    cycle(Cycle now)
    {
        if (windowEndsAt(now))
            closeAllWindows();
    }

    /** Close the current window on every statistic. */
    void closeAllWindows();

    /** Number of windows closed so far. */
    std::size_t sampleCount() const { return _sampleCount; }

    /** All registered statistic names, sorted. */
    std::vector<std::string> names() const;

    /**
     * Dump one row per closed window, one column per statistic, as
     * CSV with a header row.
     */
    void writeCsv(std::ostream& os) const;

    /** Dump lifetime totals as "name,total" CSV. */
    void writeTotalsCsv(std::ostream& os) const;

  private:
    std::map<std::string, std::unique_ptr<Statistic>> _stats;
    mutable std::mutex _registry;
    Cycle _window = 0;
    std::size_t _sampleCount = 0;
};

} // namespace attila::sim

#endif // ATTILA_SIM_STATISTICS_HH
