#include "sim/signal.hh"

#include "sim/box.hh"
#include "sim/event_trace.hh"
#include "sim/logging.hh"
#include "sim/signal_trace.hh"
#include "sim/statistics.hh"

namespace attila::sim
{

Signal::Signal(std::string name, u32 bandwidth, u32 latency)
    : _name(std::move(name)), _bandwidth(bandwidth), _latency(latency)
{
    if (_bandwidth < 1)
        fatal("signal '", _name, "': bandwidth must be >= 1");
    if (_latency < 1)
        fatal("signal '", _name, "': latency must be >= 1");
    // One slot per in-flight arrival cycle.  An object written at
    // cycle c arrives at c + latency, so at most latency + 1 distinct
    // arrival cycles are live at once.  Rounded up to a power of two
    // so the ring index on the per-cycle poll path is a mask instead
    // of a division; each slot still validates its arrival cycle, so
    // the extra slots are just never-hit ring positions.
    std::size_t slots = 1;
    while (slots < static_cast<std::size_t>(_latency) + 1)
        slots <<= 1;
    _slots.resize(slots);
    _slotMask = slots - 1;
    for (auto& slot : _slots)
        slot.objects.reserve(_bandwidth);
}

Signal::Slot&
Signal::slotFor(Cycle arrival)
{
    return _slots[arrival & _slotMask];
}

const Signal::Slot&
Signal::slotFor(Cycle arrival) const
{
    return _slots[arrival & _slotMask];
}

void
Signal::write(Cycle cycle, DynamicObjectPtr obj)
{
    if (!obj)
        panic("signal '", _name, "': writing null object at cycle ",
              cycle);

    if (_buffered) {
        // Bandwidth is a per-cycle property of the wire, so it is
        // checked at write time even though publication is deferred.
        // All staged writes belong to the current cycle (commit runs
        // every cycle), but count per-cycle anyway so direct harness
        // use stays well-defined.
        u32 sameCycle = 0;
        for (const PendingWrite& p : _pending) {
            if (p.cycle == cycle)
                ++sameCycle;
        }
        if (sameCycle >= _bandwidth) {
            panic("signal '", _name, "': bandwidth exceeded at cycle ",
                  cycle, " (bandwidth ", _bandwidth, ")");
        }
        _pending.push_back({cycle, std::move(obj)});
        return;
    }

    publish(cycle, std::move(obj));
}

void
Signal::publish(Cycle cycle, DynamicObjectPtr obj)
{
    const Cycle arrival = cycle + _latency;
    Slot& slot = slotFor(arrival);

    if (!slot.objects.empty() && slot.arrival != arrival) {
        // The slot still holds objects from a previous lap of the
        // ring.  They arrived at their reader's cycle and were never
        // read: modelled data was lost.
        if (!slot.drained()) {
            panic("signal '", _name, "': data loss — ",
                  slot.objects.size() - slot.readIndex,
                  " object(s) that arrived at cycle ", slot.arrival,
                  " were never read (write at cycle ", cycle, ")");
        }
        slot.objects.clear();
        slot.readIndex = 0;
    }

    if (slot.objects.empty()) {
        slot.arrival = arrival;
        slot.readIndex = 0;
    }

    if (slot.objects.size() >= _bandwidth) {
        panic("signal '", _name, "': bandwidth exceeded at cycle ",
              cycle, " (bandwidth ", _bandwidth, ")");
    }

    if (_tracer)
        _tracer->record(cycle, _name, *obj);

    if constexpr (kEventTraceCompiled) {
        if (_eventTrace) [[unlikely]] {
            _eventTrace->emit(EventKind::SignalWrite, cycle,
                              _eventTraceId, obj->color(), obj->id(),
                              traceParentOf(*obj));
        }
    }

    slot.objects.push_back(std::move(obj));
    if (_reader)
        _reader->wakeAt(arrival);
    ++_live;
    ++_totalWrites;
    if (_writeStat)
        _writeStat->inc();
}

void
Signal::commitPending()
{
    for (PendingWrite& p : _pending)
        publish(p.cycle, std::move(p.obj));
    _pending.clear();
}

void
Signal::setBuffered(bool buffered)
{
    if (!buffered)
        commit();
    _buffered = buffered;
}

bool
Signal::canWriteBuffered(Cycle cycle) const
{
    u32 sameCycle = 0;
    for (const PendingWrite& p : _pending) {
        if (p.cycle == cycle)
            ++sameCycle;
    }
    return sameCycle < _bandwidth;
}

u64
Signal::inFlight() const
{
    return _pending.size() + _live;
}

} // namespace attila::sim
