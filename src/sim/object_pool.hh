/**
 * @file
 * ObjectPool: cheap creation and destruction of DynamicObjects.
 *
 * This is the OptimizedMemory facility of the paper expressed with
 * RAII: acquire() hands out shared_ptr<T> whose deleter recycles the
 * storage into a freelist instead of returning it to the heap.  Boxes
 * that create millions of short-lived fragments per second use a pool
 * to avoid allocator churn.
 *
 * Not thread-safe: a pool and every object it hands out are used by
 * one thread at a time.  Every pool is a member of one box, so this
 * is the Gpu's own contract (see sim/simulator.hh).
 */

#ifndef ATTILA_SIM_OBJECT_POOL_HH
#define ATTILA_SIM_OBJECT_POOL_HH

#include <memory>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace attila::sim
{

/**
 * Freelist-backed pool for objects of type T.
 *
 * Objects released after the pool is destroyed are freed normally
 * (the recycling deleter keeps the freelist alive until the last
 * object dies).
 */
template <typename T>
class ObjectPool
{
  public:
    ObjectPool() : _state(std::make_shared<State>()) {}

    /** Construct (or recycle) an object. */
    template <typename... Args>
    std::shared_ptr<T>
    acquire(Args&&... args)
    {
        State& st = *_state;
        T* raw = nullptr;
        if (!st.free.empty()) {
            raw = st.free.back();
            st.free.pop_back();
            ++st.recycled;
            // Types with a poolReset() keep their heap buffers
            // (payload vectors, strings) across recycling; everything
            // else re-runs the constructor in place.
            if constexpr (sizeof...(Args) == 0 &&
                          requires(T& t) { t.poolReset(); }) {
                raw->poolReset();
            } else {
                raw->~T();
                new (raw) T(std::forward<Args>(args)...);
            }
        } else {
            ++st.allocated;
            raw = static_cast<T*>(::operator new(sizeof(T)));
            new (raw) T(std::forward<Args>(args)...);
        }
        // The deleter holds the state alive, so a release after the
        // pool object itself is gone still just parks the storage
        // (freed when the last outstanding object dies).
        return std::shared_ptr<T>(
            raw, [st = _state](T* p) { st->free.push_back(p); });
    }

    /** Total number of raw allocations performed. */
    u64 allocated() const { return _state->allocated; }
    /** Number of acquisitions served from the freelist. */
    u64 recycled() const { return _state->recycled; }
    /** Number of objects currently parked in the freelist. */
    std::size_t freeCount() const { return _state->free.size(); }

  private:
    struct State
    {
        ~State()
        {
            for (T* p : free) {
                p->~T();
                ::operator delete(p);
            }
        }

        std::vector<T*> free;
        u64 allocated = 0;
        u64 recycled = 0;
    };

    std::shared_ptr<State> _state;
};

} // namespace attila::sim

#endif // ATTILA_SIM_OBJECT_POOL_HH
