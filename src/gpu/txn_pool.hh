/**
 * @file
 * TxnAllocator: the MemTransaction source used by boxes that talk to
 * the memory controller.
 *
 * With GpuConfig::memFastPath on (the default), transactions are
 * recycled through an ObjectPool — MemTransaction::poolReset()
 * keeps the payload vector's capacity, so steady-state requests
 * allocate nothing.  With it off, every request gets a fresh
 * make_shared (the reference path for A/B runs).  Timing is
 * identical either way; only host-side allocation behaviour differs.
 */

#ifndef ATTILA_GPU_TXN_POOL_HH
#define ATTILA_GPU_TXN_POOL_HH

#include "gpu/work_objects.hh"
#include "sim/object_pool.hh"

namespace attila::gpu
{

/** Pooled (or plain, for A/B) MemTransaction factory. */
class TxnAllocator
{
  public:
    void setPooled(bool pooled) { _pooled = pooled; }

    MemTransactionPtr
    acquire()
    {
        if (_pooled)
            return _pool.acquire();
        return std::make_shared<MemTransaction>();
    }

    /** Transactions ever heap-allocated (not recycled); the
     * zero-steady-state-allocation check watches this plateau. */
    u64 allocated() const { return _pool.allocated(); }

  private:
    bool _pooled = true;
    sim::ObjectPool<MemTransaction> _pool;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_TXN_POOL_HH
