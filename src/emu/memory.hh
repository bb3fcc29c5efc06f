/**
 * @file
 * Byte-addressable memory abstractions shared by the functional
 * emulators and the timing model.
 *
 * The execution-driven design keeps all rendering data (vertex
 * buffers, textures, framebuffers) in one flat GPU memory image.  The
 * timing path moves the same bytes through caches and the memory
 * controller; functional paths (reference renderer, texture
 * emulator tests) read the image directly through MemoryReader.
 */

#ifndef ATTILA_EMU_MEMORY_HH
#define ATTILA_EMU_MEMORY_HH

#include <cstdlib>
#include <cstring>
#include <memory>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace attila::emu
{

/** Read-only view of byte-addressable memory. */
class MemoryReader
{
  public:
    virtual ~MemoryReader() = default;

    /** Copy @p size bytes at @p addr into @p out. */
    virtual void read(u32 addr, u32 size, u8* out) const = 0;

    /** Convenience typed read. */
    template <typename T>
    T
    readAs(u32 addr) const
    {
        T v;
        read(addr, sizeof(T), reinterpret_cast<u8*>(&v));
        return v;
    }
};

/**
 * Flat memory image: the GPU local memory.
 *
 * The image is zero until written and is allocated with calloc, so
 * it costs host memory only for the pages a run touches: large
 * requests are served from fresh anonymous pages that the kernel
 * maps, already zero, on first access.
 */
class GpuMemory : public MemoryReader
{
  public:
    /** @param size Memory size in bytes. */
    explicit GpuMemory(u32 size)
        : _data(static_cast<u8*>(std::calloc(size, 1))), _size(size)
    {
        if (!_data && size != 0)
            fatal("cannot allocate ", size, " bytes of GPU memory");
    }

    u32 size() const { return _size; }

    void
    read(u32 addr, u32 size, u8* out) const override
    {
        checkRange(addr, size);
        std::memcpy(out, _data.get() + addr, size);
    }

    /** Write @p size bytes from @p src at @p addr. */
    void
    write(u32 addr, u32 size, const u8* src)
    {
        checkRange(addr, size);
        std::memcpy(_data.get() + addr, src, size);
    }

    template <typename T>
    void
    writeAs(u32 addr, const T& v)
    {
        write(addr, sizeof(T), reinterpret_cast<const u8*>(&v));
    }

    /** Raw pointer access for bulk operations (e.g. the DAC dump). */
    const u8* data() const { return _data.get(); }
    u8* data() { return _data.get(); }

  private:
    void
    checkRange(u32 addr, u32 size) const
    {
        if (addr + static_cast<u64>(size) > _size) {
            panic("GPU memory access out of range: addr ", addr,
                  " size ", size, " memory ", _size);
        }
    }

    struct FreeDeleter
    {
        void operator()(u8* p) const { std::free(p); }
    };

    std::unique_ptr<u8, FreeDeleter> _data;
    u32 _size;
};

} // namespace attila::emu

#endif // ATTILA_EMU_MEMORY_HH
