//===- OpArena.h - Bump-pointer arena for IR objects -------------*- C++ -*-===//
///
/// \file
/// The per-context allocator behind Operation and Block storage. An OpArena
/// hands out blocks from large bump-pointer slabs and recycles erased
/// blocks through size-class free lists, so the parse→verify→rewrite hot
/// paths stop paying one `malloc`/`free` round trip per operation or
/// basic block (plus one per operand, result, region, and block argument
/// — the trailing-object layouts fold those into each object's single
/// block).
///
/// Thread model: none. An arena belongs to one IRContext, and a context
/// that creates or erases IR is written by one thread at a time (Context.h),
/// so the arena is one slab chain and one set of free-list buckets with no
/// lock. All slabs are owned by the arena and released when it is
/// destroyed.
///
/// Freed blocks are poisoned (0xA5 fill, plus ASan manual poisoning when
/// building under AddressSanitizer) so a stale Value or Operation pointer
/// dereferenced after erase() traps deterministically instead of silently
/// reading recycled bytes.
///
/// Lifetime contract: deallocate() recycles a block into a free list; the
/// underlying slab memory is only returned to the OS when the arena (i.e.
/// the owning IRContext) dies. Operations and blocks must therefore not
/// outlive their context — which was already true, since their types and
/// attributes are context-owned. See docs/memory-layout.md.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_OPARENA_H
#define IRDL_IR_OPARENA_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace irdl {

/// Point-in-time counters of one arena.
struct OpArenaStats {
  uint64_t Slabs = 0;          ///< Slabs currently allocated.
  uint64_t SlabBytes = 0;      ///< Total bytes reserved in slabs.
  uint64_t BytesLive = 0;      ///< Bytes handed out and not yet freed.
  uint64_t BytesAllocated = 0; ///< Cumulative bytes served by allocate().
  uint64_t BytesReused = 0;    ///< Cumulative bytes served from free lists.
  uint64_t NumAllocs = 0;      ///< allocate() calls.
  uint64_t NumFrees = 0;       ///< deallocate() calls.
  uint64_t FreeListHits = 0;   ///< allocate() calls served by a free list.
  uint64_t LargeAllocs = 0;    ///< Allocations beyond the bucketed sizes.
};

/// A bump-pointer arena with size-class free lists.
class OpArena {
public:
  /// Allocation granule; every block size is rounded up to a multiple.
  static constexpr size_t Granule = 16;
  /// Blocks up to this size are recycled through free-list buckets;
  /// larger ones fall back to the heap (still one allocation per op).
  static constexpr size_t MaxBucketedSize = 4096;
  /// Bytes reserved per slab.
  static constexpr size_t SlabSize = 64 * 1024;

  OpArena();
  ~OpArena();
  OpArena(const OpArena &) = delete;
  OpArena &operator=(const OpArena &) = delete;

  /// Returns a block of at least \p Size bytes aligned to \p Align
  /// (Align must divide Granule). Never returns null.
  void *allocate(size_t Size, size_t Align = alignof(std::max_align_t));

  /// Recycles the block at \p Ptr of \p Size bytes (the size passed to
  /// allocate). The block is poisoned and pushed onto a free-list bucket;
  /// slab memory is not released.
  void deallocate(void *Ptr, size_t Size);

  /// The arena's counters (tests, the metrics layer, the bench harness).
  const OpArenaStats &getStats() const { return Stats; }

  /// Rounds \p Size up to the arena granule (what allocate really uses).
  static size_t roundUp(size_t Size) {
    return (Size + Granule - 1) & ~(Granule - 1);
  }

private:
  static constexpr size_t NumBuckets = MaxBucketedSize / Granule;

  std::vector<std::unique_ptr<std::byte[]>> Slabs;
  std::byte *Cur = nullptr;
  std::byte *End = nullptr;
  /// Intrusive singly-linked free lists, one per size class. The next
  /// pointer lives in the first word of the freed block.
  std::array<void *, NumBuckets> FreeLists{};
  /// Out-of-band blocks (> MaxBucketedSize), keyed by address.
  std::unordered_map<void *, std::unique_ptr<std::byte[]>> Large;
  OpArenaStats Stats;
};

} // namespace irdl

#endif // IRDL_IR_OPARENA_H
