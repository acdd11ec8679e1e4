//===- OpArena.cpp --------------------------------------------------===//

#include "ir/OpArena.h"

#include "support/Metrics.h"
#include "support/Statistic.h"

#include <cassert>
#include <cstring>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IRDL_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define IRDL_ASAN 1
#endif

#ifdef IRDL_ASAN
#include <sanitizer/asan_interface.h>
#endif

using namespace irdl;

IRDL_STATISTIC(Arena, NumArenaAllocations, "blocks served by op arenas");
IRDL_STATISTIC(Arena, NumArenaSlabs, "slabs reserved by op arenas");
IRDL_STATISTIC(Arena, NumArenaReusedBlocks,
               "arena allocations served from a free list");

namespace {

/// Freed-block fill byte: a stale Operation or Value handle read after
/// erase() sees 0xA5A5... pointers, which fault on dereference.
constexpr int PoisonByte = 0xA5;

/// Marks [Ptr+Offset, Ptr+Size) unreadable under ASan and fills it with
/// the poison byte otherwise. The first word (the free-list link) stays
/// addressable.
void poisonBlock(void *Ptr, size_t Size, size_t Offset) {
  assert(Size >= Offset);
  std::memset(static_cast<std::byte *>(Ptr) + Offset, PoisonByte,
              Size - Offset);
#ifdef IRDL_ASAN
  __asan_poison_memory_region(static_cast<std::byte *>(Ptr) + Offset,
                              Size - Offset);
#endif
}

void unpoisonBlock(void *Ptr, size_t Size) {
#ifdef IRDL_ASAN
  __asan_unpoison_memory_region(Ptr, Size);
#else
  (void)Ptr;
  (void)Size;
#endif
}

/// Process-wide arena telemetry for the metrics layer (PR 5). Counters
/// aggregate over every arena in the process; the live-bytes gauge goes
/// down again as ops are erased and arenas die.
struct ArenaMetrics {
  Counter &Slabs;
  Counter &BytesAllocated;
  Counter &BlocksReused;
  Gauge &BytesLive;

  static ArenaMetrics &instance() {
    static ArenaMetrics M{
        MetricsRegistry::instance().getCounter(
            "ir_arena_slabs_allocated_total",
            "slabs reserved by operation arenas"),
        MetricsRegistry::instance().getCounter(
            "ir_arena_bytes_allocated_total",
            "bytes served by operation arenas"),
        MetricsRegistry::instance().getCounter(
            "ir_arena_blocks_reused_total",
            "arena allocations served from a free list"),
        MetricsRegistry::instance().getGauge(
            "ir_arena_bytes_live",
            "bytes currently handed out by operation arenas"),
    };
    return M;
  }
};

} // namespace

OpArena::OpArena() = default;

OpArena::~OpArena() {
  // Slab memory (and any live bytes) disappears with the arena; keep the
  // process-wide live gauge honest.
  if (metricsEnabled() && Stats.BytesLive)
    ArenaMetrics::instance().BytesLive.sub(
        static_cast<int64_t>(Stats.BytesLive));
}

void *OpArena::allocate(size_t Size, size_t Align) {
  assert(Align <= Granule && Granule % Align == 0 &&
         "arena blocks are Granule-aligned");
  (void)Align;
  Size = roundUp(Size);

  Stats.NumAllocs++;
  Stats.BytesAllocated += Size;
  Stats.BytesLive += Size;
  ++NumArenaAllocations;
  bool MetricsOn = metricsEnabled();
  if (MetricsOn) {
    ArenaMetrics::instance().BytesAllocated.inc(Size);
    ArenaMetrics::instance().BytesLive.add(static_cast<int64_t>(Size));
  }

  if (Size <= MaxBucketedSize) {
    size_t Bucket = Size / Granule - 1;
    if (void *Head = FreeLists[Bucket]) {
      FreeLists[Bucket] = *static_cast<void **>(Head);
      unpoisonBlock(Head, Size);
      Stats.FreeListHits++;
      Stats.BytesReused += Size;
      ++NumArenaReusedBlocks;
      if (MetricsOn)
        ArenaMetrics::instance().BlocksReused.inc();
      return Head;
    }
    if (static_cast<size_t>(End - Cur) < Size) {
      Slabs.push_back(std::make_unique<std::byte[]>(SlabSize));
      Cur = Slabs.back().get();
      End = Cur + SlabSize;
      Stats.Slabs++;
      Stats.SlabBytes += SlabSize;
      ++NumArenaSlabs;
      if (MetricsOn)
        ArenaMetrics::instance().Slabs.inc();
    }
    void *Result = Cur;
    Cur += Size;
    return Result;
  }

  // Out-of-band block: still a single allocation for the caller, but too
  // big to be worth bucketing. Tracked so the arena owns it either way.
  auto Block = std::make_unique<std::byte[]>(Size);
  void *Result = Block.get();
  Large.emplace(Result, std::move(Block));
  Stats.LargeAllocs++;
  return Result;
}

void OpArena::deallocate(void *Ptr, size_t Size) {
  assert(Ptr && "deallocating null");
  Size = roundUp(Size);

  Stats.NumFrees++;
  Stats.BytesLive -= Size;
  if (metricsEnabled())
    ArenaMetrics::instance().BytesLive.sub(static_cast<int64_t>(Size));

  if (Size <= MaxBucketedSize) {
    size_t Bucket = Size / Granule - 1;
    // Poison everything past the free-list link, then thread the block
    // onto the bucket.
    poisonBlock(Ptr, Size, /*Offset=*/sizeof(void *));
    *static_cast<void **>(Ptr) = FreeLists[Bucket];
    FreeLists[Bucket] = Ptr;
    return;
  }

  [[maybe_unused]] size_t Erased = Large.erase(Ptr);
  assert(Erased && "large block not owned by this arena");
}
