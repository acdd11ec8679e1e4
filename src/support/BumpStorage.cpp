//===- BumpStorage.cpp ----------------------------------------------===//

#include "support/BumpStorage.h"

#include <algorithm>
#include <cassert>

using namespace irdl;

BumpStorage::~BumpStorage() {
  for (CleanupBase *C = Cleanups; C;) {
    CleanupBase *Next = C->Next;
    C->~CleanupBase();
    C = Next;
  }
  for (SlabHeader *S = Slabs; S;) {
    SlabHeader *Prev = S->Prev;
    ::operator delete(S);
    S = Prev;
  }
}

void *BumpStorage::allocateSlow(size_t Size, size_t Align) {
  assert(Align <= alignof(std::max_align_t) && "over-aligned allocation");
  size_t SlabSize =
      std::min(MaxSlabSize, MinSlabSize << std::min<size_t>(NumSlabs, 8));
  size_t Needed = sizeof(SlabHeader) + Size;
  ++NumSlabs;
  if (Needed > SlabSize / 2) {
    // A block of its own, linked behind the current slab, whose free
    // space stays in use.
    auto *Block = static_cast<SlabHeader *>(::operator new(Needed));
    BytesReserved += Needed;
    if (Slabs) {
      Block->Prev = Slabs->Prev;
      Slabs->Prev = Block;
    } else {
      Block->Prev = nullptr;
      Slabs = Block;
    }
    return Block + 1;
  }
  auto *Slab = static_cast<SlabHeader *>(::operator new(SlabSize));
  BytesReserved += SlabSize;
  Slab->Prev = Slabs;
  Slabs = Slab;
  Cur = reinterpret_cast<std::byte *>(Slab + 1);
  End = reinterpret_cast<std::byte *>(Slab) + SlabSize;
  return allocate(Size, Align);
}
