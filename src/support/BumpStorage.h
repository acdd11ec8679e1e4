//===- BumpStorage.h - Storage freed all at once ----------------*- C++ -*-===//
///
/// \file
/// A bump allocator for objects that all live exactly as long as one
/// owner: a context's dialect definitions, or a dialect spec's constraint
/// trees, compiled programs and lists. Allocation moves a pointer through
/// a slab; destruction frees the slabs, after running the destructors of
/// the objects made by create() that need one (in reverse order of
/// creation). Nothing is freed piecemeal, so a load makes a few slab
/// allocations instead of one per object, and a teardown frees slabs
/// instead of objects.
///
/// It is also a std::pmr::memory_resource, so pmr containers can place
/// their elements in it; their deallocations are no-ops.
///
/// Not thread-safe: storage is filled by one thread while it is built and
/// only read afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_SUPPORT_BUMPSTORAGE_H
#define IRDL_SUPPORT_BUMPSTORAGE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory_resource>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

namespace irdl {

class BumpStorage : public std::pmr::memory_resource {
public:
  /// The first slab's size; later ones double up to MaxSlabSize.
  static constexpr size_t MinSlabSize = 4096;
  static constexpr size_t MaxSlabSize = 64 * 1024;

  BumpStorage() = default;
  BumpStorage(const BumpStorage &) = delete;
  BumpStorage &operator=(const BumpStorage &) = delete;
  ~BumpStorage() override;

  /// \p Size bytes aligned to \p Align (at most alignof(max_align_t)),
  /// uninitialized.
  void *allocate(size_t Size, size_t Align) {
    uintptr_t P =
        (reinterpret_cast<uintptr_t>(Cur) + Align - 1) & ~(Align - 1);
    if (Cur && P + Size <= reinterpret_cast<uintptr_t>(End)) {
      Cur = reinterpret_cast<std::byte *>(P + Size);
      return reinterpret_cast<void *>(P);
    }
    return allocateSlow(Size, Align);
  }

  /// Constructs a T in the storage. Its destructor, if it has a
  /// non-trivial one, runs when the storage is destroyed.
  template <typename T, typename... ArgTs> T *create(ArgTs &&...Args) {
    if constexpr (std::is_trivially_destructible_v<T>) {
      return new (allocate(sizeof(T), alignof(T)))
          T(std::forward<ArgTs>(Args)...);
    } else {
      auto *C = new (allocate(sizeof(Cleanup<T>), alignof(Cleanup<T>)))
          Cleanup<T>(std::forward<ArgTs>(Args)...);
      C->Next = Cleanups;
      Cleanups = C;
      return &C->Object;
    }
  }

  /// A copy of \p S in the storage (not NUL-terminated).
  std::string_view copyString(std::string_view S) {
    if (S.empty())
      return {};
    char *P = static_cast<char *>(allocate(S.size(), 1));
    std::memcpy(P, S.data(), S.size());
    return {P, S.size()};
  }

  /// A copy of the trivially copyable \p Elems in the storage.
  template <typename T>
  std::span<const T> copyArray(std::span<const T> Elems) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (Elems.empty())
      return {};
    T *P = static_cast<T *>(allocate(Elems.size_bytes(), alignof(T)));
    std::memcpy(static_cast<void *>(P), Elems.data(), Elems.size_bytes());
    return {P, Elems.size()};
  }

  /// Number of blocks taken from the heap so far, and their total size
  /// (introspection and tests).
  size_t getNumSlabs() const { return NumSlabs; }
  size_t getBytesReserved() const { return BytesReserved; }

private:
  /// Every slab starts with this header, which links it to the previous
  /// one.
  struct alignas(std::max_align_t) SlabHeader {
    SlabHeader *Prev;
  };

  /// The links of the destructor list.
  struct CleanupBase {
    CleanupBase *Next = nullptr;
    virtual ~CleanupBase() = default;
  };
  template <typename T> struct Cleanup final : CleanupBase {
    template <typename... ArgTs>
    explicit Cleanup(ArgTs &&...Args)
        : Object(std::forward<ArgTs>(Args)...) {}
    T Object;
  };

  void *allocateSlow(size_t Size, size_t Align);

  void *do_allocate(size_t Size, size_t Align) override {
    return allocate(Size, Align);
  }
  void do_deallocate(void *, size_t, size_t) override {}
  bool do_is_equal(const std::pmr::memory_resource &Other) const
      noexcept override {
    return this == &Other;
  }

  std::byte *Cur = nullptr;
  std::byte *End = nullptr;
  SlabHeader *Slabs = nullptr;
  CleanupBase *Cleanups = nullptr;
  size_t NumSlabs = 0;
  size_t BytesReserved = 0;
};

} // namespace irdl

#endif // IRDL_SUPPORT_BUMPSTORAGE_H
