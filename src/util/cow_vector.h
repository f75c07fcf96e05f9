#ifndef CDBS_UTIL_COW_VECTOR_H_
#define CDBS_UTIL_COW_VECTOR_H_

#include <array>
#include <cstddef>
#include <memory>
#include <utility>

#include "util/check.h"
#include "util/cow_spine.h"

/// \file
/// Chunked copy-on-write vector: per-node state of the labelings and the tag
/// index, forked once per snapshot publish (docs/CONCURRENCY.md).
///
/// Elements live in fixed-size immutable chunks, the leaves of a two-level
/// `CowSpine` (util/cow_spine.h). Copying a `CowVector` shares every chunk
/// at the cost of one refcount bump per spine group (kFanout chunks) plus a
/// memcpy of the flat read index, and zero element copies. Mutation goes
/// through `Mutable`/`Set`/`PushBack`, which path-copy the one touched group
/// and chunk iff shared; everything else stays shared with all forks. Reads
/// are two dependent loads: the chunk pointer from the index, then the
/// element. The thread contract and copy accounting are the spine's.

namespace cdbs::util {

/// A grow-only chunked COW vector. See the file comment for the contract.
template <typename T, size_t kChunkSizeLog2 = 8>
class CowVector {
 public:
  static constexpr size_t kChunkSize = size_t{1} << kChunkSizeLog2;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t chunk_count() const { return spine_.size(); }
  size_t group_count() const { return spine_.group_count(); }

  /// Read access. The reference is stable until this *instance* mutates the
  /// containing chunk (forks never invalidate it).
  const T& operator[](size_t i) const {
    return spine_[i >> kChunkSizeLog2].items[i & kMask];
  }

  /// Mutable access; clones the containing group and chunk iff shared. The
  /// returned reference is invalidated by the next mutation.
  T& Mutable(size_t i) {
    CDBS_CHECK(i < size_);
    return spine_.Mutable(i >> kChunkSizeLog2)->items[i & kMask];
  }

  void Set(size_t i, T v) { Mutable(i) = std::move(v); }

  void PushBack(T v) {
    const size_t offset = size_ & kMask;
    Chunk* chunk;
    if (offset == 0) {
      auto fresh = std::make_shared<Chunk>();
      chunk = fresh.get();
      spine_.PushBack(std::move(fresh));
    } else {
      chunk = spine_.Mutable(spine_.size() - 1);
    }
    chunk->items[offset] = std::move(v);
    ++size_;
  }

  /// Grows to `n` elements, the new ones default-constructed. Grow-only:
  /// nothing in this codebase shrinks per-node state (ids are never
  /// reused).
  void Resize(size_t n) {
    CDBS_CHECK(n >= size_);
    while (size_ < n) PushBack(T{});
  }

 private:
  static constexpr size_t kMask = kChunkSize - 1;

  struct Chunk {
    std::array<T, kChunkSize> items{};
  };

  CowSpine<Chunk> spine_;
  size_t size_ = 0;
};

}  // namespace cdbs::util

#endif  // CDBS_UTIL_COW_VECTOR_H_
