#ifndef CDBS_UTIL_COW_SPINE_H_
#define CDBS_UTIL_COW_SPINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.h"

/// \file
/// Two-level copy-on-write spine: the persistent-structure primitive behind
/// O(touched) snapshot publication (docs/CONCURRENCY.md). `CowVector`
/// (fixed-size element chunks) and `query::TagList` (variable-size sorted
/// runs) both keep their leaves in one.
///
/// Ownership is two-level. Leaves are held by `shared_ptr` in groups of
/// about `kFanout`, and the groups are held by `shared_ptr` in the spine.
/// Copying a spine copies one pointer per *group*, so a fork of L leaves
/// costs L / kFanout refcount bumps. A write path-copies the one group and
/// the one leaf it lands in, each iff shared; every other group and leaf
/// stays shared with all forks.
///
/// Reads do not walk the groups. Each instance also keeps a flat index of
/// raw leaf pointers, copied by memcpy on fork (no atomics), so reaching a
/// leaf is one load from the index, as with a flat spine of `shared_ptr`s.
/// Invariant: `index_[i]` is the leaf this instance's groups hold at
/// position i, which keeps it alive.
///
/// Writes skip the two use_count() checks once a leaf is known exclusive:
/// each instance remembers which leaves it made exclusive, and copying an
/// instance makes it forget all of them (the copy bumps the source's era),
/// because the source and the copy then share them.
///
/// Groups have between one and 2 x kFanout leaves. Appends fill each group
/// to kFanout before opening the next, so an append-built spine has
/// uniform groups and leaf i sits in group i / kFanout. Inserts split a
/// group that grows past 2 x kFanout in half; erases drop emptied groups,
/// and a touched group absorbs the groups after it while they fit in
/// kFanout.
///
/// Thread contract: a spine value must be mutated by one thread at a time
/// (in this codebase: the writer thread, or a single-threaded owner), and
/// copying a spine counts as mutating the source, so forks are taken on
/// that thread too. Forks may be *read* from any thread. In-place mutation
/// (of a group or leaf whose use_count() == 1) additionally requires that
/// the release of any other reference happens-before the mutation. The
/// serving layer guarantees this structurally: snapshot versions are
/// destroyed on the writer thread itself, inside SnapshotManager::Publish's
/// reclamation scan, which is ordered after the readers' seq_cst pin
/// releases.
///
/// Copy accounting: group and leaf clones and fork shares are tallied into
/// thread-local `CowStats`, which the serving layer samples around each
/// publish to export `engine.concurrent.snapshot.bytes_copied` /
/// `.chunks_copied` / `.chunks_shared` — the counters that prove a publish
/// is O(touched).

namespace cdbs::util {

/// Thread-local tallies of copy-on-write activity. Byte counts are
/// `sizeof`-based (heap payloads of elements are not traversed), which is
/// exact for PODs and a stable proxy for everything else — good enough to
/// demonstrate O(touched) vs O(N) scaling.
struct CowStats {
  uint64_t chunk_copies = 0;   ///< leaves (chunks, runs) cloned by path-copies
  uint64_t group_copies = 0;   ///< spine groups cloned by path-copies
  uint64_t bytes_copied = 0;   ///< sizeof-based bytes behind both clones
  uint64_t chunks_shared = 0;  ///< refcounted spine entries shared by forks

  /// The calling thread's tally. Mutations and forks performed by this
  /// thread are charged here and nowhere else.
  static CowStats& Local() {
    thread_local CowStats stats;
    return stats;
  }
};

/// Bytes a leaf clone copies; overloaded for variable-size leaves.
template <typename Leaf>
size_t CowLeafBytes(const Leaf&) {
  return sizeof(Leaf);
}
template <typename T>
size_t CowLeafBytes(const std::vector<T>& leaf) {
  return leaf.size() * sizeof(T);
}

/// An ordered sequence of COW leaves. See the file comment for the layout
/// and the thread contract.
template <typename Leaf>
class CowSpine {
 public:
  /// Leaves per group of an append-built spine.
  static constexpr size_t kFanout = 32;

  CowSpine() = default;

  /// O(groups) refcount bumps plus a memcpy of the read index. The source
  /// forgets the leaves it had made exclusive: the copy shares them now.
  CowSpine(const CowSpine& other)
      : groups_(other.groups_), index_(other.index_) {
    ++other.era_;
    CowStats::Local().chunks_shared += groups_.size();
  }

  CowSpine& operator=(const CowSpine& other) {
    if (this != &other) {
      groups_ = other.groups_;
      index_ = other.index_;
      owned_.clear();
      ++other.era_;
      CowStats::Local().chunks_shared += groups_.size();
    }
    return *this;
  }

  CowSpine(CowSpine&&) noexcept = default;
  CowSpine& operator=(CowSpine&&) noexcept = default;

  /// Number of leaves.
  size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  size_t group_count() const { return groups_.size(); }

  /// Leaf i, read through the flat index. The reference is stable until
  /// this *instance* mutates or removes that leaf (forks never invalidate
  /// it).
  const Leaf& operator[](size_t i) const { return *index_[i]; }
  const Leaf& back() const { return *index_.back(); }

  /// Leaf i, made exclusive to this instance first: its group is cloned
  /// iff shared, then the leaf iff shared. The pointer is invalidated by
  /// the next mutation.
  Leaf* Mutable(size_t i) {
    CDBS_CHECK(i < index_.size());
    // Fast path: leaf i (and its group) was made exclusive since this
    // instance was last copied or its leaves last shifted.
    if (i < owned_.size() && owned_[i] == era_) return index_[i];
    return MutableSlow(i);
  }

  /// Appends `leaf`, filling the last group to kFanout first.
  void PushBack(std::shared_ptr<Leaf> leaf) {
    if (groups_.empty() || GroupSize(groups_.size() - 1) >= kFanout) {
      auto group = std::make_shared<Group>();
      group->leaves.reserve(kFanout);
      groups_.push_back(Slot{std::move(group), index_.size()});
    }
    index_.push_back(leaf.get());
    UniqueGroup(groups_.size() - 1)->leaves.push_back(std::move(leaf));
  }

  /// Inserts `leaf` at position i, into the group of leaf i - 1 (so a run
  /// split off leaf i - 1 joins the group already copied for it). Splits
  /// that group once it passes 2 x kFanout.
  void Insert(size_t i, std::shared_ptr<Leaf> leaf) {
    CDBS_CHECK(i <= index_.size());
    if (groups_.empty()) {
      PushBack(std::move(leaf));
      return;
    }
    const size_t g = i == 0 ? 0 : GroupOf(i - 1);
    ++era_;  // leaf positions shift
    index_.insert(index_.begin() + i, leaf.get());
    std::vector<std::shared_ptr<Leaf>>& leaves = UniqueGroup(g)->leaves;
    leaves.insert(leaves.begin() + (i - groups_[g].start), std::move(leaf));
    for (size_t k = g + 1; k < groups_.size(); ++k) ++groups_[k].start;
    if (leaves.size() > 2 * kFanout) {
      auto right = std::make_shared<Group>();
      right->leaves.assign(std::make_move_iterator(leaves.begin() + kFanout),
                           std::make_move_iterator(leaves.end()));
      leaves.resize(kFanout);
      groups_.insert(groups_.begin() + g + 1,
                     Slot{std::move(right), groups_[g].start + kFanout});
    }
  }

  /// Removes every leaf for which `pred(leaf)` holds. Only groups holding
  /// such a leaf are touched (cloned iff shared); emptied groups are
  /// dropped, and a touched group absorbs the groups after it while they
  /// fit in kFanout. O(groups + leaves) for the index rebuild.
  template <typename Pred>
  void EraseIf(Pred pred) {
    if (std::none_of(index_.begin(), index_.end(),
                     [&](const Leaf* leaf) { return pred(*leaf); })) {
      return;
    }
    std::vector<Slot> kept;
    kept.reserve(groups_.size());
    bool last_touched = false;  // kept.back() is a touched (private) group
    for (size_t g = 0; g < groups_.size(); ++g) {
      bool hit = false;
      for (size_t i = groups_[g].start; i < GroupEnd(g) && !hit; ++i) {
        hit = pred(*index_[i]);
      }
      std::vector<std::shared_ptr<Leaf>>* leaves = &groups_[g].group->leaves;
      if (hit) {
        leaves = &UniqueGroup(g)->leaves;
        leaves->erase(std::remove_if(leaves->begin(), leaves->end(),
                                     [&](const std::shared_ptr<Leaf>& leaf) {
                                       return pred(*leaf);
                                     }),
                      leaves->end());
        if (leaves->empty()) continue;
      }
      if (last_touched &&
          kept.back().group->leaves.size() + leaves->size() <= kFanout) {
        std::vector<std::shared_ptr<Leaf>>& dst = kept.back().group->leaves;
        dst.insert(dst.end(), leaves->begin(), leaves->end());
      } else {
        kept.push_back(std::move(groups_[g]));
        last_touched = hit;
      }
    }
    groups_ = std::move(kept);
    RebuildIndex();
    ++era_;  // leaf positions shift
  }

 private:
  struct Group {
    std::vector<std::shared_ptr<Leaf>> leaves;
  };
  /// One spine entry: a shared group and the index of its first leaf in
  /// this instance (starts are per-instance, so they live here, not in the
  /// shared group).
  struct Slot {
    std::shared_ptr<Group> group;
    size_t start = 0;
  };

  size_t GroupEnd(size_t g) const {
    return g + 1 < groups_.size() ? groups_[g + 1].start : index_.size();
  }
  size_t GroupSize(size_t g) const { return GroupEnd(g) - groups_[g].start; }

  /// The group holding leaf i. Append-built spines are uniform, so the
  /// arithmetic guess is exact there; otherwise binary-search the starts.
  size_t GroupOf(size_t i) const {
    const size_t guess = std::min(i / kFanout, groups_.size() - 1);
    if (groups_[guess].start <= i && i < GroupEnd(guess)) return guess;
    const auto it = std::upper_bound(
        groups_.begin(), groups_.end(), i,
        [](size_t leaf, const Slot& slot) { return leaf < slot.start; });
    return static_cast<size_t>(it - groups_.begin()) - 1;
  }

  Leaf* MutableSlow(size_t i) {
    if (owned_.size() < index_.size()) owned_.resize(index_.size(), 0);
    const size_t g = GroupOf(i);
    std::shared_ptr<Leaf>& leaf =
        UniqueGroup(g)->leaves[i - groups_[g].start];
    if (leaf.use_count() != 1) {
      leaf = std::make_shared<Leaf>(*leaf);
      CowStats& stats = CowStats::Local();
      ++stats.chunk_copies;
      stats.bytes_copied += CowLeafBytes(*leaf);
      index_[i] = leaf.get();
    }
    owned_[i] = era_;
    return leaf.get();
  }

  /// Group g, cloned first iff shared with a fork.
  Group* UniqueGroup(size_t g) {
    std::shared_ptr<Group>& group = groups_[g].group;
    // use_count()==1 means this instance holds the only reference: forks
    // are created on this thread, and the serving layer destroys them with
    // a happens-before edge to the writer (see file comment), so in-place
    // mutation is safe and TSan-clean.
    if (group.use_count() != 1) {
      group = std::make_shared<Group>(*group);
      CowStats& stats = CowStats::Local();
      ++stats.group_copies;
      stats.bytes_copied +=
          group->leaves.size() * sizeof(std::shared_ptr<Leaf>);
    }
    return group.get();
  }

  void RebuildIndex() {
    index_.clear();
    for (Slot& slot : groups_) {
      slot.start = index_.size();
      for (const std::shared_ptr<Leaf>& leaf : slot.group->leaves) {
        index_.push_back(leaf.get());
      }
    }
  }

  std::vector<Slot> groups_;
  /// index_[i] = raw pointer to leaf i (see the file comment).
  std::vector<Leaf*> index_;
  /// Mutable's fast path: `owned_[i] == era_` proves leaf i and its group
  /// exclusive to this instance. Copying bumps the source's era (so
  /// `era_` is mutable) and inserts and erases bump it as positions shift;
  /// a copy starts with nothing owned.
  std::vector<uint64_t> owned_;
  mutable uint64_t era_ = 1;
};

}  // namespace cdbs::util

#endif  // CDBS_UTIL_COW_SPINE_H_
