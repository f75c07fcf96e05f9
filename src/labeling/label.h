#ifndef CDBS_LABELING_LABEL_H_
#define CDBS_LABELING_LABEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/cow_vector.h"
#include "xml/tree.h"

/// \file
/// The common interface every labeling scheme implements, plus the shared
/// tree-skeleton bookkeeping updates need.
///
/// A `Labeling` is a labeled snapshot of one document. Node handles
/// (`NodeId`) are assigned in document order at labeling time (so id order
/// == document order for the initial tree); nodes inserted later receive
/// fresh ids. All relationship predicates are answered *from the labels
/// alone* — that is the entire point of the paper's comparison: their cost
/// profile differs per scheme (bit-string comparisons for CDBS, float
/// compares for QRS, modular arithmetic over big integers for Prime, ...).

namespace cdbs::labeling {

/// Dense node handle. Initial ids are document-order ranks.
using NodeId = uint32_t;

/// Sentinel for "no node" (e.g. the root's parent).
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Outcome of one insertion.
struct InsertResult {
  /// Handle of the newly inserted node.
  NodeId new_node = kNoNode;
  /// Existing nodes whose stored labels had to change. For the Prime scheme
  /// this counts recomputed SC values (the paper's Table 4 convention).
  uint64_t relabeled = 0;
  /// Bits modified in a *neighbour's* label value to derive the new label
  /// (1 for CDBS, 2 for QED, 0 where the concept does not apply). This is
  /// the micro update cost Section 7.4 compares.
  uint64_t neighbor_bits_modified = 0;
  /// True when the insertion hit the scheme's overflow condition and forced
  /// a full re-encode (Section 6, Example 6.1).
  bool overflow = false;
  /// Ids of the nodes whose stored labels changed, for persisting the
  /// update (empty for the Prime scheme, whose recomputed SC values are
  /// per-group records rather than node labels; `relabeled` still counts
  /// them).
  std::vector<NodeId> relabeled_nodes;
};

/// Outcome of one subtree deletion. Deletion never disturbs the relative
/// order of the remaining labels (Section 5.2.1); only the Prime scheme has
/// work to do, because the document order positions behind its SC values
/// shift.
struct DeleteResult {
  /// Ids of the removed nodes (the whole subtree), in document order.
  std::vector<NodeId> removed;
  /// Labels or SC values rewritten (non-zero only for Prime).
  uint64_t relabeled = 0;
};

/// Reports one scheme-level overflow (a forced full re-encode, Example 6.1)
/// to the default metric registry (`labeling.overflow_events`). Schemes call
/// this wherever they set `InsertResult::overflow`.
void NoteOverflowEvent();

/// Structural bookkeeping shared by all schemes: parent/level/sibling links
/// for every labeled node, maintained across insertions. Schemes use it to
/// locate the neighbouring labels an insertion goes between; it is *not*
/// consulted by the relationship predicates (those use labels only), except
/// that the containment schemes keep their labels' level component in its
/// level array.
class TreeSkeleton {
 public:
  /// Builds the skeleton of `doc` in document order. If `order_out` is
  /// non-null it receives the node pointers so callers can map NodeId ->
  /// xml::Node (for tag lookup).
  static TreeSkeleton FromDocument(const xml::Document& doc,
                                   std::vector<const xml::Node*>* order_out);

  size_t size() const { return parent_.size(); }

  NodeId parent(NodeId n) const { return parent_[n]; }
  int level(NodeId n) const { return level_[n]; }
  NodeId prev_sibling(NodeId n) const { return prev_sibling_[n]; }
  NodeId next_sibling(NodeId n) const { return next_sibling_[n]; }
  NodeId first_child(NodeId n) const { return first_child_[n]; }
  NodeId last_child(NodeId n) const { return last_child_[n]; }

  /// Number of nodes in the subtree rooted at `n` (inclusive).
  uint64_t SubtreeSize(NodeId n) const;

  /// Inserts a new childless node as the sibling immediately before
  /// `target` (must not be the root). Returns the new node's id
  /// (== old size()).
  NodeId AddSiblingBefore(NodeId target);

  /// Inserts a new childless node as the sibling immediately after
  /// `target` (must not be the root).
  NodeId AddSiblingAfter(NodeId target);

  /// The 1-based rank of `n` among its parent's children.
  size_t ChildRank(NodeId n) const;

  /// Unlinks the subtree rooted at `target` (must not be the root) from the
  /// tree and returns the ids it contained, in document order. Ids are
  /// never reused; querying links of removed nodes is undefined.
  std::vector<NodeId> RemoveSubtree(NodeId target);

  /// Number of nodes still attached (size() minus removed ones).
  size_t live_count() const { return live_count_; }

  /// True iff `n` was removed by RemoveSubtree.
  bool is_removed(NodeId n) const { return removed_[n] != 0; }

 private:
  NodeId AddNode(NodeId parent_id);

  // All per-node state is chunked copy-on-write (util/cow_vector.h): copying
  // a TreeSkeleton shares every chunk, and link updates path-copy only the
  // touched groups and chunks. This is what makes Labeling::ForkShared
  // O(touched).
  size_t live_count_ = 0;
  util::CowVector<uint8_t> removed_;
  util::CowVector<NodeId> parent_;
  util::CowVector<int> level_;
  util::CowVector<NodeId> prev_sibling_;
  util::CowVector<NodeId> next_sibling_;
  util::CowVector<NodeId> first_child_;
  util::CowVector<NodeId> last_child_;
};

/// A labeled document snapshot: relationship predicates over labels plus
/// order-preserving insertion.
class Labeling {
 public:
  virtual ~Labeling() = default;

  /// Scheme name, paper style (e.g. "V-CDBS-Containment").
  virtual const std::string& scheme_name() const = 0;

  /// Number of labeled nodes (grows with insertions).
  virtual size_t num_nodes() const = 0;

  /// Total stored label bits across all nodes (the Figure 5 metric).
  virtual uint64_t TotalLabelBits() const = 0;

  /// Mean stored label bits per node.
  double AvgLabelBits() const {
    return num_nodes() == 0 ? 0.0
                            : static_cast<double>(TotalLabelBits()) /
                                  static_cast<double>(num_nodes());
  }

  /// True iff `a` is a strict ancestor of `d` — decided from labels.
  virtual bool IsAncestor(NodeId a, NodeId d) const = 0;

  /// True iff `p` is the parent of `c` — decided from labels.
  virtual bool IsParent(NodeId p, NodeId c) const = 0;

  /// Document-order comparison of two nodes (-1, 0, +1) — from labels.
  virtual int CompareOrder(NodeId a, NodeId b) const = 0;

  /// Tree level of `n` (root == 1).
  virtual int Level(NodeId n) const = 0;

  /// Inserts a new element as the sibling immediately before `target`.
  virtual InsertResult InsertSiblingBefore(NodeId target) = 0;

  /// Inserts a new element as the sibling immediately after `target`.
  virtual InsertResult InsertSiblingAfter(NodeId target) = 0;

  /// Deletes the subtree rooted at `target` (not the root). Remaining
  /// labels keep their relative order; removed ids must no longer be used.
  virtual DeleteResult DeleteSubtree(NodeId target) = 0;

  /// Serialized label bytes for the label store (Figure 7's I/O).
  virtual std::string SerializeLabel(NodeId n) const = 0;

  /// Logically independent copy of this labeling (labels, skeleton, codec
  /// state). One side may keep inserting while the other is read
  /// concurrently. Implementations may share immutable state (e.g. COW
  /// chunks) as long as that independence holds under the serving layer's
  /// thread contract (see util/cow_vector.h).
  virtual std::unique_ptr<Labeling> Clone() const = 0;

  /// Copy-on-write fork: the O(touched) snapshot primitive behind the
  /// concurrent serving layer (docs/CONCURRENCY.md). Semantics are exactly
  /// Clone()'s; schemes whose state is COW-backed (the containment family,
  /// Dewey) override this to share chunks so a fork costs O(spine groups),
  /// not O(nodes). The default falls back to the deep Clone().
  virtual std::unique_ptr<Labeling> ForkShared() const { return Clone(); }

  /// True when ForkShared() genuinely shares state (COW chunks) instead of
  /// falling back to the deep Clone(). The per-shard concurrent serving
  /// path (src/shard/) publishes a snapshot per group commit and refuses
  /// schemes where that publish would be O(nodes) — see ShardedDb::Open.
  virtual bool SupportsSharedFork() const { return false; }

  /// Structural skeleton (shared bookkeeping; not used by predicates).
  virtual const TreeSkeleton& skeleton() const = 0;
};

/// Factory for one labeling scheme.
class LabelingScheme {
 public:
  virtual ~LabelingScheme() = default;

  /// Paper-style scheme name.
  virtual const std::string& name() const = 0;

  /// Labels all nodes of `doc` in document order.
  virtual std::unique_ptr<Labeling> Label(const xml::Document& doc) const = 0;
};

}  // namespace cdbs::labeling

#endif  // CDBS_LABELING_LABEL_H_
