#include "labeling/prime.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "bigint/bigint.h"
#include "util/check.h"

namespace cdbs::labeling {

using bigint::BigInt;

std::vector<uint64_t> FirstPrimes(uint64_t count) {
  CDBS_CHECK(count >= 1);
  // Upper bound on the count-th prime: n(ln n + ln ln n) for n >= 6.
  uint64_t bound = 16;
  if (count >= 6) {
    const double n = static_cast<double>(count);
    bound = static_cast<uint64_t>(n * (std::log(n) + std::log(std::log(n)))) +
            16;
  }
  for (;;) {
    std::vector<bool> composite(bound + 1, false);
    std::vector<uint64_t> primes;
    primes.reserve(count);
    for (uint64_t p = 2; p <= bound && primes.size() < count; ++p) {
      if (composite[p]) continue;
      primes.push_back(p);
      for (uint64_t m = p * p; m <= bound; m += p) composite[m] = true;
    }
    if (primes.size() >= count) return primes;
    bound *= 2;  // bound was too tight (cannot happen for count >= 6)
  }
}

namespace {

constexpr size_t kScGroupSize = 5;  // nodes per SC value, per the paper

class PrimeLabeling : public Labeling {
 public:
  explicit PrimeLabeling(std::string name, const xml::Document& doc)
      : name_(std::move(name)) {
    skeleton_ = TreeSkeleton::FromDocument(doc, nullptr);
    const NodeId count = static_cast<NodeId>(skeleton_.size());
    // Node at document position k (1-based) takes the k-th prime; the k-th
    // prime always exceeds k, so order residues round-trip through CRT.
    primes_ = FirstPrimes(count + 1);  // headroom for one insertion
    self_.resize(count);
    label_.resize(count);
    order_.resize(count);
    by_order_.resize(count);
    for (NodeId n = 0; n < count; ++n) {
      self_[n] = primes_[n];  // ids are document-ordered
      order_[n] = n + 1;
      by_order_[n] = n;
      const NodeId parent = skeleton_.parent(n);
      label_[n] = parent == kNoNode ? BigInt(self_[n])
                                    : label_[parent].MulSmall(self_[n]);
    }
    next_prime_index_ = count;
    RecomputeScFrom(0);
  }

  const std::string& scheme_name() const override { return name_; }
  size_t num_nodes() const override { return skeleton_.size(); }

  uint64_t TotalLabelBits() const override {
    uint64_t total = 0;
    for (size_t i = 0; i < label_.size(); ++i) {
      // Label product plus the self prime each node must also keep for
      // parent/order tests.
      size_t self_bits = 0;
      while (self_[i] >> self_bits) ++self_bits;
      total += label_[i].BitLength() + self_bits;
    }
    // The SC values are part of the scheme's per-document storage: without
    // them there is no document order.
    for (const BigInt& sc : sc_) total += sc.BitLength();
    return total;
  }

  bool IsAncestor(NodeId a, NodeId d) const override {
    if (a == d) return false;
    // label(d) mod label(a) == 0 — big-integer arithmetic on every test.
    if (label_[a].BitLength() > label_[d].BitLength()) return false;
    return label_[d].IsDivisibleBy(label_[a]);
  }

  bool IsParent(NodeId p, NodeId c) const override {
    // label(c) / self(c) == label(p).
    uint64_t rem = 0;
    const BigInt quotient = label_[c].DivModSmall(self_[c], &rem);
    return rem == 0 && quotient == label_[p];
  }

  int CompareOrder(NodeId a, NodeId b) const override {
    const uint64_t ka = OrderKey(a);
    const uint64_t kb = OrderKey(b);
    return ka < kb ? -1 : (ka > kb ? 1 : 0);
  }

  int Level(NodeId n) const override { return skeleton_.level(n); }

  InsertResult InsertSiblingBefore(NodeId target) override {
    const uint32_t position = order_[target];  // new node takes this order
    return Insert(skeleton_.AddSiblingBefore(target), position);
  }

  InsertResult InsertSiblingAfter(NodeId target) override {
    // The new sibling's document position follows target's whole subtree.
    const uint32_t position =
        order_[target] + static_cast<uint32_t>(skeleton_.SubtreeSize(target));
    return Insert(skeleton_.AddSiblingAfter(target), position);
  }

  std::string SerializeLabel(NodeId n) const override {
    // Decimal is fine for the store: size, not format, is what matters.
    return label_[n].ToDecimalString();
  }

  DeleteResult DeleteSubtree(NodeId target) override {
    DeleteResult result;
    // The subtree occupies contiguous document positions starting at
    // order(target).
    const uint32_t first_position = order_[target];
    result.removed = skeleton_.RemoveSubtree(target);
    by_order_.erase(
        by_order_.begin() + (first_position - 1),
        by_order_.begin() + (first_position - 1) +
            static_cast<ptrdiff_t>(result.removed.size()));
    for (size_t pos = first_position - 1; pos < by_order_.size(); ++pos) {
      order_[by_order_[pos]] = static_cast<uint32_t>(pos + 1);
    }
    // Groups from the deletion point on change membership; recompute.
    result.relabeled = RecomputeScFrom((first_position - 1) / kScGroupSize);
    // The removed nodes lose their SC residues (their groups may be gone)
    // but must still compare, in their old order, just before the node
    // that now holds their subtree's first position: the tag lists find
    // them by binary search to erase them.
    const uint64_t next_key = uint64_t{first_position} << 32;
    for (size_t i = 0; i < result.removed.size(); ++i) {
      removed_key_[result.removed[i]] = next_key - (result.removed.size() - i);
    }
    return result;
  }

  const TreeSkeleton& skeleton() const override { return skeleton_; }

  std::unique_ptr<Labeling> Clone() const override {
    return std::make_unique<PrimeLabeling>(*this);
  }

  /// Test hooks.
  uint64_t self_prime(NodeId n) const { return self_[n]; }
  const BigInt& label(NodeId n) const { return label_[n]; }
  uint64_t order(NodeId n) const { return order_[n]; }
  size_t sc_count() const { return sc_.size(); }

 private:
  size_t GroupOf(NodeId n) const { return (order_[n] - 1) / kScGroupSize; }

  // Document-order sort key: a live node's order, recovered from its SC
  // value with modular arithmetic — the cost the paper attributes to
  // Prime's ordering — in the high half; a removed node's key is fixed by
  // DeleteSubtree.
  uint64_t OrderKey(NodeId n) const {
    if (skeleton_.is_removed(n)) return removed_key_.at(n);
    return sc_[GroupOf(n)].ModSmall(self_[n]) << 32;
  }

  // Replaces the self prime of `n` with a fresh (larger) one and rebuilds
  // the labels of n's subtree. Needed when repeated insertions push a node's
  // document order past its self prime, which would break the SC residue
  // round-trip. Returns the number of labels rewritten.
  uint64_t RePrime(NodeId n) {
    if (next_prime_index_ >= primes_.size()) {
      primes_ = FirstPrimes(primes_.size() * 2);
    }
    self_[n] = primes_[next_prime_index_++];
    uint64_t rewritten = 0;
    std::vector<NodeId> stack = {n};
    while (!stack.empty()) {
      const NodeId cur = stack.back();
      stack.pop_back();
      const NodeId parent = skeleton_.parent(cur);
      label_[cur] = parent == kNoNode ? BigInt(self_[cur])
                                      : label_[parent].MulSmall(self_[cur]);
      ++rewritten;
      for (NodeId c = skeleton_.first_child(cur); c != kNoNode;
           c = skeleton_.next_sibling(c)) {
        stack.push_back(c);
      }
    }
    return rewritten;
  }

  // Recomputes SC values for every group index >= first_group. Adds the
  // number of recomputed SC values and any re-primed labels to *relabeled.
  uint64_t RecomputeScFrom(size_t first_group) {
    const size_t group_count =
        (by_order_.size() + kScGroupSize - 1) / kScGroupSize;
    sc_.resize(group_count);
    uint64_t recomputed = 0;
    std::vector<uint64_t> residues;
    std::vector<uint64_t> moduli;
    for (size_t g = first_group; g < group_count; ++g) {
      residues.clear();
      moduli.clear();
      const size_t begin = g * kScGroupSize;
      const size_t end = std::min(begin + kScGroupSize, by_order_.size());
      for (size_t pos = begin; pos < end; ++pos) {
        const NodeId n = by_order_[pos];
        if (order_[n] >= self_[n]) recomputed += RePrime(n);
        CDBS_CHECK(order_[n] < self_[n]);  // residue must round-trip
        residues.push_back(order_[n]);
        moduli.push_back(self_[n]);
      }
      sc_[g] = bigint::CrtCombine(residues, moduli);
      ++recomputed;
    }
    return recomputed;
  }

  InsertResult Insert(NodeId id, uint32_t position) {
    InsertResult result;
    result.new_node = id;
    // Fresh prime for the new node; labels of existing nodes are untouched.
    if (next_prime_index_ >= primes_.size()) {
      primes_ = FirstPrimes(primes_.size() * 2);
    }
    self_.push_back(primes_[next_prime_index_++]);
    const NodeId parent = skeleton_.parent(id);
    label_.push_back(label_[parent].MulSmall(self_.back()));
    // Shift document orders at/after the insertion point.
    by_order_.insert(by_order_.begin() + (position - 1), id);
    order_.push_back(position);
    for (size_t pos = position; pos < by_order_.size(); ++pos) {
      order_[by_order_[pos]] = static_cast<uint32_t>(pos + 1);
    }
    // Every SC group from the insertion point on changes membership or
    // residues and must be recomputed — this is Prime's update cost.
    result.relabeled = RecomputeScFrom((position - 1) / kScGroupSize);
    return result;
  }

  std::string name_;
  TreeSkeleton skeleton_;
  std::vector<uint64_t> primes_;
  size_t next_prime_index_ = 0;
  std::vector<uint64_t> self_;
  std::vector<BigInt> label_;
  std::vector<uint32_t> order_;    // 1-based document order per node
  std::vector<NodeId> by_order_;   // node at each document position
  std::vector<BigInt> sc_;         // one SC value per group of 5 positions
  std::unordered_map<NodeId, uint64_t> removed_key_;  // OrderKey of removed
};

class PrimeScheme : public LabelingScheme {
 public:
  PrimeScheme() : name_("Prime") {}

  const std::string& name() const override { return name_; }

  std::unique_ptr<Labeling> Label(const xml::Document& doc) const override {
    return std::make_unique<PrimeLabeling>(name_, doc);
  }

 private:
  std::string name_;
};

}  // namespace

std::unique_ptr<LabelingScheme> MakePrimeScheme() {
  return std::make_unique<PrimeScheme>();
}

}  // namespace cdbs::labeling
