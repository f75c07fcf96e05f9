#include "query/evaluator.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace cdbs::query {

namespace {

using labeling::kNoNode;
using labeling::Labeling;

// Default-registry instrumentation for the navigational evaluator; the
// predicate counter is the paper's cost model (every step is a sequence of
// label tests whose per-test price differs by scheme).
obs::Counter& QueriesCounter() {
  static obs::Counter* const c = obs::MetricRegistry::Default().GetCounter(
      "query.eval.queries", "Navigational query evaluations");
  return *c;
}

obs::Counter& LabelComparisonsCounter() {
  static obs::Counter* const c = obs::MetricRegistry::Default().GetCounter(
      "query.eval.label_comparisons",
      "Labeling predicate calls (CompareOrder, IsAncestor, IsParent) made "
      "by query evaluations");
  return *c;
}

obs::Counter& NodesEmittedCounter() {
  static obs::Counter* const c = obs::MetricRegistry::Default().GetCounter(
      "query.eval.nodes_emitted", "Nodes produced by query evaluations");
  return *c;
}

// One evaluation's view of the document: every structural decision goes
// through the labeling predicates below, which tally their calls locally;
// the caller adds the tally to `query.eval.label_comparisons` once.
class Eval {
 public:
  explicit Eval(const LabeledDocument& doc)
      : doc_(doc), lab_(doc.labeling()) {}

  const LabeledDocument& doc() const { return doc_; }
  uint64_t calls() const { return calls_; }

  bool IsAncestor(NodeId a, NodeId d) {
    ++calls_;
    return lab_.IsAncestor(a, d);
  }
  bool IsParent(NodeId p, NodeId c) {
    ++calls_;
    return lab_.IsParent(p, c);
  }
  int CompareOrder(NodeId a, NodeId b) {
    ++calls_;
    return lab_.CompareOrder(a, b);
  }

 private:
  const LabeledDocument& doc_;
  const Labeling& lab_;
  uint64_t calls_ = 0;
};

// Index of the first node in the document-ordered `list` that comes after
// `node` in document order — found with label comparisons (binary search
// over the list's COW runs; allocation-free).
size_t FirstAfter(Eval& ev, const TagList& list, NodeId node) {
  size_t lo = 0;
  size_t hi = list.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (ev.CompareOrder(node, list[mid]) < 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Index of the first entry of `list` at or after `from` that lies outside
// `node`'s subtree, given that the entries from `from` on start after
// `node`: its descendants form a prefix there, found by galloping and then
// bisecting on IsAncestor (O(log k) tests to skip k entries).
size_t SubtreeEnd(Eval& ev, const TagList& list, size_t from, NodeId node) {
  size_t lo = from;  // entries in [from, lo) are inside
  size_t hi = list.size();
  for (size_t stride = 1; lo < list.size(); stride *= 2) {
    const size_t probe = std::min(lo + stride - 1, list.size() - 1);
    if (!ev.IsAncestor(node, list[probe])) {
      hi = probe;
      break;
    }
    lo = probe + 1;
  }
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (ev.IsAncestor(node, list[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Parent of `node` from labels alone: its ancestors precede it in document
// order, and the nearest one that IsParent matches is the parent. The
// backward scan uses operator[] (O(log runs) per probe).
NodeId ParentOf(Eval& ev, NodeId node) {
  if (node == ev.doc().root()) return kNoNode;
  const TagList& all = ev.doc().all_elements();
  for (size_t idx = FirstAfter(ev, all, node); idx > 0;) {
    const NodeId prev = all[--idx];
    if (prev != node && ev.IsParent(prev, node)) return prev;
  }
  return kNoNode;
}

// True when every existence predicate of `step` holds at `node`.
bool PredicatesHold(Eval& ev, const Step& step, NodeId node);

// True when the relative path `steps[i..]` matches something under `node`.
bool ExistsFrom(Eval& ev, NodeId node, const std::vector<Step>& steps,
                size_t i) {
  if (i == steps.size()) return true;
  const Step& step = steps[i];
  const TagList& cands = ev.doc().WithTag(step.name);
  const TagList::Iterator last = cands.end();
  for (TagList::Iterator it = cands.IteratorAt(FirstAfter(ev, cands, node));
       it != last && ev.IsAncestor(node, *it); ++it) {
    const NodeId cand = *it;
    if (step.axis == Axis::kChild && !ev.IsParent(node, cand)) continue;
    if (!PredicatesHold(ev, step, cand)) continue;
    if (ExistsFrom(ev, cand, steps, i + 1)) return true;
  }
  return false;
}

bool PredicatesHold(Eval& ev, const Step& step, NodeId node) {
  for (const RelativePath& rel : step.predicates) {
    if (!ExistsFrom(ev, node, rel.steps, 0)) return false;
  }
  return true;
}

// 1-based rank of `node` among its same-tag siblings, via labels.
size_t SiblingRank(Eval& ev, NodeId node) {
  const NodeId parent = ParentOf(ev, node);
  if (parent == kNoNode) return 1;  // the root
  const TagList& cands = ev.doc().WithTag(ev.doc().tag(node));
  size_t rank = 1;
  const TagList::Iterator last = cands.end();
  for (TagList::Iterator it = cands.IteratorAt(FirstAfter(ev, cands, parent));
       it != last && ev.CompareOrder(*it, node) < 0; ++it) {
    if (ev.IsParent(parent, *it)) ++rank;
  }
  return rank;
}

// Same-tag sibling ranks for `//name[n]`, in one pass over a
// document-ordered list of same-tag candidates. A stack of (parent, count)
// frames follows the candidates' root path: frames whose parent does not
// enclose the candidate are done; a candidate under the top frame's parent
// is its next child; any other candidate starts a new frame, and only then
// is its parent looked up. One ParentOf per distinct parent, not per
// candidate.
class SiblingRanker {
 public:
  size_t Rank(Eval& ev, NodeId cand) {
    while (!frames_.empty() && !ev.IsAncestor(frames_.back().parent, cand)) {
      frames_.pop_back();
    }
    if (!frames_.empty() && ev.IsParent(frames_.back().parent, cand)) {
      return ++frames_.back().count;
    }
    const NodeId parent = ParentOf(ev, cand);
    if (parent != kNoNode) frames_.push_back({parent, 1});
    return 1;
  }

 private:
  struct Frame {
    NodeId parent;
    size_t count;
  };
  std::vector<Frame> frames_;
};

// Emits the descendants of `context` (strict) named by `step`, filtered by
// its position and predicates, in document order. `*` positionals rank by
// each candidate's own tag, so they take SiblingRank per candidate; named
// ones share one SiblingRanker pass over the candidates.
void EmitDescendants(Eval& ev, NodeId context, const Step& step,
                     std::vector<NodeId>* out) {
  const TagList& cands = ev.doc().WithTag(step.name);
  size_t begin = 0;
  size_t end = cands.size();
  if (context != kNoNode) {
    begin = FirstAfter(ev, cands, context);
    end = SubtreeEnd(ev, cands, begin, context);
  }
  const size_t want = static_cast<size_t>(step.position);
  SiblingRanker ranker;
  TagList::Iterator it = cands.IteratorAt(begin);
  for (size_t i = begin; i < end; ++i, ++it) {
    const NodeId cand = *it;
    if (want != 0) {
      const size_t rank = step.name == "*" ? SiblingRank(ev, cand)
                                           : ranker.Rank(ev, cand);
      if (rank != want) continue;
    }
    if (!PredicatesHold(ev, step, cand)) continue;
    out->push_back(cand);
  }
}

// Child expansion of one context node. Under `*` every element inside a
// child is a candidate and none is a child, so the scan skips each child's
// subtree instead of testing it node by node.
void ExpandChildren(Eval& ev, NodeId context, const Step& step,
                    std::vector<NodeId>* out) {
  const TagList& cands = ev.doc().WithTag(step.name);
  const bool skip_subtrees = step.name == "*";
  size_t child_rank = 0;  // per-context rank for child-axis positionals
  size_t i = FirstAfter(ev, cands, context);
  const size_t end = SubtreeEnd(ev, cands, i, context);
  TagList::Iterator it = cands.IteratorAt(i);
  while (i < end) {
    const NodeId cand = *it;
    const bool is_child = ev.IsParent(context, cand);
    if (is_child) ++child_rank;
    if (is_child &&
        (step.position == 0 ||
         child_rank == static_cast<size_t>(step.position)) &&
        PredicatesHold(ev, step, cand)) {
      out->push_back(cand);
    }
    if (is_child && skip_subtrees) {
      i = SubtreeEnd(ev, cands, i + 1, cand);
      it = cands.IteratorAt(i);
    } else {
      ++i;
      ++it;
    }
  }
}

void ExpandPrecedingSibling(Eval& ev, NodeId context, const Step& step,
                            std::vector<NodeId>* out) {
  const NodeId parent = ParentOf(ev, context);
  if (parent == kNoNode) return;
  const TagList& cands = ev.doc().WithTag(step.name);
  const TagList::Iterator last = cands.end();
  for (TagList::Iterator it = cands.IteratorAt(FirstAfter(ev, cands, parent));
       it != last && ev.CompareOrder(*it, context) < 0; ++it) {
    const NodeId cand = *it;
    if (!ev.IsParent(parent, cand)) continue;
    if (!PredicatesHold(ev, step, cand)) continue;
    out->push_back(cand);
  }
}

bool NameMatches(const Step& step, const std::string& tag) {
  return step.name == "*" || step.name == tag;
}

void ExpandParent(Eval& ev, NodeId context, const Step& step,
                  std::vector<NodeId>* out) {
  const NodeId parent = ParentOf(ev, context);
  if (parent == kNoNode) return;
  if (!NameMatches(step, ev.doc().tag(parent))) return;
  if (!PredicatesHold(ev, step, parent)) return;
  out->push_back(parent);
}

void ExpandAncestor(Eval& ev, NodeId context, const Step& step,
                    std::vector<NodeId>* out) {
  // Candidates with the right tag that start before the context node; keep
  // those whose label encloses it.
  const TagList& cands = ev.doc().WithTag(step.name);
  const size_t end = FirstAfter(ev, cands, context);
  TagList::Iterator it = cands.begin();
  for (size_t idx = 0; idx < end; ++idx, ++it) {
    const NodeId cand = *it;
    if (cand == context || !ev.IsAncestor(cand, context)) continue;
    if (!PredicatesHold(ev, step, cand)) continue;
    out->push_back(cand);
  }
}

void ExpandFollowing(Eval& ev, NodeId context, const Step& step,
                     std::vector<NodeId>* out) {
  const TagList& cands = ev.doc().WithTag(step.name);
  const TagList::Iterator last = cands.end();
  // Skip the context's own descendants (following excludes them).
  TagList::Iterator it = cands.IteratorAt(
      SubtreeEnd(ev, cands, FirstAfter(ev, cands, context), context));
  for (; it != last; ++it) {
    if (!PredicatesHold(ev, step, *it)) continue;
    out->push_back(*it);
  }
}

// Restores document order and uniqueness on a step output that does not
// have them by construction: one linear check (n-1 comparisons), and a
// label-order sort only when it fails. Ids assigned by later insertions are
// not document-ordered, so order is always decided by labels.
void KeepDocumentOrder(Eval& ev, std::vector<NodeId>* nodes) {
  for (size_t i = 1; i < nodes->size(); ++i) {
    if (ev.CompareOrder((*nodes)[i - 1], (*nodes)[i]) >= 0) {
      std::sort(nodes->begin(), nodes->end(), [&ev](NodeId a, NodeId b) {
        return ev.CompareOrder(a, b) < 0;
      });
      nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
      return;
    }
  }
}

// The first step: its context is the (virtual) document node. Both axes
// emit in document order.
void ExpandFromDocument(Eval& ev, const Step& step, std::vector<NodeId>* out) {
  const NodeId root = ev.doc().root();
  if (step.axis == Axis::kChild) {
    if (NameMatches(step, ev.doc().tag(root)) &&
        (step.position == 0 || step.position == 1) &&
        PredicatesHold(ev, step, root)) {
      out->push_back(root);
    }
  } else if (step.axis == Axis::kDescendant) {
    EmitDescendants(ev, kNoNode, step, out);
  }
}

// Expands a later step over `context` (document-ordered, duplicate-free)
// into `out` with the same two properties.
void ExpandStep(Eval& ev, const Step& step, const std::vector<NodeId>& context,
                std::vector<NodeId>* out) {
  switch (step.axis) {
    case Axis::kDescendant: {
      // Staircase pruning: a context inside the last kept one adds nothing
      // its ancestor does not (ranks and predicates do not depend on the
      // context). The kept contexts' subtrees are disjoint and ordered, so
      // their outputs concatenate in document order without duplicates.
      NodeId kept = kNoNode;
      for (const NodeId c : context) {
        if (kept != kNoNode && ev.IsAncestor(kept, c)) continue;
        kept = c;
        EmitDescendants(ev, c, step, out);
      }
      return;
    }
    case Axis::kFollowing: {
      // following(c) is everything after c's subtree, so the union over the
      // contexts is following() of the context whose subtree ends first.
      // Walk from the first context down through the contexts nested in it:
      // the first one outside the current context starts after it ends,
      // and so does every later one.
      NodeId first = context.front();
      for (size_t i = 1; i < context.size() && ev.IsAncestor(first, context[i]);
           ++i) {
        first = context[i];
      }
      ExpandFollowing(ev, first, step, out);
      return;
    }
    case Axis::kChild:
      for (const NodeId c : context) ExpandChildren(ev, c, step, out);
      break;
    case Axis::kPrecedingSibling:
      for (const NodeId c : context) ExpandPrecedingSibling(ev, c, step, out);
      break;
    case Axis::kParent:
      for (const NodeId c : context) ExpandParent(ev, c, step, out);
      break;
    case Axis::kAncestor:
      for (const NodeId c : context) ExpandAncestor(ev, c, step, out);
      break;
  }
  // Children of nested contexts interleave; parents, ancestors and
  // preceding siblings of different contexts overlap.
  KeepDocumentOrder(ev, out);
}

}  // namespace

NodeId FindParent(const LabeledDocument& doc, NodeId node) {
  Eval ev(doc);
  const NodeId parent = ParentOf(ev, node);
  LabelComparisonsCounter().Increment(ev.calls());
  return parent;
}

std::vector<NodeId> EvaluateQuery(const Query& query,
                                  const LabeledDocument& doc) {
  QueriesCounter().Increment();
  obs::ScopedTimer timer(obs::MetricRegistry::Default().GetHistogram(
      "query.eval.ns", "Wall time per navigational query evaluation"));
  Eval ev(doc);
  std::vector<NodeId> context;
  for (size_t i = 0; i < query.steps.size(); ++i) {
    std::vector<NodeId> next;
    if (i == 0) {
      ExpandFromDocument(ev, query.steps[i], &next);
    } else {
      ExpandStep(ev, query.steps[i], context, &next);
    }
    context = std::move(next);
    if (context.empty()) break;
  }
  LabelComparisonsCounter().Increment(ev.calls());
  NodesEmittedCounter().Increment(context.size());
  return context;
}

uint64_t CountMatches(const Query& query,
                      const std::vector<const LabeledDocument*>& corpus) {
  uint64_t total = 0;
  for (const LabeledDocument* doc : corpus) {
    total += EvaluateQuery(query, *doc).size();
  }
  return total;
}

}  // namespace cdbs::query
