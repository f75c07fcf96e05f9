#ifndef CDBS_QUERY_EVALUATOR_H_
#define CDBS_QUERY_EVALUATOR_H_

#include <vector>

#include "query/tag_index.h"
#include "query/xpath.h"

/// \file
/// Label-driven evaluation of the XPath subset: every structural decision
/// (child, descendant, sibling, order) is answered by the labeling's
/// predicates, so response times directly reflect each scheme's label
/// comparison costs — exactly what Figure 6 measures.
///
/// Each step keeps its output in document order and free of duplicates, by
/// construction where it can (staircase join, Grust et al.):
///   - a descendant step drops every context nested in the last kept one,
///     so the kept contexts' subtrees are disjoint and their outputs simply
///     concatenate;
///   - a following:: step expands only the context whose subtree ends
///     first, whose following set is the union of all of them;
///   - `//name[n]` ranks its candidates in one pass with a stack of
///     (parent, count) frames, looking each distinct parent up once;
///   - a subtree's candidates are bounded by a galloping search on
///     IsAncestor instead of a test per candidate.
/// Child, preceding-sibling::, parent:: and ancestor:: steps check their
/// output's order in one linear pass and sort by CompareOrder only when
/// the check fails (children of nested contexts interleave; the upward and
/// sibling axes overlap between contexts). Every predicate call is counted
/// in `query.eval.label_comparisons`.

namespace cdbs::query {

/// Evaluates `query` over one labeled document; returns matching element
/// ids in document order.
std::vector<NodeId> EvaluateQuery(const Query& query,
                                  const LabeledDocument& doc);

/// Evaluates `query` over a corpus of labeled documents and returns the
/// total number of matches (the Table 3 metric).
uint64_t CountMatches(const Query& query,
                      const std::vector<const LabeledDocument*>& corpus);

/// Finds the parent of `node` using labels only (scan back through the
/// document-ordered element list until IsParent matches). Exposed for
/// tests; its predicate calls count in `query.eval.label_comparisons`.
NodeId FindParent(const LabeledDocument& doc, NodeId node);

}  // namespace cdbs::query

#endif  // CDBS_QUERY_EVALUATOR_H_
