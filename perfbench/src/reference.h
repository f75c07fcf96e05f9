#ifndef CDBS_PERFBENCH_REFERENCE_H_
#define CDBS_PERFBENCH_REFERENCE_H_

#include <array>
#include <cstdint>
#include <list>
#include <vector>

#include "xml/tree.h"

/// \file
/// Reference answers computed apart from the program under test: Q1–Q6 by
/// plain walks of the generated xml::Document trees (no labels, no query
/// engine), and a plain ordered-list model of the write workloads'
/// insertions. Every answer the serving stack gives is checked against
/// these.

namespace perfbench {

/// Matches of Q1..Q6 (query::Table3Queries(), in that order).
using QueryCounts = std::array<uint64_t, 6>;

/// Q1–Q6 over one play, by walking its tree.
QueryCounts WalkQueryCounts(const cdbs::xml::Document& play);

/// Sum of WalkQueryCounts over a corpus.
QueryCounts WalkQueryCounts(const std::vector<cdbs::xml::Document>& plays);

/// Table 3's published counts over D5 at scale 1.
const QueryCounts& Table3Counts();

/// Prints the reference answers for every workload's documents: Q1–Q6 per
/// D5 play, their totals beside Table 3, and the counts over the Hamlet
/// stand-in and the D5-sized play.
void PrintReference();

/// Document-order ranks of the `tag` elements of `doc`, which are also
/// their node ids in a freshly opened database (ids are assigned in
/// document order).
std::vector<uint32_t> RanksOfTag(const cdbs::xml::Document& doc,
                                 const char* tag);

/// A plain ordered list of node ids: the document order of the elements a
/// write workload touches plus every node it inserts. InsertAfter places
/// the new id immediately after its target, which is what inserting a
/// sibling after a leaf element does to document order.
class OrderedListModel {
 public:
  /// Starts from `ids`, already in document order.
  explicit OrderedListModel(const std::vector<uint32_t>& ids);
  void InsertAfter(uint32_t target, uint64_t new_id);
  /// Ids at or above `first_new` (the inserted ones), in list order.
  std::vector<uint64_t> InsertedInOrder(uint64_t first_new) const;

 private:
  std::list<uint64_t> order_;
  std::vector<std::list<uint64_t>::iterator> position_;  // by target id
};

}  // namespace perfbench

#endif  // CDBS_PERFBENCH_REFERENCE_H_
