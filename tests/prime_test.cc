#include "labeling/prime.h"

#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xml/shakespeare.h"

namespace cdbs::labeling {
namespace {

TEST(FirstPrimesTest, KnownPrefix) {
  const auto primes = FirstPrimes(10);
  EXPECT_EQ(primes, (std::vector<uint64_t>{2, 3, 5, 7, 11, 13, 17, 19, 23,
                                           29}));
}

TEST(FirstPrimesTest, CountAndGrowth) {
  const auto primes = FirstPrimes(10000);
  ASSERT_EQ(primes.size(), 10000u);
  EXPECT_EQ(primes[9999], 104729u);  // the 10000th prime
  // k-th prime exceeds k+1 (1-based) — the property the SC residues need.
  for (size_t i = 0; i < primes.size(); ++i) {
    ASSERT_GT(primes[i], i + 1);
  }
}

TEST(PrimeLabelingTest, LabelsAreProductsOfPathPrimes) {
  auto parsed = xml::ParseXml("<a><b><c/></b><d/></a>");
  ASSERT_TRUE(parsed.ok());
  auto labeling = MakePrimeScheme()->Label(*parsed);
  // ids/doc order: a=0 b=1 c=2 d=3; primes 2,3,5,7.
  EXPECT_TRUE(labeling->IsAncestor(0, 1));
  EXPECT_TRUE(labeling->IsAncestor(0, 2));
  EXPECT_TRUE(labeling->IsAncestor(1, 2));
  EXPECT_FALSE(labeling->IsAncestor(1, 3));
  EXPECT_FALSE(labeling->IsAncestor(2, 1));
  EXPECT_TRUE(labeling->IsParent(1, 2));
  EXPECT_FALSE(labeling->IsParent(0, 2));
}

TEST(PrimeLabelingTest, DocumentOrderViaScValues) {
  const xml::Document play = xml::GeneratePlay(31, 400);
  auto labeling = MakePrimeScheme()->Label(play);
  for (NodeId a = 0; a < 400; a += 13) {
    for (NodeId b = 0; b < 400; b += 17) {
      const int want = a == b ? 0 : (a < b ? -1 : 1);
      ASSERT_EQ(labeling->CompareOrder(a, b), want) << a << "," << b;
    }
  }
}

TEST(PrimeLabelingTest, InsertionRecomputesOneFifthOfScValues) {
  // 400 nodes -> 80 SC groups before insertion, 81 after (401 positions).
  const xml::Document play = xml::GeneratePlay(31, 400);
  auto labeling = MakePrimeScheme()->Label(play);
  // Insert before the node at document position 201 (id 200): groups from
  // floor(200/5)=40 on must be recomputed: 81 - 40 = 41.
  const InsertResult result = labeling->InsertSiblingBefore(200);
  EXPECT_EQ(result.relabeled, 41u);
  // Order remains consistent: new node right before id 200.
  EXPECT_LT(labeling->CompareOrder(199, result.new_node), 0);
  EXPECT_LT(labeling->CompareOrder(result.new_node, 200), 0);
}

TEST(PrimeLabelingTest, InsertionDoesNotChangeExistingLabels) {
  auto parsed = xml::ParseXml("<a><b/><c/><d/></a>");
  ASSERT_TRUE(parsed.ok());
  auto labeling = MakePrimeScheme()->Label(*parsed);
  const std::string label_b = labeling->SerializeLabel(1);
  const std::string label_d = labeling->SerializeLabel(3);
  labeling->InsertSiblingBefore(2);
  EXPECT_EQ(labeling->SerializeLabel(1), label_b);
  EXPECT_EQ(labeling->SerializeLabel(3), label_d);
}

TEST(PrimeLabelingTest, InsertAfterSubtreeGetsPositionPastTheSubtree) {
  // a(b(c,d), e): inserting after b must land between d and e in document
  // order, not between b and c.
  auto parsed = xml::ParseXml("<a><b><c/><d/></b><e/></a>");
  ASSERT_TRUE(parsed.ok());
  auto labeling = MakePrimeScheme()->Label(*parsed);
  const InsertResult result = labeling->InsertSiblingAfter(1);
  EXPECT_LT(labeling->CompareOrder(3, result.new_node), 0);  // d before new
  EXPECT_LT(labeling->CompareOrder(result.new_node, 4), 0);  // new before e
  EXPECT_LT(labeling->CompareOrder(1, result.new_node), 0);  // b before new
}

TEST(PrimeLabelingTest, DeleteSubtreeRecomputesTailGroups) {
  const xml::Document play = xml::GeneratePlay(31, 400);
  auto labeling = MakePrimeScheme()->Label(play);
  // Pick a mid-document leaf so ids outside it certainly survive.
  NodeId victim = 200;
  while (labeling->skeleton().SubtreeSize(victim) != 1) ++victim;
  const DeleteResult result = labeling->DeleteSubtree(victim);
  EXPECT_EQ(result.removed.size(), 1u);
  EXPECT_GT(result.relabeled, 0u);  // tail SC groups recomputed
  // Order of survivors still consistent.
  EXPECT_LT(labeling->CompareOrder(victim - 1, 399), 0);
  EXPECT_LT(labeling->CompareOrder(0, victim - 1), 0);
}

TEST(PrimeLabelingTest, RemovedNodesStillCompareWhereTheyWere) {
  // The tag lists erase removed ids by label-order binary search after the
  // delete, so removed nodes must still compare — even when their SC groups
  // are gone. Deleting the root's last child drops the document's tail.
  const xml::Document play = xml::GeneratePlay(31, 400);
  auto labeling = MakePrimeScheme()->Label(play);
  const NodeId victim = labeling->skeleton().last_child(0);
  const DeleteResult result = labeling->DeleteSubtree(victim);
  ASSERT_GT(result.removed.size(), 5u);
  ASSERT_EQ(result.removed.front(), victim);
  const NodeId before = victim - 1;  // ids of the labeled play are ranks
  EXPECT_LT(labeling->CompareOrder(before, victim), 0);
  for (size_t i = 1; i < result.removed.size(); ++i) {
    EXPECT_LT(labeling->CompareOrder(result.removed[i - 1], result.removed[i]),
              0);
    EXPECT_GT(labeling->CompareOrder(result.removed[i], before), 0);
  }
}

TEST(PrimeLabelingTest, LabelSizesAreMuchLargerThanContainment) {
  const xml::Document play = xml::GeneratePlay(31, 500);
  auto labeling = MakePrimeScheme()->Label(play);
  // Figure 5: Prime's products blow up label sizes. 500 nodes with primes
  // up to ~3571 at depth ~5: labels average tens of bits (vs ~20 for
  // containment values).
  EXPECT_GT(labeling->AvgLabelBits(), 40.0);
}

TEST(PrimeLabelingTest, DeepChainsMultiplyLabels) {
  std::string xml;
  for (int i = 0; i < 12; ++i) xml += "<e" + std::to_string(i) + ">";
  for (int i = 11; i >= 0; --i) xml += "</e" + std::to_string(i) + ">";
  auto parsed = xml::ParseXml(xml);
  ASSERT_TRUE(parsed.ok());
  auto labeling = MakePrimeScheme()->Label(*parsed);
  for (NodeId i = 0; i + 1 < 12; ++i) {
    EXPECT_TRUE(labeling->IsParent(i, i + 1));
    EXPECT_TRUE(labeling->IsAncestor(0, i + 1));
  }
  // The deepest label is the product 2*3*5*...*37 = 7420738134810 (> 2^42).
  EXPECT_GT(labeling->TotalLabelBits(), 42u);
}

}  // namespace
}  // namespace cdbs::labeling
