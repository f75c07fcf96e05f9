// Copy-on-write snapshot publication tests: forks must be logically
// independent of the live document (aliasing), and forking + mutating must
// copy O(touched) chunks, not O(N) (accounting) — the property behind
// O(touched) group-commit publishes (docs/CONCURRENCY.md).
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/concurrent_db.h"
#include "labeling/registry.h"
#include "obs/metrics.h"
#include "query/evaluator.h"
#include "query/tag_index.h"
#include "query/tag_list.h"
#include "util/check.h"
#include "util/cow_vector.h"
#include "xml/parser.h"
#include "xml/shakespeare.h"

namespace cdbs {
namespace {

using labeling::NodeId;
using query::LabeledDocument;
using query::TagList;
using util::CowSpine;
using util::CowStats;
using util::CowVector;

// Leaves per spine group (chunks of a CowVector, runs of a TagList).
constexpr size_t kFanout = CowSpine<int>::kFanout;

// ---------------------------------------------------------------------------
// CowVector primitives.

TEST(CowVectorTest, PushBackAndRead) {
  CowVector<int> v;
  for (int i = 0; i < 1000; ++i) v.PushBack(i);
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i);
  EXPECT_EQ(v.chunk_count(), (1000 + 255) / 256);
}

TEST(CowVectorTest, CopySharesChunksAndMutationIsolates) {
  CowVector<int> a;
  for (int i = 0; i < 600; ++i) a.PushBack(i);

  CowStats& stats = CowStats::Local();
  const uint64_t shared0 = stats.chunks_shared;
  CowVector<int> b = a;  // O(groups) fork
  EXPECT_EQ(stats.chunks_shared - shared0, a.group_count());

  const uint64_t copies0 = stats.chunk_copies;
  a.Set(10, -1);  // path-copies exactly the one touched chunk
  EXPECT_EQ(stats.chunk_copies - copies0, 1u);
  EXPECT_EQ(a[10], -1);
  EXPECT_EQ(b[10], 10);  // the fork is untouched

  // Mutating the same chunk again copies nothing further.
  a.Set(11, -2);
  EXPECT_EQ(stats.chunk_copies - copies0, 1u);
  EXPECT_EQ(b[11], 11);
}

TEST(CowVectorTest, ResizeGrowsWithDefaults) {
  CowVector<uint32_t> v;
  v.Resize(300);
  ASSERT_EQ(v.size(), 300u);
  EXPECT_EQ(v[299], 0u);
  v.Set(299, 7);
  EXPECT_EQ(v[299], 7u);
}

// Elements per spine group: kFanout chunks of kChunkSize elements.
constexpr size_t kGroupElems = kFanout * CowVector<int>::kChunkSize;

TEST(CowVectorTest, PushBackCrossesGroupBoundary) {
  CowVector<int> v;
  for (size_t i = 0; i < kGroupElems; ++i) v.PushBack(static_cast<int>(i));
  EXPECT_EQ(v.group_count(), 1u);

  // A fork at the exact group edge: the next PushBack opens a fresh chunk
  // in a fresh group, so nothing shared is copied.
  CowStats& stats = CowStats::Local();
  const CowVector<int> fork = v;
  const uint64_t copies0 = stats.chunk_copies;
  const uint64_t groups0 = stats.group_copies;
  for (size_t i = kGroupElems; i < 2 * kGroupElems + 100; ++i) {
    v.PushBack(static_cast<int>(i));
  }
  EXPECT_EQ(stats.chunk_copies - copies0, 0u);
  EXPECT_EQ(stats.group_copies - groups0, 0u);
  EXPECT_EQ(v.group_count(), 3u);
  EXPECT_EQ(v.chunk_count(), (2 * kGroupElems + 100 + 255) / 256);
  for (size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(v[i], static_cast<int>(i)) << i;
  }
  EXPECT_EQ(fork.size(), kGroupElems);
  EXPECT_EQ(fork.group_count(), 1u);
  EXPECT_EQ(fork[kGroupElems - 1], static_cast<int>(kGroupElems - 1));

  // Mid-chunk after a fork: the last group and chunk are shared, so the
  // append path-copies exactly one of each.
  const CowVector<int> fork2 = v;
  const uint64_t copies1 = stats.chunk_copies;
  const uint64_t groups1 = stats.group_copies;
  v.PushBack(-1);
  EXPECT_EQ(stats.chunk_copies - copies1, 1u);
  EXPECT_EQ(stats.group_copies - groups1, 1u);
  EXPECT_EQ(fork2.size(), v.size() - 1);
}

TEST(CowVectorTest, SetOnGroupSharedWithForkCopiesGroupOnce) {
  CowVector<int> v;
  for (size_t i = 0; i < 2 * kGroupElems; ++i) v.PushBack(static_cast<int>(i));
  const CowVector<int> fork = v;

  CowStats& stats = CowStats::Local();
  const uint64_t copies0 = stats.chunk_copies;
  const uint64_t groups0 = stats.group_copies;
  const uint64_t bytes0 = stats.bytes_copied;
  v.Set(5, -5);  // group 0, chunk 0: both shared
  EXPECT_EQ(stats.chunk_copies - copies0, 1u);
  EXPECT_EQ(stats.group_copies - groups0, 1u);
  EXPECT_EQ(stats.bytes_copied - bytes0,
            256 * sizeof(int) + kFanout * sizeof(std::shared_ptr<int>));
  v.Mutable(300) = -300;  // group 0 now private; chunk 1 still shared
  EXPECT_EQ(stats.chunk_copies - copies0, 2u);
  EXPECT_EQ(stats.group_copies - groups0, 1u);
  v.Set(6, -6);  // chunk 0 private too: in place
  EXPECT_EQ(stats.chunk_copies - copies0, 2u);
  v.Set(kGroupElems + 1, -1);  // group 1: one more group and chunk
  EXPECT_EQ(stats.chunk_copies - copies0, 3u);
  EXPECT_EQ(stats.group_copies - groups0, 2u);

  for (size_t i = 0; i < fork.size(); ++i) {
    ASSERT_EQ(fork[i], static_cast<int>(i)) << i;
  }
  EXPECT_EQ(v[5], -5);
  EXPECT_EQ(v[6], -6);
  EXPECT_EQ(v[300], -300);
  EXPECT_EQ(v[kGroupElems + 1], -1);
  EXPECT_EQ(v[kGroupElems + 2], static_cast<int>(kGroupElems + 2));
}

TEST(CowVectorTest, ExclusiveLeavesAreForgottenAtEveryFork) {
  // Writes skip the sharing checks on leaves they already made exclusive;
  // every fork (copy or copy-assignment) must end that.
  CowVector<int> v;
  for (int i = 0; i < 600; ++i) v.PushBack(i);
  v.Set(5, -5);  // chunk 0 is now known exclusive

  CowStats& stats = CowStats::Local();
  const uint64_t copies0 = stats.chunk_copies;
  {
    const CowVector<int> fork = v;
    v.Set(5, -6);
    EXPECT_EQ(stats.chunk_copies - copies0, 1u);
    EXPECT_EQ(fork[5], -5);
    v.Set(6, -7);  // exclusive again: in place
    EXPECT_EQ(stats.chunk_copies - copies0, 1u);
    EXPECT_EQ(fork[6], 6);
  }
  // A fork that died before the next write shares nothing any more.
  { const CowVector<int> gone = v; }
  v.Set(5, -8);
  EXPECT_EQ(stats.chunk_copies - copies0, 1u);

  CowVector<int> assigned;
  assigned = v;
  v.Set(5, -9);
  EXPECT_EQ(stats.chunk_copies - copies0, 2u);
  EXPECT_EQ(assigned[5], -8);
  // v took the copy, so the old chunk is the assigned side's alone.
  assigned.Set(6, 0);
  EXPECT_EQ(stats.chunk_copies - copies0, 2u);
  EXPECT_EQ(assigned[6], 0);
  EXPECT_EQ(v[6], -7);
  EXPECT_EQ(v[5], -9);
}

TEST(CowVectorTest, CopyThatWritesFirstStillIsolatesSource) {
  // The copy writes first, to another group; then the source writes to a
  // leaf it had marked exclusive before the copy. That leaf is shared with
  // the copy, so the source must path-copy it, not write in place.
  CowVector<int> a;
  for (int i = 0; i < 600; ++i) a.PushBack(i);
  a.Set(5, -5);  // chunk 0 is now known exclusive to a

  CowStats& stats = CowStats::Local();
  CowVector<int> b = a;
  b.Set(300, 1);  // chunk 1, in the group b clones
  const uint64_t copies0 = stats.chunk_copies;
  a.Set(6, -6);
  EXPECT_EQ(stats.chunk_copies - copies0, 1u);
  EXPECT_EQ(b[6], 6);
  EXPECT_EQ(b[5], -5);
  EXPECT_EQ(a[6], -6);
  EXPECT_EQ(a[300], 300);
  EXPECT_EQ(b[300], 1);

  // The same through copy-assignment.
  CowVector<int> c;
  c = a;
  c.Set(300, 2);
  a.Set(7, -7);
  EXPECT_EQ(c[7], 7);
  EXPECT_EQ(c[6], -6);
  EXPECT_EQ(a[7], -7);
  EXPECT_EQ(a[300], 300);
}

TEST(CowVectorTest, ResizeAcrossGroupsLeavesForkIntact) {
  CowVector<uint32_t> v;
  v.Resize(kGroupElems - 10);
  v.Set(kGroupElems - 11, 9);
  const CowVector<uint32_t> fork = v;
  v.Resize(3 * kGroupElems + 7);
  ASSERT_EQ(v.size(), 3 * kGroupElems + 7);
  EXPECT_EQ(v.group_count(), 4u);
  EXPECT_EQ(v[kGroupElems - 11], 9u);
  for (size_t i = kGroupElems - 10; i < v.size(); ++i) ASSERT_EQ(v[i], 0u);
  v.Set(3 * kGroupElems + 6, 4);
  EXPECT_EQ(v[3 * kGroupElems + 6], 4u);
  EXPECT_EQ(fork.size(), kGroupElems - 10);
  EXPECT_EQ(fork.group_count(), 1u);
  EXPECT_EQ(fork[kGroupElems - 11], 9u);
}

// ---------------------------------------------------------------------------
// TagList: COW sorted runs.

TEST(TagListTest, AppendIterateAndRandomAccess) {
  TagList list;
  for (NodeId i = 0; i < 2000; ++i) list.Append(i);
  ASSERT_EQ(list.size(), 2000u);
  EXPECT_GE(list.run_count(), 2000u / TagList::kRunMax);
  size_t i = 0;
  for (const NodeId id : list) {
    EXPECT_EQ(id, i);
    EXPECT_EQ(list[i], i);
    ++i;
  }
  EXPECT_EQ(i, 2000u);
  // IteratorAt agrees with operator[] at arbitrary positions.
  for (const size_t pos : {size_t{0}, size_t{255}, size_t{256}, size_t{1999}}) {
    EXPECT_EQ(*list.IteratorAt(pos), list[pos]);
  }
  EXPECT_TRUE(list.IteratorAt(2000) == list.end());
}

TEST(TagListTest, InsertSortedKeepsOrderAndSplitsRuns) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  TagList list;
  // Insert even ids in order, then odd ids out of order: every odd insert
  // splices into the middle of a run.
  for (NodeId i = 0; i < 1200; i += 2) list.Append(i);
  for (int i = 1199; i > 0; i -= 2) {
    list.InsertSorted(static_cast<NodeId>(i), less);
  }
  ASSERT_EQ(list.size(), 1200u);
  ASSERT_TRUE(list.RunsSorted(less));
  const std::vector<NodeId> flat = list.ToVector();
  for (NodeId i = 0; i < 1200; ++i) EXPECT_EQ(flat[i], i);
  // Sustained splicing must have split runs (none may exceed kRunMax).
  EXPECT_GE(list.run_count(), 1200u / TagList::kRunMax);
}

TEST(TagListTest, CopySharesRunsAndSpliceCopiesOne) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  TagList list;
  for (NodeId i = 0; i < 2000; i += 2) list.Append(i);

  CowStats& stats = CowStats::Local();
  const uint64_t shared0 = stats.chunks_shared;
  TagList fork = list;
  EXPECT_EQ(stats.chunks_shared - shared0, list.group_count());

  const uint64_t copies0 = stats.chunk_copies;
  list.InsertSorted(501, less);
  EXPECT_EQ(stats.chunk_copies - copies0, 1u);  // exactly the touched run
  EXPECT_EQ(fork.size(), 1000u);
  EXPECT_EQ(fork.UpperBound(501, less), 251u);  // fork: 501 still absent
  EXPECT_EQ(list.size(), 1001u);
  EXPECT_TRUE(list.RunsSorted(less));
  EXPECT_TRUE(fork.RunsSorted(less));
}

TEST(TagListTest, EraseIdsBatchRemovesByBinarySearch) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  TagList list;
  for (NodeId i = 0; i < 1000; ++i) list.Append(i);
  TagList fork = list;

  std::vector<NodeId> victims;
  for (NodeId i = 100; i < 400; ++i) victims.push_back(i);
  victims.push_back(999);
  victims.push_back(5000);  // absent: must be ignored
  list.EraseIds(victims, less);

  ASSERT_EQ(list.size(), 1000u - 301u);
  for (const NodeId id : list) {
    EXPECT_TRUE(id < 100 || (id >= 400 && id != 999));
  }
  EXPECT_TRUE(list.RunsSorted(less));
  EXPECT_EQ(fork.size(), 1000u);  // the fork still has every id
}

TEST(TagListTest, EraseWholeRunsDropsThem) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  TagList list;
  for (NodeId i = 0; i < 1024; ++i) list.Append(i);
  std::vector<NodeId> all;
  for (NodeId i = 0; i < 1024; ++i) all.push_back(i);
  list.EraseIds(all, less);
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.run_count(), 0u);
  EXPECT_TRUE(list.begin() == list.end());
}

// Runs per spine group of a TagList, and a list of `runs` full runs over
// the multiples of `stride` (so other ids splice into the middle of runs).
constexpr size_t kRunsPerGroup = kFanout;

TagList SpacedIdRuns(size_t runs, NodeId stride) {
  TagList list;
  for (NodeId i = 0; i < runs * TagList::kRunTarget * stride; i += stride) {
    list.Append(i);
  }
  return list;
}

TEST(TagListTest, RunSplitAtGroupEdgeCopiesOneGroup) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  TagList list = SpacedIdRuns(kRunsPerGroup + 8, 4);
  ASSERT_EQ(list.run_count(), kRunsPerGroup + 8);
  ASSERT_EQ(list.group_count(), 2u);
  const TagList fork = list;
  const std::vector<NodeId> before = fork.ToVector();

  // Splice 510 ids into the gaps of the last run of group 0: it splits once
  // (past kRunMax) and both halves stay in group 0, so exactly one group
  // and one run are ever copied (the split-off half is fresh).
  CowStats& stats = CowStats::Local();
  const uint64_t groups0 = stats.group_copies;
  const uint64_t copies0 = stats.chunk_copies;
  const NodeId first =
      static_cast<NodeId>((kRunsPerGroup - 1) * TagList::kRunTarget * 4);
  for (NodeId k = 0; k + 1 < TagList::kRunTarget; ++k) {
    list.InsertSorted(first + 4 * k + 1, less);
    list.InsertSorted(first + 4 * k + 2, less);
  }
  EXPECT_EQ(list.run_count(), kRunsPerGroup + 9);
  EXPECT_EQ(list.group_count(), 2u);
  EXPECT_EQ(stats.group_copies - groups0, 1u);
  EXPECT_EQ(stats.chunk_copies - copies0, 1u);
  EXPECT_TRUE(list.RunsSorted(less));
  EXPECT_EQ(list.size(), before.size() + 2 * (TagList::kRunTarget - 1));
  // Random access and iteration agree across the split and the group edge.
  size_t i = 0;
  for (const NodeId id : list) {
    ASSERT_EQ(list[i], id);
    ++i;
  }
  EXPECT_EQ(fork.ToVector(), before);
  EXPECT_EQ(fork.run_count(), kRunsPerGroup + 8);
}

TEST(TagListTest, SustainedSplitsSplitGroups) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  constexpr NodeId kEnd = kRunsPerGroup * TagList::kRunTarget * 4;
  TagList list = SpacedIdRuns(kRunsPerGroup, 4);
  ASSERT_EQ(list.group_count(), 1u);
  const TagList fork = list;
  // Fill every gap: each run quadruples and splits repeatedly, so group 0
  // passes 2 x kRunsPerGroup runs and must split.
  for (NodeId i = 1; i < kEnd; ++i) {
    if (i % 4 != 0) list.InsertSorted(i, less);
  }
  EXPECT_GT(list.run_count(), 2 * kRunsPerGroup);
  EXPECT_GE(list.group_count(), 2u);
  const std::vector<NodeId> flat = list.ToVector();
  ASSERT_EQ(flat.size(), kEnd);
  for (size_t k = 0; k < flat.size(); ++k) ASSERT_EQ(flat[k], k);
  EXPECT_EQ(fork.size(), kRunsPerGroup * TagList::kRunTarget);
  EXPECT_EQ(fork.group_count(), 1u);
}

TEST(TagListTest, RunEmptyingEraseAtGroupEdge) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  TagList list = SpacedIdRuns(kRunsPerGroup + 8, 2);
  const TagList fork = list;
  const std::vector<NodeId> before = fork.ToVector();

  // Empty the last run of group 0 and the first run of group 1.
  const size_t lo = (kRunsPerGroup - 1) * TagList::kRunTarget;
  const size_t hi = (kRunsPerGroup + 1) * TagList::kRunTarget;
  std::vector<NodeId> victims(before.begin() + lo, before.begin() + hi);
  list.EraseIds(victims, less);

  EXPECT_EQ(list.run_count(), kRunsPerGroup + 6);
  EXPECT_EQ(list.size(), before.size() - 2 * TagList::kRunTarget);
  EXPECT_TRUE(list.RunsSorted(less));
  std::vector<NodeId> expected(before.begin(), before.begin() + lo);
  expected.insert(expected.end(), before.begin() + hi, before.end());
  EXPECT_EQ(list.ToVector(), expected);
  size_t i = 0;
  for (const NodeId id : list) {
    ASSERT_EQ(list[i], id);
    ++i;
  }
  // Group 1 (now 7 runs) fits beside nothing of group 0's 31, so both stay;
  // emptying group 1 entirely drops it.
  EXPECT_EQ(list.group_count(), 2u);
  std::vector<NodeId> tail(expected.begin() + lo, expected.end());
  list.EraseIds(tail, less);
  EXPECT_EQ(list.group_count(), 1u);
  EXPECT_EQ(list.ToVector(),
            std::vector<NodeId>(expected.begin(), expected.begin() + lo));

  EXPECT_EQ(fork.ToVector(), before);
  EXPECT_EQ(fork.group_count(), 2u);
}

TEST(TagListTest, EraseMergesSmallTouchedGroup) {
  const auto less = [](NodeId a, NodeId b) { return a < b; };
  TagList list = SpacedIdRuns(2 * kRunsPerGroup + 8, 2);
  ASSERT_EQ(list.group_count(), 3u);
  const TagList fork = list;
  const std::vector<NodeId> before = fork.ToVector();
  // Leave two runs in group 1: with group 2's 8 runs they fit one group.
  const size_t lo = kRunsPerGroup * TagList::kRunTarget;
  const size_t hi = (2 * kRunsPerGroup - 2) * TagList::kRunTarget;
  list.EraseIds(std::vector<NodeId>(before.begin() + lo, before.begin() + hi),
                less);
  EXPECT_EQ(list.run_count(), kRunsPerGroup + 10);
  EXPECT_EQ(list.group_count(), 2u);
  std::vector<NodeId> expected(before.begin(), before.begin() + lo);
  expected.insert(expected.end(), before.begin() + hi, before.end());
  EXPECT_EQ(list.ToVector(), expected);
  EXPECT_EQ(list[lo], before[hi]);
  EXPECT_EQ(fork.ToVector(), before);
}

// ---------------------------------------------------------------------------
// Fork aliasing: after Fork(), mutating the live document (inserts incl.
// scheme-relabeling overflows, deletes, new tag names) must leave the
// pinned snapshot byte-identical.

struct DocState {
  std::vector<std::string> labels;        // SerializeLabel per live node
  std::vector<std::string> tags;          // tag per live node
  std::map<std::string, std::vector<NodeId>> tag_lists;
  std::vector<NodeId> query_c;            // //c results
};

DocState Capture(const LabeledDocument& doc) {
  DocState state;
  const labeling::Labeling& lab = doc.labeling();
  for (NodeId n = 0; n < lab.num_nodes(); ++n) {
    if (lab.skeleton().is_removed(n)) {
      state.labels.emplace_back();
      state.tags.emplace_back();
      continue;
    }
    state.labels.push_back(lab.SerializeLabel(n));
    state.tags.push_back(doc.tag(n));
  }
  for (const std::string name : {"a", "b", "c", "d", "znew", "*"}) {
    state.tag_lists[name] = doc.WithTag(name).ToVector();
  }
  auto query = query::ParseQuery("//c");
  state.query_c = query::EvaluateQuery(*query, doc);
  return state;
}

TEST(CowForkAliasingTest, LiveMutationsNeverLeakIntoFork) {
  // ids: a=0 b=1 c=2 c=3 c=4 d=5 b=6 c=7
  const std::string kXml = "<a><b><c/><c/></b><c/><d><b><c/></b></d></a>";
  for (const auto& scheme : labeling::AllSchemes()) {
    SCOPED_TRACE(scheme->name());
    auto parsed = xml::ParseXml(kXml);
    ASSERT_TRUE(parsed.ok());
    LabeledDocument live(*parsed, *scheme);

    std::unique_ptr<LabeledDocument> fork = live.Fork();
    const DocState before = Capture(*fork);

    // Mutate the live side hard: repeated inserts at one spot (for binary
    // containment this forces the shift-relabel path that rewrites many
    // existing labels in place), a brand-new tag name, and a subtree
    // delete.
    for (int i = 0; i < 8; ++i) {
      const labeling::InsertResult r =
          live.labeling_mutable()->InsertSiblingAfter(2);
      ASSERT_NE(r.new_node, labeling::kNoNode);
      live.NoteInsertedNode(r.new_node, i == 0 ? "znew" : "c");
    }
    const labeling::DeleteResult d =
        live.labeling_mutable()->DeleteSubtree(5);  // the <d> subtree
    live.NoteRemovedNodes(d.removed);

    // The pinned fork is byte-identical to its capture.
    const DocState after = Capture(*fork);
    EXPECT_EQ(after.labels, before.labels);
    EXPECT_EQ(after.tags, before.tags);
    EXPECT_EQ(after.tag_lists, before.tag_lists);
    EXPECT_EQ(after.query_c, before.query_c);

    // And the live side did change: 7 new "c"s, one "znew", minus the one
    // deleted under <d>.
    auto query = query::ParseQuery("//c");
    const std::vector<NodeId> live_c = query::EvaluateQuery(*query, live);
    EXPECT_EQ(live_c.size(), before.query_c.size() + 7 - 1);
    EXPECT_EQ(live.WithTag("znew").size(), 1u);
    EXPECT_EQ(live.WithTag("d").size(), 0u);

    // A fork taken *after* the mutations sees the new state.
    std::unique_ptr<LabeledDocument> fork2 = live.Fork();
    EXPECT_EQ(query::EvaluateQuery(*query, *fork2), live_c);
  }
}

TEST(CowForkAliasingTest, PlayScaleForkSurvivesEditsAtGroupEdges) {
  // The 179,689-element play the serving benchmark uses: 22 groups per
  // per-node array. Edit the live side at and around group edges (node
  // ids k x 8192), at the document end, and by deleting a speech in the
  // middle; the fork must not see any of it.
  auto scheme = labeling::SchemeByName("V-CDBS-Containment");
  xml::Document play = xml::GeneratePlay(20060403, 179689);
  LabeledDocument live(play, *scheme);
  std::unique_ptr<LabeledDocument> fork = live.Fork();

  const labeling::Labeling& lab = fork->labeling();
  const NodeId nodes = static_cast<NodeId>(lab.num_nodes());
  std::vector<std::string> labels(nodes);
  std::vector<query::TagId> tags(nodes);
  for (NodeId n = 0; n < nodes; ++n) {
    labels[n] = lab.SerializeLabel(n);
    tags[n] = fork->tag_id(n);
  }
  std::map<std::string, std::vector<NodeId>> lists;
  for (const std::string name : {"line", "speech", "note", "*"}) {
    lists[name] = fork->WithTag(name).ToVector();
  }

  const std::vector<NodeId> lines = live.WithTag("line").ToVector();
  std::vector<NodeId> targets;
  for (NodeId edge = 8192; edge < nodes; edge += 8192) {
    // The line right before the edge and the first one after it.
    const auto it = std::lower_bound(lines.begin(), lines.end(), edge);
    if (it != lines.begin()) targets.push_back(*(it - 1));
    if (it != lines.end()) targets.push_back(*it);
  }
  targets.push_back(lines.back());
  for (const NodeId target : targets) {
    const labeling::InsertResult r =
        live.labeling_mutable()->InsertSiblingAfter(target);
    ASSERT_NE(r.new_node, labeling::kNoNode);
    live.NoteInsertedNode(r.new_node, "note");
  }
  const std::vector<NodeId> speeches = live.WithTag("speech").ToVector();
  const labeling::DeleteResult d = live.labeling_mutable()->DeleteSubtree(
      speeches[speeches.size() / 2]);
  live.NoteRemovedNodes(d.removed);
  ASSERT_FALSE(d.removed.empty());

  ASSERT_EQ(lab.num_nodes(), nodes);
  for (NodeId n = 0; n < nodes; ++n) {
    ASSERT_EQ(lab.SerializeLabel(n), labels[n]) << n;
    ASSERT_EQ(fork->tag_id(n), tags[n]) << n;
    ASSERT_FALSE(lab.skeleton().is_removed(n)) << n;
  }
  for (const auto& [name, ids] : lists) {
    EXPECT_EQ(fork->WithTag(name).ToVector(), ids) << name;
  }
  EXPECT_TRUE(fork->WithTag("note").empty());
  EXPECT_EQ(live.WithTag("note").size(), targets.size());
  EXPECT_EQ(live.WithTag("speech").size(), speeches.size() - 1);
  EXPECT_EQ(live.all_elements().size(),
            lists["*"].size() + targets.size() -
                (d.removed.size() -
                 static_cast<size_t>(std::count_if(
                     d.removed.begin(), d.removed.end(),
                     [&](NodeId n) { return tags[n] == 0; }))));
}

TEST(CowForkAliasingTest, DeleteThenForkKeepsBatchErasedLists) {
  // NoteRemovedNodes batch-erases by label-order binary search; verify the
  // surviving lists and both sides of a fork straddling the delete.
  auto parsed = xml::ParseXml(
      "<a><b><c/><c/><c/></b><b><c/><c/></b><c/></a>");
  ASSERT_TRUE(parsed.ok());
  auto scheme = labeling::SchemeByName("V-CDBS-Containment");
  LabeledDocument live(*parsed, *scheme);
  // ids: a=0 b=1 c=2 c=3 c=4 b=5 c=6 c=7 c=8
  auto fork = live.Fork();

  const labeling::DeleteResult d =
      live.labeling_mutable()->DeleteSubtree(1);  // first <b>: nodes 1-4
  live.NoteRemovedNodes(d.removed);

  EXPECT_EQ(live.WithTag("b").ToVector(), (std::vector<NodeId>{5}));
  EXPECT_EQ(live.WithTag("c").ToVector(), (std::vector<NodeId>{6, 7, 8}));
  EXPECT_EQ(live.all_elements().size(), 5u);
  EXPECT_EQ(fork->WithTag("b").size(), 2u);
  EXPECT_EQ(fork->WithTag("c").size(), 6u);
  EXPECT_EQ(fork->all_elements().size(), 9u);
}

// ---------------------------------------------------------------------------
// Accounting: forking is copy-free, and one insert after a fork path-copies
// a constant number of chunks regardless of document size.

// Chunks one insert may touch: a handful per per-node array (tags, 7
// skeleton links + removed flags, start/end/level) plus one tag-index run
// each for all_elements and the tag's list. Generous constant bound; the
// point is that it does not scale with document size.
constexpr uint64_t kMaxChunksPerInsert = 64;

// Forks `doc`, applies one insert, and returns (chunk copies, shared
// chunks at fork) observed on this thread.
std::pair<uint64_t, uint64_t> OneInsertCopyCost(LabeledDocument* doc) {
  CowStats& stats = CowStats::Local();
  const uint64_t shared0 = stats.chunks_shared;
  const uint64_t copies0 = stats.chunk_copies;
  std::unique_ptr<LabeledDocument> fork = doc->Fork();
  const uint64_t shared = stats.chunks_shared - shared0;
  EXPECT_EQ(stats.chunk_copies, copies0) << "forking must copy nothing";

  const labeling::InsertResult r =
      doc->labeling_mutable()->InsertSiblingAfter(
          doc->WithTag("line")[doc->WithTag("line").size() / 2]);
  EXPECT_NE(r.new_node, labeling::kNoNode);
  doc->NoteInsertedNode(r.new_node, "line");
  return {stats.chunk_copies - copies0, shared};
}

TEST(CowAccountingTest, OneInsertCopiesConstantChunks) {
  auto scheme = labeling::SchemeByName("V-CDBS-Containment");

  xml::Document small_doc = xml::GeneratePlay(7, 2000);
  LabeledDocument small(small_doc, *scheme);
  const auto [small_copies, small_shared] = OneInsertCopyCost(&small);

  xml::Document big_doc = xml::GeneratePlay(7, 16000);
  LabeledDocument big(big_doc, *scheme);
  const auto [big_copies, big_shared] = OneInsertCopyCost(&big);

  // The fork shares one pointer per spine group, not one per chunk. A flat
  // spine of chunk pointers shares at least one per 256 nodes for each of
  // the 11 per-node arrays (7 skeleton arrays, start/end/level, tags): 833
  // in all at 16k nodes, tag-list runs included. Grouping must cut that at
  // least tenfold.
  const uint64_t flat_spine_shared =
      11 * ((big.labeling().num_nodes() + 255) / 256);
  EXPECT_LE(big_shared * 10, flat_spine_shared)
      << "small=" << small_shared << " big=" << big_shared;
  // The insert copies O(1) chunks, independent of size.
  EXPECT_LE(small_copies, kMaxChunksPerInsert);
  EXPECT_LE(big_copies, kMaxChunksPerInsert);
  EXPECT_LE(big_copies, small_copies + 8);
}

TEST(CowAccountingTest, SteadyStateInsertsShareAllButTouchedChunks) {
  // Interleave publishes (forks) and single inserts, Hamlet-scale: every
  // round must stay within the constant per-insert budget.
  auto scheme = labeling::SchemeByName("V-CDBS-Containment");
  xml::Document doc = xml::GenerateHamlet();
  LabeledDocument live(doc, *scheme);

  CowStats& stats = CowStats::Local();
  std::vector<std::unique_ptr<LabeledDocument>> pinned;
  for (int round = 0; round < 16; ++round) {
    pinned.push_back(live.Fork());
    const uint64_t copies0 = stats.chunk_copies;
    const labeling::InsertResult r =
        live.labeling_mutable()->InsertSiblingAfter(
            live.WithTag("line")[static_cast<size_t>(round) * 97 % 500]);
    ASSERT_NE(r.new_node, labeling::kNoNode);
    live.NoteInsertedNode(r.new_node, "line");
    EXPECT_LE(stats.chunk_copies - copies0, kMaxChunksPerInsert)
        << "round " << round;
  }
  // All pinned snapshots still answer identically-sized queries.
  auto query = query::ParseQuery("//line");
  const size_t base = query::EvaluateQuery(*query, *pinned[0]).size();
  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(query::EvaluateQuery(*query, *pinned[i]).size(), base + i);
  }
  EXPECT_EQ(query::EvaluateQuery(*query, live).size(), base + 16);
}

// ---------------------------------------------------------------------------
// End to end: the concurrent engine's publish exports O(touched) byte
// counts — per-publish bytes for single-insert commits must not scale with
// document size.

uint64_t BytesPerPublish(uint64_t total_nodes, int inserts) {
  obs::Counter* bytes = obs::MetricRegistry::Default().GetCounter(
      "engine.concurrent.snapshot.bytes_copied");
  obs::Counter* published = obs::MetricRegistry::Default().GetCounter(
      "engine.concurrent.snapshots");

  engine::ConcurrentXmlDbOptions options;
  auto db = engine::ConcurrentXmlDb::Open(
      xml::GeneratePlay(11, total_nodes), options);
  CDBS_CHECK(db.ok());
  auto target = (*db)->Query("//line");
  CDBS_CHECK(target.ok() && !target->empty());

  const uint64_t bytes0 = bytes->value();
  const uint64_t published0 = published->value();
  for (int i = 0; i < inserts; ++i) {
    // Synchronous submit: each insert lands in its own group commit, so
    // every publish carries exactly one touched insert.
    auto inserted =
        (*db)->InsertElementAfter((*target)[i % target->size()], "line");
    CDBS_CHECK(inserted.ok());
  }
  const uint64_t publishes = published->value() - published0;
  CDBS_CHECK(publishes > 0);
  return (bytes->value() - bytes0) / publishes;
}

TEST(CowPublishTest, PublishBytesIndependentOfDocumentSize) {
  const uint64_t small = BytesPerPublish(2000, 24);
  const uint64_t big = BytesPerPublish(16000, 24);
  // O(N) publication would scale ~8x here; O(touched) stays flat. Allow 3x
  // slack for run-length variation between the two documents.
  EXPECT_LE(big, small * 3 + 4096)
      << "per-publish copied bytes grew with document size (small=" << small
      << " big=" << big << ")";
}

}  // namespace
}  // namespace cdbs
