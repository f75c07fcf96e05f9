// Work gate on the navigational evaluator: the labeling predicate calls one
// Table 3 round (Q1-Q6) costs over D5, per play and through a 2-shard
// ShardedDb, must stay within a committed budget. The count
// (`query.eval.label_comparisons`) is the same on every machine, so a
// strategy regression in the evaluator fails here even where wall time
// would not show it.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "labeling/registry.h"
#include "obs/metrics.h"
#include "query/evaluator.h"
#include "query/xpath.h"
#include "shard/sharded_db.h"
#include "xml/shakespeare.h"

namespace cdbs::query {
namespace {

constexpr char kScheme[] = "V-CDBS-Containment";

// Table 3's match counts over D5, Q1-Q6.
constexpr uint64_t kTable3[6] = {37, 180, 444, 17133, 29296, 113469};

// Measured: 100,208 calls per play-by-play round and 109,666 through two
// shards; each budget is the measurement plus 10%. Under the same counting
// rule the evaluator that re-sorted every step's output, expanded
// following:: once per context and ranked `//name[n]` with a parent scan
// per candidate made 3,302,733 and 10,258,553 calls.
constexpr uint64_t kPerPlayBudget = 110229;
constexpr uint64_t kShardedBudget = 120633;

uint64_t LabelCalls() {
  return obs::MetricRegistry::Default()
      .GetCounter("query.eval.label_comparisons", "")
      ->value();
}

std::vector<Query> Table3() {
  std::vector<Query> queries;
  for (const std::string& text : Table3Queries()) {
    auto q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status();
    queries.push_back(std::move(q).value());
  }
  return queries;
}

TEST(EvaluatorWorkBudgetTest, Table3RoundPerPlayStaysWithinBudget) {
  const std::vector<xml::Document> plays = xml::GenerateShakespeareDataset();
  auto scheme = labeling::SchemeByName(kScheme);
  std::vector<std::unique_ptr<LabeledDocument>> labeled;
  for (const xml::Document& play : plays) {
    labeled.push_back(std::make_unique<LabeledDocument>(play, *scheme));
  }
  const std::vector<Query> queries = Table3();
  const uint64_t before = LabelCalls();
  for (size_t q = 0; q < queries.size(); ++q) {
    uint64_t matches = 0;
    for (const auto& doc : labeled) {
      matches += EvaluateQuery(queries[q], *doc).size();
    }
    EXPECT_EQ(matches, kTable3[q]) << "Q" << q + 1;
  }
  const uint64_t calls = LabelCalls() - before;
  std::printf("label predicate calls, Q1-Q6 per play: %llu\n",
              static_cast<unsigned long long>(calls));
  EXPECT_LE(calls, kPerPlayBudget);
}

TEST(EvaluatorWorkBudgetTest, Table3RoundThroughTwoShardsStaysWithinBudget) {
  shard::ShardedDbOptions options;
  options.shard_count = 2;
  options.read_workers = 2;
  options.shard.db.scheme_name = kScheme;
  auto db = shard::ShardedDb::Open(xml::GenerateShakespeareDataset(), options);
  ASSERT_TRUE(db.ok()) << db.status();
  const uint64_t before = LabelCalls();
  for (size_t q = 0; q < Table3Queries().size(); ++q) {
    auto gathered = (*db)->CountAll(Table3Queries()[q]);
    ASSERT_TRUE(gathered.ok()) << gathered.status();
    EXPECT_EQ(gathered->failed_shards, 0u);
    // Q4 crosses play boundaries under the shard's merged root (the known
    // `cdbs-shard` root fault, perfbench/README.md); the rest match Table 3.
    if (q != 3) {
      EXPECT_EQ(gathered->total, kTable3[q]) << "Q" << q + 1;
    }
  }
  const uint64_t calls = LabelCalls() - before;
  std::printf("label predicate calls, Q1-Q6 through 2 shards: %llu\n",
              static_cast<unsigned long long>(calls));
  EXPECT_LE(calls, kShardedBudget);
  (*db)->Shutdown();
}

}  // namespace
}  // namespace cdbs::query
