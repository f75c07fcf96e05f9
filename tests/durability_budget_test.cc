// Work gate on the durable write path: a single-insert commit costs one
// fsync (the WAL's) and no page write, and pages reach the page file only
// at checkpoints, one per LabelStore::kCheckpointWalBytes of WAL. The
// counters (`storage.syncs`, `storage.checkpoints`, `wal.bytes_written`,
// `storage.bytes_written`) are the same on every machine, so a commit that
// starts writing pages again fails here even where wall time would not
// show it.

#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/xml_db.h"
#include "storage/label_store.h"
#include "storage/wal.h"
#include "test_paths.h"
#include "util/random.h"
#include "xml/shakespeare.h"

namespace cdbs::engine {
namespace {

using storage::LabelStore;

constexpr int kCommits = 2000;

// Measured: 18.4 page-file bytes per insert over the run (one checkpoint
// writing 9 pages; the bulk load excluded), with 955 WAL bytes per insert;
// the budget is the measurement plus 10%. Writing the tail page and the
// header at every commit, as the store did before it was no-force, cost
// 8,192 B per insert.
constexpr double kPageBytesPerInsertBudget = 20.3;

uint64_t Counter(const LabelStore& store, const std::string& name) {
  for (const auto& m : store.metrics().Snapshot()) {
    if (m.name == name) return m.counter_value;
  }
  return 0;
}

TEST(DurabilityBudgetTest, OneFsyncPerCommitAndPagesOnlyAtCheckpoints) {
  // WAL bytes set the checkpoint count: pin the default compression
  // against a CDBS_WAL_COMPRESS in the environment.
  storage::Wal::set_compression_enabled(true);
  XmlDbOptions options;
  options.storage_path = testing_util::UniqueTempPath("durability") + ".db";
  auto db = XmlDb::Open(xml::GeneratePlay(/*seed=*/5, 20000), options);
  ASSERT_TRUE(db.ok()) << db.status();
  const LabelStore& store = *(*db)->store();
  const std::vector<NodeId> lines = (*db)->Query("//line").value();
  ASSERT_FALSE(lines.empty());

  const uint64_t syncs0 = Counter(store, "storage.syncs");
  const uint64_t page_bytes0 = Counter(store, "storage.bytes_written");
  const uint64_t wal_bytes0 = Counter(store, "wal.bytes_written");
  ASSERT_EQ(Counter(store, "storage.checkpoints"), 0u);
  util::Random rng(2006);
  for (int i = 0; i < kCommits; ++i) {
    const uint64_t syncs = Counter(store, "storage.syncs");
    const uint64_t checkpoints = Counter(store, "storage.checkpoints");
    ASSERT_TRUE(
        (*db)->InsertElementAfter(lines[rng.Uniform(lines.size())], "note")
            .ok());
    if (Counter(store, "storage.checkpoints") == checkpoints) {
      // Between checkpoints: the WAL fsync and nothing else.
      ASSERT_EQ(Counter(store, "storage.syncs") - syncs, 1u)
          << "commit " << i;
    } else {
      // The commit's WAL fsync, the page file's, the WAL truncation's.
      ASSERT_EQ(Counter(store, "storage.checkpoints"), checkpoints + 1);
      ASSERT_EQ(Counter(store, "storage.syncs") - syncs, 3u)
          << "commit " << i;
    }
  }
  EXPECT_EQ((*db)->Stats().relabeled_total, 0u);  // Theorem 3.1

  // One checkpoint per kCheckpointWalBytes: each ran once its interval's
  // WAL passed the bound, by less than one commit's record.
  const uint64_t checkpoints = Counter(store, "storage.checkpoints");
  EXPECT_GE(checkpoints, 1u);
  struct stat st;
  ASSERT_EQ(::stat(LabelStore::WalPath(options.storage_path).c_str(), &st),
            0);
  const uint64_t wal_now = static_cast<uint64_t>(st.st_size);
  EXPECT_LE(wal_now, LabelStore::kCheckpointWalBytes);
  const uint64_t wal_checkpointed =
      Counter(store, "wal.bytes_written") - wal_bytes0 - wal_now;
  EXPECT_EQ(checkpoints, wal_checkpointed / LabelStore::kCheckpointWalBytes);
  EXPECT_EQ(Counter(store, "storage.syncs") - syncs0,
            kCommits + 2 * checkpoints);

  const double page_bytes_per_insert =
      static_cast<double>(Counter(store, "storage.bytes_written") -
                          page_bytes0) /
      kCommits;
  std::printf("page bytes per insert %.1f, WAL bytes per insert %.1f, "
              "%llu checkpoint(s)\n",
              page_bytes_per_insert,
              static_cast<double>(Counter(store, "wal.bytes_written") -
                                  wal_bytes0) /
                  kCommits,
              static_cast<unsigned long long>(checkpoints));
  EXPECT_LE(page_bytes_per_insert, kPageBytesPerInsertBudget);
  std::remove(options.storage_path.c_str());
  std::remove(LabelStore::WalPath(options.storage_path).c_str());
}

}  // namespace
}  // namespace cdbs::engine
