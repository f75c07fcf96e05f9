#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/xml_db.h"
#include "storage/label_store.h"
#include "test_paths.h"
#include "util/failpoint.h"
#include "util/ordered_varint.h"
#include "util/random.h"

/// \file
/// The crash matrix (docs/DURABILITY.md): for every registered crash
/// failpoint site in the update path, and for every occurrence of that site
/// within one update or one checkpoint, kill the store at that point,
/// reopen, and verify the survivor (a) passes full checksum verification
/// and (b) contains either the whole update or none of it — never a torn
/// mix — and every update acknowledged before it.

namespace cdbs::storage {
namespace {

using cdbs::util::Failpoints;

// Every site whose firing simulates the process dying mid-update.
const char* const kCrashSites[] = {
    "storage.write_page.crash",  "storage.write_page.short_write",
    "wal.append.short_write",    "wal.sync.crash",
    "storage.sync.crash",
};

// Engine-written records carry a varint TagId prefix when the store's
// header holds a tag table (docs/ENCODING.md); strip (and sanity-check)
// it so comparisons see the bare serialized label.
std::string BareLabel(const LabelStore& store, const std::string& record) {
  if (store.tag_table().empty()) return record;
  size_t pos = 0;
  uint64_t tag_id = 0;
  EXPECT_TRUE(util::DecodeOrderedVarint(record, &pos, &tag_id).ok());
  EXPECT_LT(tag_id, store.tag_table().size());
  return record.substr(pos);
}

std::vector<std::string> ReadAll(LabelStore* store) {
  std::vector<std::string> records;
  records.reserve(store->size());
  for (size_t i = 0; i < store->size(); ++i) {
    std::string record;
    EXPECT_TRUE(store->Read(i, &record).ok()) << "record " << i;
    records.push_back(BareLabel(*store, record));
  }
  return records;
}

class CrashMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing_util::UniqueTempPath("crash_matrix") + ".db";
  }

  void TearDown() override {
    for (const char* site : kCrashSites) Failpoints::Deactivate(site);
    Failpoints::Deactivate("storage.write_page.io_error");
    Failpoints::Deactivate("wal.append.io_error");
    std::remove(path_.c_str());
    std::remove(LabelStore::WalPath(path_).c_str());
  }

  std::string path_;
};

// For each crash site, and each N, crash on the N-th evaluation of that
// site during one multi-record batch. Reopening must always yield a fully
// checksummed store equal to exactly the pre- or the post-batch state.
TEST_F(CrashMatrixTest, EveryCrashSiteYieldsPreOrPostState) {
  // 400 small records span two data pages; the batch touches both, appends
  // into a third, and rewrites the header — a multi-page update.
  std::vector<std::string> pre;
  for (int i = 0; i < 400; ++i) pre.push_back("rec-" + std::to_string(i));

  // Replacements must fit the slots BulkLoad sized ("rec-399" + 4 bytes of
  // headroom) — an oversized record would be rejected with OutOfRange
  // before the batch ever reaches the WAL.
  std::vector<std::string> post = pre;
  post[0] = "RW-zero";
  post[350] = "RW-350";
  post.push_back("AP-a");
  post.push_back("AP-b");

  for (const char* site : kCrashSites) {
    bool injected = true;
    for (int n = 0; injected; ++n) {
      ASSERT_LT(n, 64) << site << ": matrix failed to terminate";
      LabelStore store;
      ASSERT_TRUE(store.Open(path_).ok());
      ASSERT_TRUE(store.BulkLoad(pre, 4).ok());

      StoreBatch batch;
      batch.Rewrite(0, post[0]);
      batch.Rewrite(350, post[350]);
      batch.Append("AP-a");
      batch.Append("AP-b");

      ASSERT_TRUE(
          Failpoints::Activate(site, "after=" + std::to_string(n)).ok());
      const uint64_t before = Failpoints::InjectionCount(site);
      const Status status = store.ApplyBatch(batch);
      Failpoints::Deactivate(site);
      injected = Failpoints::InjectionCount(site) > before;

      LabelStore survivor;
      ASSERT_TRUE(survivor.OpenExisting(path_).ok())
          << site << " n=" << n;
      ASSERT_TRUE(survivor.VerifyChecksums().ok()) << site << " n=" << n;
      const std::vector<std::string> got = ReadAll(&survivor);
      if (injected) {
        EXPECT_FALSE(status.ok()) << site << " n=" << n;
        EXPECT_TRUE(got == pre || got == post)
            << site << " n=" << n << ": torn state, " << got.size()
            << " records";
      } else {
        // The failpoint never fired: the batch ran crash-free, so this
        // site's matrix is exhausted and the update must be complete.
        EXPECT_TRUE(status.ok()) << site << " n=" << n;
        EXPECT_EQ(got, post) << site;
      }
    }
  }
}

// Incompressible fixed-length records: every WAL record is about as large
// as the page images it carries, and rewrites always fit their slots.
std::vector<std::string> NoiseRecords(size_t n, uint64_t seed) {
  util::Random rng(seed);
  std::vector<std::string> records(n);
  for (std::string& r : records) {
    for (int i = 0; i < 24; ++i) {
      r.push_back(static_cast<char>('!' + rng.Uniform(90)));
    }
  }
  return records;
}

// Commits to replay in a crash matrix: `batches[k]` takes the store from
// `states[k]` to `states[k + 1]`. Each rewrites one record per 100, which
// touches every data page of a NoiseRecords store.
struct CommitScript {
  std::vector<std::vector<std::string>> states;
  std::vector<StoreBatch> batches;

  void AddSpreadRewrite() {
    std::vector<std::string> next = states.back();
    StoreBatch batch;
    for (size_t i = batches.size() % 100; i < next.size(); i += 100) {
      std::swap(next[i][0], next[i][1]);
      batch.Rewrite(i, next[i]);
    }
    states.push_back(std::move(next));
    batches.push_back(std::move(batch));
  }
};

uint64_t Checkpoints(const LabelStore& store) {
  for (const auto& m : store.metrics().Snapshot()) {
    if (m.name == "storage.checkpoints") return m.counter_value;
  }
  return 0;
}

// The commit that carries the WAL past kCheckpointWalBytes sits on pages
// that earlier acked commits left pending, and runs a checkpoint, so every
// site fires in it: the WAL sites in its commit, the page-file sites and
// the WAL truncation in its checkpoint. Reopening must yield the state
// before or after it, with every earlier commit intact.
TEST_F(CrashMatrixTest, EveryCrashSiteInACheckpointingCommitOnPendingPages) {
  CommitScript script;
  script.states.push_back(NoiseRecords(1500, 11));
  {
    // Dry run: find the first commit that checkpoints.
    LabelStore store;
    ASSERT_TRUE(store.Open(path_).ok());
    ASSERT_TRUE(store.BulkLoad(script.states[0], 0).ok());
    while (Checkpoints(store) == 0) {
      ASSERT_LT(script.batches.size(), 500u);
      script.AddSpreadRewrite();
      ASSERT_TRUE(store.ApplyBatch(script.batches.back()).ok());
    }
    ASSERT_GT(script.batches.size(), 1u);
  }
  const size_t last = script.batches.size() - 1;
  const std::vector<std::string>& pre = script.states[last];
  const std::vector<std::string>& post = script.states[last + 1];

  for (const char* site : kCrashSites) {
    bool injected = true;
    bool fired = false;
    for (int n = 0; injected; ++n) {
      ASSERT_LT(n, 64) << site << ": matrix failed to terminate";
      LabelStore store;
      ASSERT_TRUE(store.Open(path_).ok());
      ASSERT_TRUE(store.BulkLoad(script.states[0], 0).ok());
      for (size_t c = 0; c < last; ++c) {
        ASSERT_TRUE(store.ApplyBatch(script.batches[c]).ok());
      }
      ASSERT_GT(store.pending_pages(), 0u);
      ASSERT_EQ(Checkpoints(store), 0u);

      ASSERT_TRUE(
          Failpoints::Activate(site, "after=" + std::to_string(n)).ok());
      const uint64_t before = Failpoints::InjectionCount(site);
      const Status status = store.ApplyBatch(script.batches[last]);
      Failpoints::Deactivate(site);
      injected = Failpoints::InjectionCount(site) > before;
      fired = fired || injected;

      LabelStore survivor;
      ASSERT_TRUE(survivor.OpenExisting(path_).ok()) << site << " n=" << n;
      ASSERT_TRUE(survivor.VerifyChecksums().ok()) << site << " n=" << n;
      const std::vector<std::string> got = ReadAll(&survivor);
      if (injected) {
        EXPECT_FALSE(status.ok()) << site << " n=" << n;
        EXPECT_TRUE(got == pre || got == post)
            << site << " n=" << n << ": torn state or a lost acked commit";
      } else {
        EXPECT_TRUE(status.ok()) << site << " n=" << n;
        EXPECT_EQ(Checkpoints(store), 1u) << site;
        EXPECT_EQ(got, post) << site;
      }
    }
    EXPECT_TRUE(fired) << site << " never fired in the commit";
  }
}

// A crash anywhere inside Checkpoint loses no acked commit: the WAL still
// holds them all, and replay rewrites any page the crash tore. A
// checkpoint appends nothing, so `wal.append.short_write` has no
// evaluation there; every other site fires.
TEST_F(CrashMatrixTest, EveryCrashSiteInsideCheckpoint) {
  CommitScript script;
  script.states.push_back(NoiseRecords(1500, 12));
  for (int c = 0; c < 3; ++c) script.AddSpreadRewrite();
  const std::vector<std::string>& acked = script.states.back();

  for (const char* site : kCrashSites) {
    bool injected = true;
    bool fired = false;
    for (int n = 0; injected; ++n) {
      ASSERT_LT(n, 64) << site << ": matrix failed to terminate";
      LabelStore store;
      ASSERT_TRUE(store.Open(path_).ok());
      ASSERT_TRUE(store.BulkLoad(script.states[0], 0).ok());
      for (const StoreBatch& batch : script.batches) {
        ASSERT_TRUE(store.ApplyBatch(batch).ok());
      }
      ASSERT_GT(store.pending_pages(), 0u);

      ASSERT_TRUE(
          Failpoints::Activate(site, "after=" + std::to_string(n)).ok());
      const uint64_t before = Failpoints::InjectionCount(site);
      const Status status = store.Checkpoint();
      Failpoints::Deactivate(site);
      injected = Failpoints::InjectionCount(site) > before;
      fired = fired || injected;
      EXPECT_EQ(status.ok(), !injected) << site << " n=" << n;

      LabelStore survivor;
      ASSERT_TRUE(survivor.OpenExisting(path_).ok()) << site << " n=" << n;
      ASSERT_TRUE(survivor.VerifyChecksums().ok()) << site << " n=" << n;
      EXPECT_EQ(ReadAll(&survivor), acked) << site << " n=" << n;
    }
    if (std::string_view(site) != "wal.append.short_write") {
      EXPECT_TRUE(fired) << site << " never fired in the checkpoint";
    }
  }
}

// The same invariant under randomized batches and crash points.
TEST_F(CrashMatrixTest, RandomizedCrashesNeverTearTheStore) {
  util::Random rng(20260806);
  for (int round = 0; round < 25; ++round) {
    std::vector<std::string> pre;
    const size_t count = 50 + rng.Uniform(500);
    for (size_t i = 0; i < count; ++i) {
      pre.push_back(std::string(1 + rng.Uniform(10), 'a' + i % 26));
    }
    LabelStore store;
    ASSERT_TRUE(store.Open(path_).ok());
    ASSERT_TRUE(store.BulkLoad(pre, 4).ok());
    // Acked commits whose pages are still pending when the crash comes.
    const size_t prior = rng.Uniform(3);
    for (size_t c = 0; c < prior; ++c) {
      const size_t idx = rng.Uniform(pre.size());
      pre[idx] = "pc-" + std::to_string(c);
      StoreBatch acked;
      acked.Rewrite(idx, pre[idx]);
      ASSERT_TRUE(store.ApplyBatch(acked).ok());
    }

    std::vector<std::string> post = pre;
    StoreBatch batch;
    const size_t rewrites = 1 + rng.Uniform(8);
    for (size_t i = 0; i < rewrites; ++i) {
      const size_t idx = rng.Uniform(post.size());
      post[idx] = "rw-" + std::to_string(round) + "-" + std::to_string(i);
      batch.Rewrite(idx, post[idx]);
    }
    const size_t appends = rng.Uniform(4);
    for (size_t i = 0; i < appends; ++i) {
      post.push_back("ap-" + std::to_string(i));
      batch.Append(post.back());
    }

    // Half the rounds checkpoint right after the commit, with the site
    // still armed, so the page-file sites can fire too.
    const bool checkpoint = rng.Uniform(2) == 0;
    const char* site = kCrashSites[rng.Uniform(std::size(kCrashSites))];
    ASSERT_TRUE(
        Failpoints::Activate(site, "after=" + std::to_string(rng.Uniform(6)))
            .ok());
    const Status status = store.ApplyBatch(batch);
    if (status.ok() && checkpoint) {
      static_cast<void>(store.Checkpoint());
    }
    Failpoints::Deactivate(site);

    LabelStore survivor;
    ASSERT_TRUE(survivor.OpenExisting(path_).ok()) << "round " << round;
    ASSERT_TRUE(survivor.VerifyChecksums().ok()) << "round " << round;
    const std::vector<std::string> got = ReadAll(&survivor);
    if (status.ok()) {
      // Acked: no later crash, in a checkpoint or anywhere, may lose it.
      EXPECT_EQ(got, post) << "round " << round << " site " << site;
    } else {
      EXPECT_TRUE(got == pre || got == post)
          << "round " << round << " site " << site;
    }
  }
}

// Transient write errors (retries exhausted) are not crashes: the handle
// stays alive, and re-applying the same batch succeeds once the fault
// clears. A commit's write is its WAL append; the page writes come at the
// checkpoint, which likewise succeeds on a retry.
TEST_F(CrashMatrixTest, TransientFailureThenRetrySucceeds) {
  std::vector<std::string> pre = {"one", "two", "three"};
  LabelStore store;
  ASSERT_TRUE(store.Open(path_).ok());
  ASSERT_TRUE(store.BulkLoad(pre, 8).ok());

  StoreBatch batch;
  batch.Rewrite(1, "TWO");
  batch.Append("four");

  ASSERT_TRUE(Failpoints::Activate("wal.append.io_error", "always").ok());
  EXPECT_EQ(store.ApplyBatch(batch).code(), StatusCode::kIoError);
  Failpoints::Deactivate("wal.append.io_error");

  // Same handle, same batch, fault cleared: the update lands.
  ASSERT_TRUE(store.ApplyBatch(batch).ok());
  EXPECT_EQ(ReadAll(&store), (std::vector<std::string>{"one", "TWO", "three",
                                                       "four"}));

  ASSERT_TRUE(
      Failpoints::Activate("storage.write_page.io_error", "always").ok());
  EXPECT_EQ(store.Checkpoint().code(), StatusCode::kIoError);
  Failpoints::Deactivate("storage.write_page.io_error");
  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_EQ(store.pending_pages(), 0u);

  // And the on-disk state agrees.
  LabelStore survivor;
  ASSERT_TRUE(survivor.OpenExisting(path_).ok());
  ASSERT_TRUE(survivor.VerifyChecksums().ok());
  EXPECT_EQ(ReadAll(&survivor), ReadAll(&store));
}

// A crash during recovery itself (the post-replay fsync dies) leaves the
// WAL intact, so the next open replays the very same records on top of
// already-patched pages. Full page images make that redo idempotent: the
// double-replayed store is exactly the intended post state, and the
// completed recovery finally checkpoints the WAL away.
TEST_F(CrashMatrixTest, InterruptedRecoveryReplaysIdempotently) {
  const std::vector<std::string> pre = {"one", "two", "three"};
  const std::vector<std::string> post = {"one", "TWO", "three", "four"};
  {
    LabelStore store;
    ASSERT_TRUE(store.Open(path_).ok());
    ASSERT_TRUE(store.BulkLoad(pre, 8).ok());
    StoreBatch batch;
    batch.Rewrite(1, "TWO");
    batch.Append("four");
    ASSERT_TRUE(store.ApplyBatch(batch).ok());
    // Crash in the checkpoint: the WAL group is durable, no page lands.
    ASSERT_TRUE(
        Failpoints::Activate("storage.write_page.crash", "oneshot").ok());
    EXPECT_FALSE(store.Checkpoint().ok());
    Failpoints::Deactivate("storage.write_page.crash");
  }

  // First reopen: redo replays the batch, then dies in the post-replay
  // fsync — pages patched, WAL checkpoint never reached.
  {
    const uint64_t before = Failpoints::InjectionCount("storage.sync.crash");
    ASSERT_TRUE(Failpoints::Activate("storage.sync.crash", "oneshot").ok());
    LabelStore half;
    EXPECT_FALSE(half.OpenExisting(path_).ok());
    Failpoints::Deactivate("storage.sync.crash");
    ASSERT_GT(Failpoints::InjectionCount("storage.sync.crash"), before)
        << "recovery never reached its fsync";
  }

  // Second reopen: the same WAL records replay again over already-applied
  // pages. Clean checksums, exactly the post state, one replay pass.
  LabelStore survivor;
  ASSERT_TRUE(survivor.OpenExisting(path_).ok());
  ASSERT_TRUE(survivor.VerifyChecksums().ok());
  EXPECT_EQ(ReadAll(&survivor), post);
  uint64_t replays = 0;
  for (const auto& m : survivor.metrics().Snapshot()) {
    if (m.name == "storage.recovery.replays") replays = m.counter_value;
  }
  EXPECT_EQ(replays, 1u);

  // That recovery completed, so it checkpointed: a third open finds an
  // empty WAL and nothing to redo.
  LabelStore third;
  ASSERT_TRUE(third.OpenExisting(path_).ok());
  ASSERT_TRUE(third.VerifyChecksums().ok());
  EXPECT_EQ(ReadAll(&third), post);
  replays = 0;
  for (const auto& m : third.metrics().Snapshot()) {
    if (m.name == "storage.recovery.replays") replays = m.counter_value;
  }
  EXPECT_EQ(replays, 0u) << "WAL must be empty after a completed recovery";
}

// A single injected I/O error is absorbed by retry-with-backoff, both at
// the commit's WAL append and at the checkpoint's page writes: the batch
// lands and both retry counters move.
TEST_F(CrashMatrixTest, OneTransientErrorIsRetriedAway) {
  LabelStore store;
  ASSERT_TRUE(store.Open(path_).ok());
  ASSERT_TRUE(store.BulkLoad({"a", "b"}, 8).ok());

  ASSERT_TRUE(Failpoints::Activate("wal.append.io_error", "oneshot").ok());
  ASSERT_TRUE(
      Failpoints::Activate("storage.write_page.io_error", "oneshot").ok());
  StoreBatch batch;
  batch.Rewrite(0, "A");
  ASSERT_TRUE(store.ApplyBatch(batch).ok());
  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_GE(store.metrics().Snapshot().size(), 1u);
  uint64_t retries = 0;
  uint64_t wal_retries = 0;
  for (const auto& m : store.metrics().Snapshot()) {
    if (m.name == "storage.io_retries") retries = m.counter_value;
    if (m.name == "wal.io_retries") wal_retries = m.counter_value;
  }
  EXPECT_GE(retries, 1u);
  EXPECT_GE(wal_retries, 1u);
  std::string got;
  ASSERT_TRUE(store.Read(0, &got).ok());
  EXPECT_EQ(got, "A");
}

class XmlDbCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing_util::UniqueTempPath("xml_db_crash") + ".db";
  }

  void TearDown() override {
    for (const char* site : kCrashSites) Failpoints::Deactivate(site);
    Failpoints::Deactivate("wal.append.io_error");
    std::remove(path_.c_str());
    std::remove(LabelStore::WalPath(path_).c_str());
  }

  std::string path_;
};

constexpr const char* kDoc = "<r><a/><b/><c/><d/></r>";

constexpr size_t kScriptOps = 5;

// Applies the i-th scripted insert; returns whether it succeeded.
template <typename Db>
bool ApplyScriptOp(Db& db, size_t i) {
  using cdbs::labeling::NodeId;
  static const struct {
    NodeId target;
    bool before;
  } kOps[kScriptOps] = {{1, false}, {3, true}, {5, false}, {2, true},
                        {4, false}};
  const auto result = kOps[i].before
                          ? db->InsertElementBefore(kOps[i].target, "ins")
                          : db->InsertElementAfter(kOps[i].target, "ins");
  return result.ok();
}

// Applies the whole script, stopping at the first failure; returns how
// many inserts succeeded.
template <typename Db>
size_t ApplyScript(Db& db) {
  for (size_t i = 0; i < kScriptOps; ++i) {
    if (!ApplyScriptOp(db, i)) return i;
  }
  return kScriptOps;
}

std::vector<std::string> LabelSnapshot(const cdbs::engine::XmlDb& db) {
  std::vector<std::string> labels;
  const auto& lab = db.labeling();
  labels.reserve(lab.num_nodes());
  for (cdbs::labeling::NodeId n = 0; n < lab.num_nodes(); ++n) {
    labels.push_back(lab.SerializeLabel(n));
  }
  return labels;
}

// End-to-end matrix: crash every site during a sequence of XmlDb inserts;
// the reopened store must checksum clean and hold exactly the label set of
// some prefix of the update sequence (each update atomic, no torn mix).
TEST_F(XmlDbCrashTest, UpdateSequenceSurvivesCrashAtEverySite) {
  // A shadow database replays the same script without storage, capturing
  // the expected full label set after each update.
  std::vector<std::vector<std::string>> snapshots;
  {
    auto shadow = cdbs::engine::XmlDb::OpenFromXml(kDoc, {});
    ASSERT_TRUE(shadow.ok());
    snapshots.push_back(LabelSnapshot(**shadow));
    for (size_t i = 0; i < kScriptOps; ++i) {
      ASSERT_TRUE(ApplyScriptOp(*shadow, i));
      snapshots.push_back(LabelSnapshot(**shadow));
    }
  }

  cdbs::engine::XmlDbOptions options;
  options.storage_path = path_;
  for (const char* site : kCrashSites) {
    bool injected = true;
    for (int n = 0; injected; ++n) {
      ASSERT_LT(n, 128) << site << ": matrix failed to terminate";
      auto db = cdbs::engine::XmlDb::OpenFromXml(kDoc, options);
      ASSERT_TRUE(db.ok());

      ASSERT_TRUE(
          Failpoints::Activate(site, "after=" + std::to_string(n)).ok());
      const uint64_t before = Failpoints::InjectionCount(site);
      const size_t done = ApplyScript(*db);
      Failpoints::Deactivate(site);
      injected = Failpoints::InjectionCount(site) > before;
      if (!injected) {
        EXPECT_EQ(done, kScriptOps);
      }

      LabelStore survivor;
      ASSERT_TRUE(survivor.OpenExisting(path_).ok()) << site << " n=" << n;
      ASSERT_TRUE(survivor.VerifyChecksums().ok()) << site << " n=" << n;
      const std::vector<std::string> got = ReadAll(&survivor);
      // The store equals the state after `done` or `done + 1` updates: the
      // in-flight update either fully landed (crash after its pages were
      // durable, in-memory rolled back anyway) or not at all.
      const bool matches_done = got == snapshots[done];
      const bool matches_next =
          done + 1 < snapshots.size() && got == snapshots[done + 1];
      EXPECT_TRUE(matches_done || matches_next)
          << site << " n=" << n << ": store holds " << got.size()
          << " labels after " << done << " applied updates";
    }
  }
}

// A persist failure must roll the in-memory mutation back: the tree, the
// query surface and the stats all stay at the pre-update state, and the
// next successful update re-syncs the store in full.
TEST_F(XmlDbCrashTest, FailedPersistRollsBackAndNextUpdateHeals) {
  cdbs::engine::XmlDbOptions options;
  options.storage_path = path_;
  auto db = cdbs::engine::XmlDb::OpenFromXml(kDoc, options);
  ASSERT_TRUE(db.ok());

  // The commit's one write is its WAL append.
  ASSERT_TRUE(Failpoints::Activate("wal.append.io_error", "always").ok());
  const auto failed = (*db)->InsertElementAfter(1, "ghost");
  Failpoints::Deactivate("wal.append.io_error");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);

  // Rolled back: no trace of the insert in tree, query results or stats.
  EXPECT_EQ((*db)->ToXml().find("ghost"), std::string::npos);
  auto count = (*db)->Count("//ghost");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
  EXPECT_EQ((*db)->Stats().insertions, 0u);
  // Node ids are never reused, so the failed insert burns one id —
  // num_nodes() counts the id space, exactly as after a DeleteElement.
  EXPECT_EQ((*db)->Stats().node_count, 6u);

  // The next insert succeeds and leaves the store holding exactly the
  // database's full label set (the reload-heal path).
  const auto healed = (*db)->InsertElementAfter(1, "real");
  ASSERT_TRUE(healed.ok());
  LabelStore survivor;
  ASSERT_TRUE(survivor.OpenExisting(path_).ok());
  ASSERT_TRUE(survivor.VerifyChecksums().ok());
  EXPECT_EQ(ReadAll(&survivor), LabelSnapshot(**db));
}

}  // namespace
}  // namespace cdbs::storage
