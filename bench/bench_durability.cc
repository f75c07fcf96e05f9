// Durability overhead: what crash consistency costs on the update path.
//
// Three measurements (docs/DURABILITY.md):
//   1. CRC32C throughput — the per-page checksum installed on every write
//      and verified on every read (hardware SSE4.2 vs slice-by-8 software).
//   2. Unlogged update (Rewrite + Append + Sync), the fig7 path — its only
//      new cost over PR 1 is the page CRC, budgeted at < 10%.
//   3. WAL-logged ApplyBatch of the same update — the full atomic path the
//      engine uses: one WAL record + fsync, its pages left to a checkpoint.
//   4. Recovery: OpenExisting with a pending WAL batch to replay.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "storage/label_store.h"
#include "storage/wal.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace {

using cdbs::storage::LabelStore;
using cdbs::storage::StoreBatch;

constexpr size_t kRecords = 4000;
constexpr size_t kUpdatesPerRound = 64;

std::vector<std::string> MakeRecords() {
  cdbs::util::Random rng(42);
  std::vector<std::string> records;
  records.reserve(kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    records.push_back(std::string(6 + rng.Uniform(10), 'a' + i % 26));
  }
  return records;
}

double BenchCrc32c() {
  std::vector<char> page(LabelStore::kPageSize, 0x5A);
  const uint64_t rounds = cdbs::bench::EnvKnob("CDBS_CRC_ROUNDS", 200000);
  cdbs::util::Stopwatch timer;
  uint32_t fold = 0;
  for (uint64_t i = 0; i < rounds; ++i) {
    fold ^= cdbs::util::Crc32c(page.data(), page.size());
  }
  const double seconds = timer.ElapsedSeconds();
  const double gib = static_cast<double>(rounds) * page.size() / (1 << 30);
  std::printf("  crc32c (%s): %.2f GiB/s   (fold %08x)\n",
              cdbs::util::Crc32cIsHardwareAccelerated() ? "hardware"
                                                        : "software",
              gib / seconds, fold);
  return gib / seconds;
}

// One round of kUpdatesPerRound single-record updates via the unlogged
// fig7 path. Returns total milliseconds.
double UnloggedRound(LabelStore* store, const std::vector<std::string>& recs,
                     cdbs::util::Random* rng) {
  cdbs::util::Stopwatch timer;
  for (size_t i = 0; i < kUpdatesPerRound; ++i) {
    const size_t idx = rng->Uniform(recs.size());
    if (!store->Rewrite(idx, recs[idx]).ok()) std::abort();
    if (!store->Append(recs[i % recs.size()]).ok()) std::abort();
    if (!store->Sync().ok()) std::abort();
  }
  return timer.ElapsedMillis();
}

// The same round through the WAL-logged atomic path.
double LoggedRound(LabelStore* store, const std::vector<std::string>& recs,
                   cdbs::util::Random* rng) {
  cdbs::util::Stopwatch timer;
  for (size_t i = 0; i < kUpdatesPerRound; ++i) {
    const size_t idx = rng->Uniform(recs.size());
    StoreBatch batch;
    batch.Rewrite(idx, recs[idx]);
    batch.Append(recs[i % recs.size()]);
    if (!store->ApplyBatch(batch).ok()) std::abort();
  }
  return timer.ElapsedMillis();
}

uint64_t GlobalCounter(const std::string& name) {
  for (const cdbs::obs::MetricSnapshot& m :
       cdbs::obs::MetricRegistry::Default().Snapshot()) {
    if (m.name == name) return m.counter_value;
  }
  return 0;
}

// Measures fsynced WAL bytes per update with payload compression off vs on
// (docs/ENCODING.md). Returns compressed/raw — the perf-smoke CI step runs
// this binary and the ≤ 0.70 assertion at the bottom of main() is the
// regression guard: WAL records carry page images whose slot padding and
// zeroed tails zero-RLE must keep collapsing.
double BenchWalBytes(const std::string& path,
                     const std::vector<std::string>& records) {
  const uint64_t updates = cdbs::bench::EnvKnob("CDBS_WAL_BYTES_UPDATES", 256);
  double ms[2] = {0, 0};
  uint64_t bytes[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    cdbs::storage::Wal::set_compression_enabled(mode == 1);
    LabelStore store;
    if (!store.Open(path).ok() || !store.BulkLoad(records, 16).ok()) {
      std::abort();
    }
    cdbs::util::Random rng(11);
    const uint64_t before = GlobalCounter("wal.bytes_written");
    cdbs::util::Stopwatch timer;
    for (uint64_t i = 0; i < updates; ++i) {
      const size_t idx = rng.Uniform(records.size());
      StoreBatch batch;
      batch.Rewrite(idx, records[idx]);
      batch.Append(records[i % records.size()]);
      if (!store.ApplyBatch(batch).ok()) std::abort();
    }
    ms[mode] = timer.ElapsedMillis();
    bytes[mode] = GlobalCounter("wal.bytes_written") - before;
  }
  cdbs::storage::Wal::set_compression_enabled(true);
  const double raw_per_op = static_cast<double>(bytes[0]) / updates;
  const double comp_per_op = static_cast<double>(bytes[1]) / updates;
  const double ratio = comp_per_op / raw_per_op;
  std::printf(
      "  WAL bytes/update  raw: %.0f B (%.3f ms/op)   compressed: %.0f B "
      "(%.3f ms/op)   ratio %.2fx\n",
      raw_per_op, ms[0] / updates, comp_per_op, ms[1] / updates, ratio);
  return ratio;
}

}  // namespace

int main() {
  const std::string path = "/tmp/cdbs_bench_durability.db";
  const std::vector<std::string> records = MakeRecords();

  cdbs::bench::Heading("Durability: checksum + WAL cost on the update path");
  BenchCrc32c();

  const uint64_t rounds = cdbs::bench::EnvKnob("CDBS_DURABILITY_ROUNDS", 8);
  double unlogged_ms = 0;
  double logged_ms = 0;
  {
    auto phase = cdbs::bench::Phase("durability_update_rounds");
    cdbs::util::Random rng(7);
    for (uint64_t r = 0; r < rounds; ++r) {
      LabelStore store;
      if (!store.Open(path).ok() || !store.BulkLoad(records, 16).ok()) {
        std::fprintf(stderr, "store setup failed\n");
        return 1;
      }
      unlogged_ms += UnloggedRound(&store, records, &rng);
      logged_ms += LoggedRound(&store, records, &rng);
    }
    phase.StopAndRecord();
  }
  const double per_update_unlogged =
      unlogged_ms / static_cast<double>(rounds * kUpdatesPerRound);
  const double per_update_logged =
      logged_ms / static_cast<double>(rounds * kUpdatesPerRound);
  std::printf(
      "  unlogged update (rewrite+append+fsync, fig7 path): %.3f ms\n"
      "  WAL-logged ApplyBatch (atomic engine path):        %.3f ms "
      "(%.2fx)\n",
      per_update_unlogged, per_update_logged,
      per_update_logged / per_update_unlogged);

  double wal_ratio = 1.0;
  {
    auto phase = cdbs::bench::Phase("durability_wal_bytes");
    wal_ratio = BenchWalBytes(path, records);
    phase.StopAndRecord();
  }

  // Recovery: a commit leaves its batch in the WAL until a checkpoint; drop
  // the handle without one, as a crash would, then time OpenExisting's
  // replay.
  {
    LabelStore store;
    if (!store.Open(path).ok() || !store.BulkLoad(records, 16).ok()) return 1;
    StoreBatch batch;
    batch.Rewrite(0, records[0]);
    if (!store.ApplyBatch(batch).ok()) return 1;
    LabelStore survivor;
    cdbs::util::Stopwatch timer;
    if (!survivor.OpenExisting(path).ok()) {
      std::fprintf(stderr, "recovery failed\n");
      return 1;
    }
    std::printf("  recovery (replay one batch on open):               %.3f "
                "ms\n",
                timer.ElapsedMillis());
    cdbs::util::Stopwatch verify_timer;
    if (!survivor.VerifyChecksums().ok()) return 1;
    std::printf("  full checksum verification (%zu records):          %.3f "
                "ms\n",
                survivor.size(), verify_timer.ElapsedMillis());
  }

  std::remove(path.c_str());
  std::remove(LabelStore::WalPath(path).c_str());
  cdbs::bench::DumpMetrics("durability");

  // Self-enforcing perf-smoke: compressed WAL must stay well under raw.
  if (wal_ratio > 0.70) {
    std::fprintf(stderr,
                 "FAIL: compressed WAL bytes/update is %.2fx of raw "
                 "(budget 0.70x)\n",
                 wal_ratio);
    return 1;
  }
  return 0;
}
