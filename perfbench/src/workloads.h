#ifndef CDBS_PERFBENCH_WORKLOADS_H_
#define CDBS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "util/random.h"
#include "xml/tree.h"

/// \file
/// The workloads' inputs, all made from the seed the benchmark is given:
/// the documents (fixed, so every seed serves the same data) and the write
/// streams (which element each insertion targets). The same streams drive
/// the end-to-end run and the per-layer replays.

namespace perfbench {

/// Tag of every inserted element. No Q1–Q6 step matches it, so the query
/// references stay fixed while writers run.
inline constexpr const char* kNoteTag = "note";

/// The labeling scheme every workload serves (the paper's headline one).
inline constexpr const char* kScheme = "V-CDBS-Containment";

/// d5-query-mixed: the open-loop writer's fixed rate and the shard count.
inline constexpr double kMixedWriterRate = 100.0;  // inserts per second
inline constexpr size_t kMixedShards = 2;
/// Workers of the reader pool the shards share: half of the 4 cores the
/// benchmark is sized for, because the clients, the server's connection
/// threads and the shard writers run on the same cores, and a pool that
/// fills every core leaves the writer's latency to the scheduler.
inline constexpr size_t kMixedReadWorkers = 2;

/// Inserts each write client makes before the window opens: they warm the
/// connection and the code paths, count as attempted, and are checked like
/// every other insert, but are not timed. The d5-query-mixed readers warm
/// up with one Q1–Q6 round each instead.
inline constexpr size_t kWarmupInserts = 20;
inline constexpr size_t kMixedWarmupWrites = 10;

/// Inserts the d5-query-mixed writer makes in a run of `seconds`: its
/// warm-up plus one per tick of its fixed rate over the window.
size_t MixedWriterOps(double seconds);

/// Element count of the play-uniform-insert document: D5's whole size
/// (Table 2) as one play.
inline constexpr uint64_t kUniformPlayNodes = 179689;

/// The D5-sized play of play-uniform-insert. Fixed (not seeded), so the
/// workload's data is the same for every seed.
cdbs::xml::Document GenerateUniformPlay();

/// hamlet-skew-insert: the one `line` of Hamlet every insertion follows,
/// picked by the seed. Where the hot element sits does not change how
/// often the gap overflows (the codes around every position have about
/// log2(N) bits), so every seed sees the same overflow schedule.
uint32_t SkewHotElement(const std::vector<uint32_t>& hamlet_lines,
                        uint64_t seed);

/// play-uniform-insert: client `client` of `clients` owns every
/// clients-th line (its half with two clients) and picks uniformly among
/// them, so no two clients ever insert next to the same line and the final
/// document does not depend on how their requests interleave.
class UniformTargets {
 public:
  UniformTargets(const std::vector<uint32_t>& lines, size_t client,
                 size_t clients, uint64_t seed);
  uint32_t Next();
  /// Sleeps for the client's think time before its next insert.
  void Think();

 private:
  std::vector<uint32_t> own_;
  cdbs::util::Random rng_;
  cdbs::util::Random think_;
};

/// Mean think time of a play-uniform-insert client, exponentially
/// distributed. Two clients that send again the moment they are answered
/// lock into one of two steady states against the group commit: in step
/// (both inserts share each fsync) or alternating (each waits out the
/// other's commit), and a run stays in one of them; their throughputs
/// differ about twofold. A random pause keeps the clients from locking, so
/// every run sees the same mix, and keeps the fsync rate well below what a
/// shared disk sustains.
inline constexpr double kUniformThinkUs = 5000.0;

/// One write of d5-query-mixed: a `note` after line `rank` (document-order
/// rank inside play `doc`).
struct MixedWrite {
  uint32_t doc = 0;
  uint32_t rank = 0;
};

/// The writer's first `count` inserts: uniformly random lines of the
/// whole corpus.
std::vector<MixedWrite> MixedWriterStream(
    const std::vector<std::vector<uint32_t>>& lines_by_play, size_t count,
    uint64_t seed);

}  // namespace perfbench

#endif  // CDBS_PERFBENCH_WORKLOADS_H_
