#ifndef CDBS_PERFBENCH_STACK_H_
#define CDBS_PERFBENCH_STACK_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"

/// \file
/// The end-to-end run: sets the serving stack up (several times, for the
/// set-up metric), drives it through net::CdbsClient over loopback for the
/// measured window, and checks every answer against the reference. In the
/// traced run it also gathers the per-layer facts only the live stack can
/// give: the program's counters and trace.stage.* histograms over the
/// window, ping times, and the traced-versus-untraced latency.

namespace perfbench {

/// What the traced end-to-end run hands to the per-layer report.
struct LayerFacts {
  /// Per-layer metrics measured on the live stack, by BENCHMARK.json name.
  std::map<std::string, double> values;
  /// Median latency of the workload's operation (an insert, or a Q1–Q6
  /// round on d5-query-mixed) in the untraced slices, in microseconds —
  /// the base of the per-layer shares.
  double op_p50_us = 0;
  /// trace.stage.<stage> span counts over the traced slices.
  std::map<std::string, uint64_t> stage_spans;
  /// d5-query-mixed: shard of each play (for the per-layer replays).
  std::vector<uint32_t> shard_of_play;
};

/// Runs the workload named in `options` end to end. With `facts` non-null
/// (the traced run) the window alternates untraced and traced slices and
/// the facts are filled; otherwise tracing stays off throughout and the
/// report carries the end-to-end metrics.
Report RunEndToEnd(const Options& options, LayerFacts* facts);

/// Stage names the tracer records (obs::SpanName, without the envelope).
const std::vector<std::string>& TraceStages();

}  // namespace perfbench

#endif  // CDBS_PERFBENCH_STACK_H_
