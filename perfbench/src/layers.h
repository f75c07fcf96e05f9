#ifndef CDBS_PERFBENCH_LAYERS_H_
#define CDBS_PERFBENCH_LAYERS_H_

#include "common.h"
#include "stack.h"

/// \file
/// The per-layer half of the traced run: replays the workload's write
/// stream through each layer alone (core, labeling, storage, engine,
/// concurrency), times the query layer on d5-query-mixed's corpus,
/// merges in the facts the live stack gave (counters, trace
/// stages, ping, tracing overhead), prints the per-layer table with each
/// layer's share of the end-to-end time, and returns the per-layer report.

namespace perfbench {

/// `e2e` is the traced end-to-end run's report; its operation counts and
/// correctness carry over, and the replays add their own checks.
Report RunLayers(const Options& options, const LayerFacts& facts,
                 const Report& e2e);

}  // namespace perfbench

#endif  // CDBS_PERFBENCH_LAYERS_H_
