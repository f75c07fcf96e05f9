#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/cdbs.h"
#include "engine/concurrent_db.h"
#include "engine/xml_db.h"
#include "labeling/containment.h"
#include "labeling/registry.h"
#include "query/evaluator.h"
#include "query/tag_index.h"
#include "query/xpath.h"
#include "reference.h"
#include "shard/sharded_db.h"
#include "storage/label_store.h"
#include "workloads.h"
#include "xml/shakespeare.h"

namespace perfbench {

namespace {

using cdbs::Status;
using cdbs::labeling::NodeId;
using cdbs::xml::Document;
using CdbsLabeling =
    cdbs::labeling::ContainmentLabeling<cdbs::labeling::CdbsContainmentCodec>;

/// Every per-layer metric, in BENCHMARK.json order, with its unit and the
/// end-to-end metric (and workload) it should move.
struct LayerMetric {
  std::string name;
  std::string unit;
  std::string moves;
};

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> m = {
        {"xml.generate_ms", "ms", "setup_s (all)"},
        {"core.assign_middle_ns", "ns", "insert_p50_ms (skew)"},
        {"labeling.insert_ns", "ns",
         "insert_p50_ms, cpu_us_per_op (skew, uniform)"},
        {"labeling.overflows", "count",
         "insert_tail_ms, ops_per_s, cpu_us_per_op (skew)"},
        {"labeling.relabeled_per_insert", "count",
         "write_bytes_per_insert, insert_tail_ms (skew)"},
        {"labeling.label_bits_mean", "bit",
         "store_bytes_per_node (skew, uniform)"},
        {"labeling.label_bits_max", "bit",
         "store_bytes_per_node (skew, uniform)"},
        {"storage.apply_batch_us", "us", "insert_p50_ms (uniform)"},
        {"storage.reload_ms", "ms", "insert_tail_ms, ops_per_s (skew)"},
        {"storage.page_writes_per_insert", "count",
         "write_bytes_per_insert (skew, uniform)"},
        {"storage.bytes_per_insert", "B",
         "write_bytes_per_insert (skew, uniform)"},
        {"wal.bytes_per_insert", "B", "write_bytes_per_insert (skew, uniform)"},
        {"repl.log_bytes_per_insert", "B",
         "write_bytes_per_insert (skew, uniform)"},
        {"storage.recovery_ms", "ms", "setup_s (all)"},
        {"engine.open_ms", "ms", "setup_s (all)"},
        {"engine.insert_us", "us",
         "insert_p50_ms, cpu_us_per_op (skew, uniform)"},
        {"concurrency.insert_us", "us",
         "insert_p50_ms, cpu_us_per_op (uniform)"},
        {"concurrency.records_per_commit", "count",
         "insert_p50_ms, cpu_us_per_op (uniform)"},
        {"concurrency.publish_us", "us",
         "cpu_us_per_op (uniform), query_round_tail_ms (d5)"},
        {"concurrency.chunks_copied_per_publish", "count",
         "cpu_us_per_op (uniform), query_round_tail_ms (d5)"},
        {"concurrency.write_wait_us", "us", "insert_tail_ms (uniform, d5)"},
        {"concurrency.read_us", "us", "ops_per_s, cpu_us_per_op (d5)"},
        {"query.parse_us", "us", "ops_per_s, cpu_us_per_op (d5)"},
        {"query.eval_ms.q1", "ms", "ops_per_s, cpu_us_per_op (d5)"},
        {"query.eval_ms.q2", "ms", "ops_per_s, cpu_us_per_op (d5)"},
        {"query.eval_ms.q3", "ms", "ops_per_s, cpu_us_per_op (d5)"},
        {"query.eval_ms.q4", "ms", "ops_per_s, cpu_us_per_op (d5)"},
        {"query.eval_ms.q5", "ms", "ops_per_s, cpu_us_per_op (d5)"},
        {"query.eval_ms.q6", "ms", "ops_per_s, cpu_us_per_op (d5)"},
        {"query.label_comparisons_per_round", "count",
         "ops_per_s, cpu_us_per_op (d5)"},
        {"shard.count_all_ms", "ms", "ops_per_s, cpu_us_per_op (d5)"},
        {"net.ping_us", "us", "every *_p50_ms (all)"},
        {"net.frame_bytes_per_op", "B", "ops_per_s, cpu_us_per_op (d5)"},
    };
    for (const std::string& stage : TraceStages()) {
      m.push_back({"trace.stage." + stage + ".mean_us", "us",
                   "cross-checks the replayed layer times"});
    }
    m.push_back({"obs.tracing_overhead_pct", "%", "no end-to-end metric"});
    return m;
  }();
  return metrics;
}

// ---------------------------------------------------------------------
// The write stream, replayed layer by layer.

/// One document the replays insert into, with the targets of its share of
/// the stream in stream order.
struct ReplayDoc {
  Document doc;
  std::vector<NodeId> targets;
};

/// How much of the stream the store-touching replays take: every such
/// insert waits for an fsync, and on hamlet-skew-insert one in seventeen is
/// an O(N) reload.
size_t StoreReplayCap(const std::string& workload) {
  return workload == kSkew ? 200 : 1000;
}

/// The stream length of the in-memory labeling replay: the skew stream
/// repeats the end-to-end run's first thousand inserts, so the overflow
/// and relabel counts are the same in every run.
constexpr size_t kSkewReplayOps = 1000;
constexpr size_t kUniformReplayOps = 2000;

Document Copy(const Document& doc) {
  Document out;
  out.DeepCopy(doc.root(), nullptr);
  return out;
}

/// The documents and streams of the workload's write side. d5-query-mixed
/// writes into its two shards, whose documents are rebuilt here the way
/// ShardedDb merges its plays (corpus order under one synthetic root), so
/// replayed node ids equal the served ones; `plays` receives its corpus
/// (left empty on the insert workloads).
std::vector<ReplayDoc> ReplayDocs(const Options& o, const LayerFacts& facts,
                                  std::vector<Document>* plays) {
  std::vector<ReplayDoc> out;
  if (o.workload == kMixed) {
    *plays = cdbs::xml::GenerateShakespeareDataset();
    std::vector<std::vector<uint32_t>> lines_by_play;
    for (const Document& p : *plays) {
      lines_by_play.push_back(RanksOfTag(p, "line"));
    }
    out.resize(kMixedShards);
    std::vector<NodeId> doc_root(plays->size());
    std::vector<NodeId> next_id(kMixedShards, 1);
    for (size_t s = 0; s < kMixedShards; ++s) {
      out[s].doc.CreateRoot(cdbs::shard::kShardRootTag);
    }
    for (size_t d = 0; d < plays->size(); ++d) {
      const uint32_t s = facts.shard_of_play.at(d);
      doc_root[d] = next_id[s];
      next_id[s] += static_cast<NodeId>((*plays)[d].node_count());
      out[s].doc.DeepCopy((*plays)[d].root(), out[s].doc.root());
    }
    for (const MixedWrite& w : MixedWriterStream(
             lines_by_play, MixedWriterOps(o.seconds), o.seed)) {
      out[facts.shard_of_play[w.doc]].targets.push_back(doc_root[w.doc] +
                                                        w.rank);
    }
    return out;
  }
  const bool skew = o.workload == kSkew;
  ReplayDoc r;
  r.doc = skew ? cdbs::xml::GenerateHamlet() : GenerateUniformPlay();
  const std::vector<uint32_t> lines = RanksOfTag(r.doc, "line");
  if (skew) {
    r.targets.assign(kSkewReplayOps, SkewHotElement(lines, o.seed));
  } else {
    // The two clients' streams, interleaved; targets are original lines,
    // so any interleaving yields the same labels.
    UniformTargets a(lines, 0, 2, o.seed);
    UniformTargets b(lines, 1, 2, o.seed);
    for (size_t i = 0; i < kUniformReplayOps; ++i) {
      r.targets.push_back(i % 2 == 0 ? a.Next() : b.Next());
    }
  }
  out.push_back(std::move(r));
  return out;
}

struct WriteLayerSamples {
  Samples assign_ns;      // per-call mean over the recorded gaps
  Samples label_ns;       // InsertSiblingAfter
  Samples apply_us;       // ApplyBatch (+ fsync), one insert's batch
  Samples reload_ms;      // a full-document reload
  Samples engine_us;      // XmlDb::InsertElementAfter
  Samples concurrent_us;  // ConcurrentXmlDb::InsertElementAfter
  uint64_t inserts = 0;
  uint64_t overflows = 0;
  uint64_t relabeled = 0;
  Samples label_bits;
};

std::vector<std::string> AllRecords(const cdbs::labeling::Labeling& lab) {
  std::vector<std::string> records;
  records.reserve(lab.num_nodes());
  for (NodeId n = 0; n < lab.num_nodes(); ++n) {
    records.push_back(lab.SerializeLabel(n));
  }
  return records;
}

/// core + labeling + storage, in lockstep: every insert goes through the
/// labeling alone (timed), and the first `store_cap` of them also through
/// LabelStore::ApplyBatch (timed) with the records the insert changed.
void ReplayLabelingAndStore(const ReplayDoc& r, const std::string& dir,
                            size_t store_cap, WriteLayerSamples* out) {
  const auto scheme = cdbs::labeling::SchemeByName(kScheme);
  std::unique_ptr<cdbs::labeling::Labeling> lab = scheme->Label(r.doc);
  auto* cdbs_lab = dynamic_cast<CdbsLabeling*>(lab.get());
  if (cdbs_lab == nullptr) {
    Die("labeling replay", Status::Internal("not a V-CDBS labeling"));
  }
  const std::string path = dir + "/replay.cdbs";
  cdbs::storage::LabelStore store;
  Must(store.Open(path), "open the replay store");
  Must(store.BulkLoad(AllRecords(*lab), 16), "bulk-load the replay store");

  std::vector<std::pair<cdbs::core::BitString, cdbs::core::BitString>> gaps;
  gaps.reserve(r.targets.size());
  for (size_t i = 0; i < r.targets.size(); ++i) {
    const NodeId target = r.targets[i];
    // The gap InsertSiblingAfter fills: the target's end and the next
    // value in document order.
    const NodeId next = lab->skeleton().next_sibling(target);
    gaps.emplace_back(cdbs_lab->end_value(target),
                      next != cdbs::labeling::kNoNode
                          ? cdbs_lab->start_value(next)
                          : cdbs_lab->end_value(lab->skeleton().parent(target)));
    const int64_t t0 = NowNs();
    const cdbs::labeling::InsertResult res = lab->InsertSiblingAfter(target);
    out->label_ns.Add(static_cast<double>(NowNs() - t0));
    ++out->inserts;
    out->overflows += res.overflow ? 1 : 0;
    out->relabeled += res.relabeled;
    if (i >= store_cap) continue;
    cdbs::storage::StoreBatch batch;
    for (const NodeId n : res.relabeled_nodes) {
      batch.Rewrite(n, lab->SerializeLabel(n));
    }
    batch.Append(lab->SerializeLabel(res.new_node));
    cdbs::storage::StoreBatch reload;
    const int64_t t1 = NowNs();
    Status applied = store.ApplyBatch(batch);
    if (applied.code() == cdbs::StatusCode::kOutOfRange) {
      // A label outgrew its slot: the whole store is rewritten, as the
      // engine does.
      reload.Reload(AllRecords(*lab), 16);
      applied = store.ApplyBatch(reload);
    }
    out->apply_us.Add(static_cast<double>(NowNs() - t1) / 1e3);
    Must(applied, "replay ApplyBatch");
  }

  for (NodeId n = 0; n < lab->num_nodes(); ++n) {
    out->label_bits.Add(
        8.0 * static_cast<double>(lab->SerializeLabel(n).size()));
  }
  for (int i = 0; i < 3; ++i) {
    cdbs::storage::StoreBatch reload;
    reload.Reload(AllRecords(*lab), 16);
    const int64_t t0 = NowNs();
    Must(store.ApplyBatch(reload), "replay reload");
    out->reload_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
  }

  // core: AssignMiddleBinaryString alone over the recorded gaps, as a
  // per-call mean of a tight loop (one call is ~100 ns, too short to time
  // alone); the median of five passes.
  for (int pass = 0; pass < 5; ++pass) {
    size_t bits = 0;
    const int64_t t1 = NowNs();
    for (const auto& [left, right] : gaps) {
      bits += cdbs::core::AssignMiddleBinaryString(left, right).size();
    }
    const int64_t elapsed = NowNs() - t1;
    if (bits == 0) std::abort();  // keeps the loop from being elided
    out->assign_ns.Add(static_cast<double>(elapsed) /
                       static_cast<double>(gaps.size()));
  }
}

/// engine and concurrency: the same stream's first `cap` inserts through
/// XmlDb and then ConcurrentXmlDb alone, store-backed like the workload
/// (with a replication log where the workload keeps one).
void ReplayEngines(const ReplayDoc& r, const std::string& dir, bool repl_log,
                   size_t cap, WriteLayerSamples* out) {
  const size_t n = std::min(cap, r.targets.size());
  {
    cdbs::engine::XmlDbOptions eo;
    eo.scheme_name = kScheme;
    eo.storage_path = dir + "/engine.cdbs";
    auto db = cdbs::engine::XmlDb::Open(Copy(r.doc), eo);
    if (!db.ok()) Die("open the replay XmlDb", db.status());
    for (size_t i = 0; i < n; ++i) {
      const int64_t t0 = NowNs();
      const auto id = (*db)->InsertElementAfter(r.targets[i], kNoteTag);
      out->engine_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      if (!id.ok()) Die("replay XmlDb insert", id.status());
    }
  }
  cdbs::engine::ConcurrentXmlDbOptions co;
  co.db.scheme_name = kScheme;
  co.db.storage_path = dir + "/concurrent.cdbs";
  if (repl_log) co.replication_log_path = dir + "/concurrent.repl";
  auto db = cdbs::engine::ConcurrentXmlDb::Open(Copy(r.doc), co);
  if (!db.ok()) Die("open the replay ConcurrentXmlDb", db.status());
  for (size_t i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    const auto id = (*db)->InsertElementAfter(r.targets[i], kNoteTag);
    out->concurrent_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
    if (!id.ok()) Die("replay ConcurrentXmlDb insert", id.status());
  }
  (*db)->Shutdown();
}

// ---------------------------------------------------------------------
// The read side: query and shard layers on the workload's documents.

struct ReadLayerSamples {
  double parse_us = 0;
  std::vector<Samples> eval_ms = std::vector<Samples>(6);
  uint64_t comparisons_per_round = 0;
};

uint64_t LabelComparisons() {
  return Totals::Of(cdbs::obs::MetricRegistry::Default())
      .Counter("query.eval.label_comparisons");
}

/// query: parse and evaluate Q1–Q6 alone over each play's own labeled
/// document, summed over the plays, and check the counts against the walk.
void ReplayQueries(const std::vector<Document>& plays, Report* report,
                   ReadLayerSamples* out) {
  const std::vector<std::string>& texts = cdbs::query::Table3Queries();
  std::vector<cdbs::query::Query> parsed;
  constexpr int kParses = 2000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kParses; ++i) {
    parsed.clear();
    for (const std::string& t : texts) {
      auto q = cdbs::query::ParseQuery(t);
      if (!q.ok()) Die("parse " + t, q.status());
      parsed.push_back(std::move(q).value());
    }
  }
  out->parse_us = static_cast<double>(NowNs() - t0) / 1e3 /
                  (kParses * static_cast<double>(texts.size()));

  const auto scheme = cdbs::labeling::SchemeByName(kScheme);
  std::vector<std::unique_ptr<cdbs::query::LabeledDocument>> labeled;
  for (const Document& p : plays) {
    labeled.push_back(
        std::make_unique<cdbs::query::LabeledDocument>(p, *scheme));
  }
  const QueryCounts reference = WalkQueryCounts(plays);
  for (int round = 0; round < 5; ++round) {
    const uint64_t c0 = LabelComparisons();
    for (size_t q = 0; q < parsed.size(); ++q) {
      uint64_t matches = 0;
      const int64_t t1 = NowNs();
      for (const auto& doc : labeled) {
        matches += cdbs::query::EvaluateQuery(parsed[q], *doc).size();
      }
      out->eval_ms[q].Add(static_cast<double>(NowNs() - t1) / 1e6);
      if (round == 0) {
        report->Check(matches == reference[q],
                      "EvaluateQuery Q" + std::to_string(q + 1) + " found " +
                          std::to_string(matches) + ", reference " +
                          std::to_string(reference[q]));
      }
    }
    if (round == 0) out->comparisons_per_round = LabelComparisons() - c0;
  }
}

// ---------------------------------------------------------------------
// The table.

void PrintShare(const char* layer, double us, double base_us) {
  std::printf("  %-34s %12.3f us %8.1f%%\n", layer, us,
              base_us == 0 ? 0.0 : 100.0 * us / base_us);
}

void PrintShares(const Options& o, const std::map<std::string, double>& v,
                 double op_p50_us) {
  auto at = [&](const char* name) { return v.at(name); };
  if (o.workload == kMixed) {
    double eval_us = 0;
    for (int q = 1; q <= 6; ++q) {
      eval_us += 1e3 * at(("query.eval_ms.q" + std::to_string(q)).c_str());
    }
    const double parse_us = 6 * at("query.parse_us");
    const double count_all_us = 1e3 * at("shard.count_all_ms");
    const double net_us = 6 * at("net.ping_us");
    std::printf(
        "\nShare of the untraced Q1-Q6 round p50 (%.3f us), from layer-alone "
        "times:\n",
        op_p50_us);
    PrintShare("net (6 pings)", net_us, op_p50_us);
    PrintShare("shard (CountAll - eval - parse)",
               count_all_us - eval_us - parse_us, op_p50_us);
    PrintShare("query eval (per play, summed)", eval_us, op_p50_us);
    PrintShare("query parse (6)", parse_us, op_p50_us);
    PrintShare("unaccounted (round - net - CountAll)",
               op_p50_us - net_us - count_all_us, op_p50_us);
    return;
  }
  const double core_us = at("core.assign_middle_ns") / 1e3;
  const double label_us = at("labeling.insert_ns") / 1e3;
  const double store_us = at("storage.apply_batch_us");
  const double engine_us = at("engine.insert_us");
  const double concurrent_us = at("concurrency.insert_us");
  const double net_us = at("net.ping_us");
  std::printf(
      "\nShare of the untraced insert p50 (%.3f us), from layer-alone "
      "medians:\n",
      op_p50_us);
  PrintShare("net (ping)", net_us, op_p50_us);
  PrintShare("concurrency (insert - engine)", concurrent_us - engine_us,
             op_p50_us);
  PrintShare("engine (insert - labeling - store)",
             engine_us - label_us - store_us, op_p50_us);
  PrintShare("storage (ApplyBatch + fsync)", store_us, op_p50_us);
  PrintShare("labeling (insert - core)", label_us - core_us, op_p50_us);
  PrintShare("core (AssignMiddleBinaryString)", core_us, op_p50_us);
  PrintShare("unaccounted (e2e - net - concurrency)",
             op_p50_us - net_us - concurrent_us, op_p50_us);
}

}  // namespace

Report RunLayers(const Options& o, const LayerFacts& facts, const Report& e2e) {
  Report report;
  report.correct = e2e.correct;
  report.errors = e2e.errors;
  report.attempted = e2e.attempted;
  report.failed = e2e.failed;
  std::map<std::string, double> v = facts.values;

  const std::string dir = o.workdir + "/layers";
  std::filesystem::create_directories(dir);
  std::vector<Document> plays;
  const std::vector<ReplayDoc> docs = ReplayDocs(o, facts, &plays);
  WriteLayerSamples w;
  for (const ReplayDoc& r : docs) {
    ReplayLabelingAndStore(r, dir, StoreReplayCap(o.workload), &w);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ReplayEngines(r, dir, /*repl_log=*/o.workload != kMixed,
                  StoreReplayCap(o.workload), &w);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  v["core.assign_middle_ns"] = w.assign_ns.Median();
  v["labeling.insert_ns"] = w.label_ns.Median();
  v["labeling.overflows"] = static_cast<double>(w.overflows);
  v["labeling.relabeled_per_insert"] =
      static_cast<double>(w.relabeled) / static_cast<double>(w.inserts);
  v["labeling.label_bits_mean"] = w.label_bits.Mean();
  v["labeling.label_bits_max"] = w.label_bits.Max();
  v["storage.apply_batch_us"] = w.apply_us.Median();
  v["storage.reload_ms"] = w.reload_ms.Median();
  v["engine.insert_us"] = w.engine_us.Median();
  v["concurrency.insert_us"] = w.concurrent_us.Median();

  // The query and shard layers serve only d5-query-mixed's reads;
  // shard.count_all_ms comes from its live ShardedDb.
  if (o.workload == kMixed) {
    ReadLayerSamples r;
    ReplayQueries(plays, &report, &r);
    v["query.parse_us"] = r.parse_us;
    for (int q = 0; q < 6; ++q) {
      v["query.eval_ms.q" + std::to_string(q + 1)] = r.eval_ms[q].Median();
    }
    v["query.label_comparisons_per_round"] =
        static_cast<double>(r.comparisons_per_round);
  }

  std::printf("\nPer-layer metrics (%s, seed %llu)\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed));
  std::printf("  %-40s %14s %-6s  %s\n", "metric", "value", "unit",
              "should move");
  for (const LayerMetric& m : LayerMetrics()) {
    const auto it = v.find(m.name);
    if (it == v.end() && o.workload != kMixed &&
        (m.name.rfind("query.", 0) == 0 || m.name.rfind("shard.", 0) == 0)) {
      // Not exercised by this workload: n/a here, 0 in the result line.
      std::printf("  %-40s %14s %-6s  %s\n", m.name.c_str(), "n/a",
                  m.unit.c_str(), m.moves.c_str());
      report.Add(m.name, 0, m.unit);
      continue;
    }
    if (it == v.end()) {
      Die("per-layer report", Status::Internal("no value for " + m.name));
    }
    std::string note = m.moves;
    if (m.name.rfind("trace.stage.", 0) == 0) {
      // "trace.stage.<stage>.mean_us"
      const std::string stage = m.name.substr(12, m.name.size() - 12 - 8);
      note = std::to_string(facts.stage_spans.at(stage)) + " spans";
    }
    std::printf("  %-40s %14.4f %-6s  %s\n", m.name.c_str(), it->second,
                m.unit.c_str(), note.c_str());
    report.Add(m.name, it->second, m.unit);
  }
  PrintShares(o, v, facts.op_p50_us);
  std::printf("  tracing overhead (traced vs untraced p50): %.2f%%\n",
              v.at("obs.tracing_overhead_pct"));
  std::filesystem::remove_all(dir);
  return report;
}

}  // namespace perfbench
