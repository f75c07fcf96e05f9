#include "stack.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/concurrent_db.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "query/xpath.h"
#include "reference.h"
#include "shard/sharded_db.h"
#include "storage/label_store.h"
#include "workloads.h"
#include "xml/shakespeare.h"

namespace perfbench {

namespace {

using cdbs::Result;
using cdbs::Status;
using cdbs::engine::ConcurrentXmlDb;
using cdbs::net::CdbsClient;

/// The traced run cuts its window into this many equal slices and traces
/// every other one, so the untraced and traced slices see the document at
/// about the same sizes.
constexpr int kTraceSlices = 4;

constexpr size_t kMixedReaders = 2;

/// Set-ups per run; the median is reported. The Hamlet store sets up in
/// milliseconds, so it takes more of them.
size_t SetupRounds(const std::string& workload) {
  return workload == kSkew ? 101 : 15;
}

/// What Q4 (//act[2]/following::speaker) returns on the 2-shard server:
/// ShardedDb merges a shard's plays under one synthetic root, so
/// following:: crosses play boundaries. The right answer is 17,133.
constexpr uint64_t kShardedQ4Answer = 28472;

void SetTracing(bool on) {
  cdbs::obs::TraceOptions t;
  t.sample_every = on ? 1 : 0;
  cdbs::obs::Tracer::Instance().Configure(t);
}

std::unique_ptr<CdbsClient> Connect(uint16_t port, uint64_t jitter_seed) {
  cdbs::net::ClientOptions o;
  o.port = port;
  o.jitter_seed = jitter_seed;
  return Must(CdbsClient::Connect(o), "connect a client");
}

/// One serving stack. Members are destroyed server first.
struct Stack {
  std::unique_ptr<ConcurrentXmlDb> db;
  std::unique_ptr<cdbs::shard::ShardedDb> sharded;
  std::unique_ptr<cdbs::net::Server> server;
  /// The label store of each engine (one per shard on d5-query-mixed).
  std::vector<std::string> store_paths;

  void Shutdown() {
    if (server != nullptr) server->Shutdown();
    if (db != nullptr) db->Shutdown();
    if (sharded != nullptr) sharded->Shutdown();
  }

  std::vector<ConcurrentXmlDb*> engines() {
    if (db != nullptr) return {db.get()};
    std::vector<ConcurrentXmlDb*> out;
    for (size_t s = 0; s < sharded->shard_count(); ++s) {
      out.push_back(sharded->shard(s));
    }
    return out;
  }
};

struct SetupSamples {
  Samples total_s;
  Samples generate_ms;
  Samples open_ms;
};

/// Generates, labels and opens the workload's data (bulk-loading its label
/// stores) and starts the server; the set-up time ends when the server
/// accepts connections.
Stack SetUp(const Options& o, const std::string& dir, SetupSamples* times) {
  std::filesystem::create_directories(dir);
  const int64_t t0 = NowNs();
  Stack s;
  int64_t t1 = 0;
  int64_t t2 = 0;
  if (o.workload == kMixed) {
    std::vector<cdbs::xml::Document> plays =
        cdbs::xml::GenerateShakespeareDataset();
    t1 = NowNs();
    cdbs::shard::ShardedDbOptions so;
    so.shard_count = kMixedShards;
    so.read_workers = kMixedReadWorkers;
    so.shard.db.scheme_name = kScheme;
    so.storage_dir = dir + "/shards";
    s.sharded = Must(cdbs::shard::ShardedDb::Open(std::move(plays), so),
                     "open the sharded corpus");
    t2 = NowNs();
    s.server = Must(cdbs::net::Server::StartSharded(s.sharded.get(), {}),
                    "start the sharded server");
    for (size_t i = 0; i < kMixedShards; ++i) {
      s.store_paths.push_back(so.storage_dir + "/shard-" + std::to_string(i) +
                              "/labels.cdbs");
    }
  } else {
    cdbs::xml::Document doc = o.workload == kSkew
                                  ? cdbs::xml::GenerateHamlet()
                                  : GenerateUniformPlay();
    t1 = NowNs();
    cdbs::engine::ConcurrentXmlDbOptions co;
    co.db.scheme_name = kScheme;
    co.db.storage_path = dir + "/labels.cdbs";
    co.replication_log_path = dir + "/repl.log";
    s.db = Must(ConcurrentXmlDb::Open(std::move(doc), co),
                "open the store-backed database");
    t2 = NowNs();
    s.server = Must(cdbs::net::Server::Start(s.db.get(), {}),
                    "start the server");
    s.store_paths.push_back(co.db.storage_path);
  }
  const int64_t t3 = NowNs();
  times->total_s.Add(static_cast<double>(t3 - t0) / 1e9);
  times->generate_ms.Add(static_cast<double>(t1 - t0) / 1e6);
  times->open_ms.Add(static_cast<double>(t2 - t1) / 1e6);
  return s;
}

/// Sets up SetupRounds() times, keeping the last stack.
Stack SetUpRepeatedly(const Options& o, SetupSamples* times) {
  const size_t rounds = SetupRounds(o.workload);
  for (size_t i = 0;; ++i) {
    const std::string dir = o.workdir + "/stack-" + std::to_string(i);
    Stack s = SetUp(o, dir, times);
    if (i + 1 == rounds) return s;
    s.Shutdown();
    s = Stack();
    std::filesystem::remove_all(dir);
  }
}


/// Sleeps through the measured window of `seconds` from `start`, tracing
/// every other slice in the traced run; `slice` tells the clients which
/// slice an operation started in.
void RunWindow(double seconds, bool traced, int64_t start,
               std::atomic<int>* slice) {
  const int slices = traced ? kTraceSlices : 1;
  for (int i = 0; i < slices; ++i) {
    if (traced) SetTracing(i % 2 == 1);
    slice->store(i);
    SleepUntilNs(start + static_cast<int64_t>(seconds * 1e9 * (i + 1) /
                                               slices));
  }
  if (traced) SetTracing(false);
}

void WaitFor(const std::atomic<size_t>& counter, size_t target) {
  while (counter.load() < target) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void WaitFor(const std::atomic<bool>& flag) {
  while (!flag.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

double MedianPingUs(CdbsClient* client) {
  Samples us;
  for (int i = 0; i < 200; ++i) {
    const int64_t t0 = NowNs();
    const Status s = client->Ping();
    if (!s.ok()) Die("ping", s);
    us.Add(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return us.Median();
}

/// A timed operation's latency, by whether its slice was traced.
struct Latencies {
  Samples ms;  // every measured operation
  Samples untraced_ms;
  Samples traced_ms;

  void Add(int slice, int64_t latency_ns) {
    const double v = static_cast<double>(latency_ns) / 1e6;
    ms.Add(v);
    (slice % 2 == 0 ? untraced_ms : traced_ms).Add(v);
  }
};

/// "<n> <what>: p50 <x> ms, <tail> <y> ms" for the run's log.
std::string Describe(const char* what, const Samples& ms) {
  const double q = TailQuantile(ms.size());
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%zu %s: p50 %.3f ms, %s %.3f ms",
                ms.size(), what, ms.Median(), QuantileLabel(q).c_str(),
                ms.Quantile(q));
  return buf;
}

// ---------------------------------------------------------------------
// Q1–Q6 rounds (d5-query-mixed).

/// One reader's rounds and their outcomes.
struct Reader {
  std::unique_ptr<CdbsClient> client;
  std::vector<std::pair<int, int64_t>> rounds;  // slice (-1: warm-up), ns
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::string unexpected;  // the first wrong answer other than Q4's fault
};

/// One round of Q1–Q6 through Count, each answer checked against
/// `reference`. A wrong answer counts as failed. Q4 returning
/// kShardedQ4Answer is the known fault; every other wrong answer, Q4's
/// included, is also a correctness failure.
void Round(const QueryCounts& reference, int slice, Reader* r) {
  const std::vector<std::string>& queries = cdbs::query::Table3Queries();
  const int64_t t0 = NowNs();
  for (size_t q = 0; q < queries.size(); ++q) {
    ++r->ops;
    const auto count = r->client->Count(queries[q]);
    if (count.ok() && count->total == reference[q]) continue;
    ++r->failed;
    if (count.ok() && q == 3 && count->total == kShardedQ4Answer) continue;
    if (r->unexpected.empty()) {
      r->unexpected = "Q" + std::to_string(q + 1) + ": " +
                      (count.ok() ? "returned " + std::to_string(count->total) +
                                        ", reference " +
                                        std::to_string(reference[q])
                                  : count.status().ToString());
    }
  }
  r->rounds.push_back({slice, NowNs() - t0});
}

// ---------------------------------------------------------------------
// End-of-run checks and metrics shared by the workloads.

/// Shuts the stack down, then reopens every label store the way crash
/// recovery does: each must pass VerifyChecksums and hold a record for
/// every node its engine ever assigned. Returns the total recovery time;
/// `store_bytes` and `nodes` receive the stores' sizes and node counts.
double CloseAndReopenStores(Stack* stack, Report* report, double* store_bytes,
                            double* nodes) {
  stack->Shutdown();
  std::vector<uint64_t> node_counts;
  for (ConcurrentXmlDb* e : stack->engines()) {
    node_counts.push_back(e->underlying().labeling().num_nodes());
  }
  const std::vector<std::string> paths = stack->store_paths;
  *stack = Stack();
  double recovery_ms = 0;
  *store_bytes = 0;
  *nodes = 0;
  for (size_t i = 0; i < paths.size(); ++i) {
    cdbs::storage::LabelStore store;
    const int64_t t0 = NowNs();
    const Status reopened = store.OpenExisting(paths[i]);
    recovery_ms += static_cast<double>(NowNs() - t0) / 1e6;
    report->Check(reopened.ok(), "OpenExisting " + paths[i] + ": " +
                                     reopened.ToString());
    if (reopened.ok()) {
      const Status verified = store.VerifyChecksums();
      report->Check(verified.ok(), "VerifyChecksums: " + verified.ToString());
      report->Check(store.size() == node_counts[i],
                    "store holds " + std::to_string(store.size()) +
                        " records for " + std::to_string(node_counts[i]) +
                        " nodes");
    }
    *store_bytes += static_cast<double>(FileSize(paths[i]));
    *nodes += static_cast<double>(node_counts[i]);
  }
  return recovery_ms;
}

/// The end-to-end metrics, in BENCHMARK.json order. `cpu_us_per_op` is
/// the whole process's CPU time over the window (clients, server, engine
/// and stores alike) per counted operation; time blocked in fsync or in a
/// client's think time is not CPU time.
void AddEndToEnd(const SetupSamples& setup, double ops_per_s,
                 double cpu_us_per_op, double write_bytes_per_insert,
                 double store_bytes, double nodes, Report* report) {
  report->Add("setup_s", setup.total_s.Median(), "s");
  report->Add("ops_per_s", ops_per_s, "1/s");
  report->Add("cpu_us_per_op", cpu_us_per_op, "us");
  report->Add("write_bytes_per_insert", write_bytes_per_insert, "B");
  report->Add("store_bytes_per_node", store_bytes / nodes, "B");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

/// Store page bytes plus WAL bytes written between two registry totals.
double WriteBytes(const Totals& w0, const Totals& w1) {
  return static_cast<double>(
      w1.Counter("storage.bytes_written") - w0.Counter("storage.bytes_written") +
      w1.Counter("wal.bytes_written") - w0.Counter("wal.bytes_written"));
}

/// Window deltas of the program's registries, for the per-layer facts: `w`
/// spans the measured windows, `c` the traced end-of-run checks.
void AddRegistryFacts(const Totals& w0, const Totals& w1, const Totals& c0,
                      const Totals& c1, double repl_bytes, double inserts,
                      double ops, LayerFacts* f) {
  auto hist = [&](const std::string& name) {
    return w1.Histogram(name) - w0.Histogram(name);
  };
  auto counter = [&](const std::string& name) {
    return static_cast<double>(w1.Counter(name) - w0.Counter(name));
  };
  auto per = [](double v, double n) { return n == 0 ? 0 : v / n; };
  auto& v = f->values;
  const double page_bytes = counter("storage.bytes_written");
  const double wal_bytes = counter("wal.bytes_written");
  v["storage.page_writes_per_insert"] =
      per(counter("storage.page_writes"), inserts);
  v["storage.bytes_per_insert"] = per(page_bytes, inserts);
  // wal.bytes_written counts every WAL, the replication log's included.
  v["wal.bytes_per_insert"] = per(wal_bytes - repl_bytes, inserts);
  v["repl.log_bytes_per_insert"] = per(repl_bytes, inserts);
  v["concurrency.records_per_commit"] =
      hist("engine.concurrent.commit.batch").Mean();
  v["concurrency.publish_us"] =
      hist("engine.concurrent.snapshot.publish.ns").Mean() / 1e3;
  v["concurrency.chunks_copied_per_publish"] =
      per(counter("engine.concurrent.snapshot.chunks_copied"),
          counter("engine.concurrent.snapshots"));
  v["concurrency.write_wait_us"] =
      hist("engine.concurrent.write.wait.ns").Mean() / 1e3;
  // The insert workloads read only in the end-of-run checks.
  HistTotals reads = hist("engine.concurrent.read.ns");
  if (reads.count == 0) {
    reads = c1.Histogram("engine.concurrent.read.ns") -
            c0.Histogram("engine.concurrent.read.ns");
  }
  v["concurrency.read_us"] = reads.Mean() / 1e3;
  v["net.frame_bytes_per_op"] = per(counter("net.frame.tx.bytes"), ops);
  for (const std::string& stage : TraceStages()) {
    const std::string name = "trace.stage." + stage + ".ns";
    const HistTotals spans =
        hist(name) + (c1.Histogram(name) - c0.Histogram(name));
    v["trace.stage." + stage + ".mean_us"] = spans.Mean() / 1e3;
    f->stage_spans[stage] = spans.count;
  }
}

double TracingOverheadPct(const Samples& untraced, const Samples& traced) {
  const double off = untraced.Median();
  return off == 0 ? 0 : (traced.Median() / off - 1.0) * 100.0;
}

// ---------------------------------------------------------------------
// hamlet-skew-insert and play-uniform-insert: closed-loop durable inserts.

struct InsertSample {
  uint32_t target = 0;
  uint64_t id = 0;
  bool ok = false;
  int slice = -1;  // -1: warm-up
  int64_t latency_ns = 0;
};

Report RunInserts(const Options& o, LayerFacts* facts) {
  Report report;
  const bool skew = o.workload == kSkew;
  const size_t clients = skew ? 1 : 2;
  const bool traced = facts != nullptr;

  // Reference inputs, from a copy of the document generated apart from the
  // one the stack serves.
  std::vector<uint32_t> lines;
  uint64_t original_nodes = 0;
  {
    const cdbs::xml::Document doc =
        skew ? cdbs::xml::GenerateHamlet() : GenerateUniformPlay();
    lines = RanksOfTag(doc, "line");
    original_nodes = doc.node_count();
  }
  const uint32_t hot = skew ? SkewHotElement(lines, o.seed) : 0;

  SetupSamples setup;
  Stack stack = SetUpRepeatedly(o, &setup);
  std::vector<std::unique_ptr<CdbsClient>> conns;
  for (size_t c = 0; c < clients; ++c) {
    conns.push_back(Connect(stack.server->port(), o.seed * 16 + c));
  }

  std::atomic<int> slice{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<size_t> ready{0};
  std::vector<std::vector<InsertSample>> samples(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      UniformTargets targets(lines, c, clients, o.seed);
      auto insert = [&](int s) {
        const uint32_t target = skew ? hot : targets.Next();
        const int64_t t0 = NowNs();
        const Result<uint64_t> id = conns[c]->InsertAfter(target, kNoteTag);
        samples[c].push_back(
            {target, id.ok() ? *id : 0, id.ok(), s, NowNs() - t0});
      };
      for (size_t i = 0; i < kWarmupInserts; ++i) insert(-1);
      ready.fetch_add(1);
      WaitFor(go);
      while (!stop.load()) {
        if (!skew) targets.Think();
        insert(slice.load());
      }
    });
  }
  WaitFor(ready, clients);
  const Totals w0 = Totals::Of(cdbs::obs::MetricRegistry::Default());
  const Totals w0_db = Totals::Of(stack.db->metrics());
  const double cpu0 = ProcessCpuS();
  const int64_t start = NowNs();
  go.store(true);
  RunWindow(o.seconds, traced, start, &slice);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double window_s = static_cast<double>(NowNs() - start) / 1e9;
  const double cpu_s = ProcessCpuS() - cpu0;
  const Totals w1 = Totals::Of(cdbs::obs::MetricRegistry::Default());
  const Totals w1_db = Totals::Of(stack.db->metrics());

  Latencies latency;
  uint64_t acked = 0;
  for (const auto& per_client : samples) {
    for (const InsertSample& s : per_client) {
      ++report.attempted;
      if (!s.ok) {
        ++report.failed;
        continue;
      }
      ++acked;
      if (s.slice >= 0) latency.Add(s.slice, s.latency_ns);
    }
  }
  const double acked_in_window = static_cast<double>(latency.ms.size());

  Totals c0;
  if (traced) {
    facts->values["net.ping_us"] = MedianPingUs(conns[0].get());
    c0 = Totals::Of(cdbs::obs::MetricRegistry::Default());
    SetTracing(true);  // the end-of-run checks run traced
  }
  // End-of-run checks through the stack: the final //note order against
  // the ordered-list model, and that every insert targeted a line.
  OrderedListModel model(lines);
  for (const auto& per_client : samples) {
    for (const InsertSample& s : per_client) {
      if (s.ok) model.InsertAfter(s.target, s.id);
    }
  }
  const std::vector<uint64_t> expected = model.InsertedInOrder(original_nodes);
  const Result<std::vector<uint64_t>> notes = conns[0]->Query("//note");
  report.Check(notes.ok() && *notes == expected,
               "final //note order differs from the ordered-list model");
  const Result<std::vector<uint64_t>> served = conns[0]->Query("//line");
  report.Check(served.ok() && std::equal(served->begin(), served->end(),
                                         lines.begin(), lines.end()),
               "//line ids differ from the generated document's lines");
  const cdbs::engine::XmlDbStats stats = stack.db->Stats();
  if (!skew) {
    report.Check(stats.relabeled_total == 0,
                 "uniform inserts relabeled " +
                     std::to_string(stats.relabeled_total) +
                     " existing nodes (Theorem 3.1 says none)");
  }
  Totals c1;
  if (traced) {
    SetTracing(false);
    c1 = Totals::Of(cdbs::obs::MetricRegistry::Default());
  }
  conns.clear();
  stack.Shutdown();
  report.Check(stack.db->underlying().labeling().num_nodes() ==
                   original_nodes + acked,
               "the database's node count differs from the acked inserts");
  double store_bytes = 0;
  double nodes = 0;
  const double recovery_ms =
      CloseAndReopenStores(&stack, &report, &store_bytes, &nodes);

  std::printf(
      "%s: %zu client(s), %.0f s; %s; %llu overflows; %llu inserts "
      "attempted, %llu failed; store %.0f B for %.0f nodes\n",
      o.workload.c_str(), clients, o.seconds,
      Describe("acked inserts", latency.ms).c_str(),
      static_cast<unsigned long long>(stats.overflow_events),
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), store_bytes, nodes);

  if (!traced) {
    AddEndToEnd(setup, acked_in_window / window_s,
                cpu_s * 1e6 / acked_in_window,
                acked_in_window == 0 ? 0
                                     : WriteBytes(w0, w1) / acked_in_window,
                store_bytes, nodes, &report);
    return report;
  }
  auto& v = facts->values;
  v["xml.generate_ms"] = setup.generate_ms.Median();
  v["engine.open_ms"] = setup.open_ms.Median();
  v["storage.recovery_ms"] = recovery_ms;
  v["obs.tracing_overhead_pct"] =
      TracingOverheadPct(latency.untraced_ms, latency.traced_ms);
  facts->op_p50_us = latency.untraced_ms.Median() * 1e3;
  // The replication log's WAL lives in the engine's own registry.
  const double repl_bytes = static_cast<double>(
      w1_db.Counter("wal.bytes_written") - w0_db.Counter("wal.bytes_written"));
  AddRegistryFacts(w0, w1, c0, c1, repl_bytes, acked_in_window,
                   acked_in_window, facts);
  return report;
}

// ---------------------------------------------------------------------
// d5-query-mixed: closed-loop readers beside an open-loop writer.

Report RunMixed(const Options& o, LayerFacts* facts) {
  Report report;
  const bool traced = facts != nullptr;

  // Reference answers and write targets, from a corpus generated apart from
  // the one the stack serves.
  QueryCounts reference{};
  std::vector<std::vector<uint32_t>> lines_by_play;
  {
    const std::vector<cdbs::xml::Document> plays =
        cdbs::xml::GenerateShakespeareDataset();
    reference = WalkQueryCounts(plays);
    for (const cdbs::xml::Document& p : plays) {
      lines_by_play.push_back(RanksOfTag(p, "line"));
    }
  }
  report.Check(reference == Table3Counts(),
               "the reference walk disagrees with Table 3's counts");
  const std::vector<MixedWrite> stream =
      MixedWriterStream(lines_by_play, MixedWriterOps(o.seconds), o.seed);

  SetupSamples setup;
  Stack stack = SetUpRepeatedly(o, &setup);
  cdbs::shard::ShardedDb* sharded = stack.sharded.get();
  const uint16_t port = stack.server->port();
  std::vector<Reader> readers(kMixedReaders);
  for (size_t c = 0; c < kMixedReaders; ++c) {
    readers[c].client = Connect(port, o.seed * 16 + c);
  }
  std::unique_ptr<CdbsClient> writer = Connect(port, o.seed * 16 + 15);

  std::atomic<int> slice{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<size_t> ready{0};
  std::atomic<int64_t> start{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kMixedReaders; ++c) {
    threads.emplace_back([&, c] {
      Round(reference, -1, &readers[c]);
      ready.fetch_add(1);
      WaitFor(go);
      while (!stop.load()) Round(reference, slice.load(), &readers[c]);
    });
  }
  // The writer's inserts: slice (-1: warm-up), ok, latency from the due
  // time, and how late it was sent.
  struct Write {
    int slice;
    bool ok;
    int64_t latency_ns;
    int64_t late_ns;
  };
  std::vector<Write> writes;
  std::thread writer_thread([&] {
    auto insert = [&](const MixedWrite& w, int64_t due, int s) {
      const int64_t sent = NowNs();
      const auto r = writer->InsertAfterIn(
          w.doc, sharded->DocRoot(w.doc) + w.rank, kNoteTag);
      const int64_t from = due != 0 ? due : sent;
      writes.push_back({s, r.ok(), NowNs() - from, sent - from});
    };
    for (size_t i = 0; i < kMixedWarmupWrites; ++i) insert(stream[i], 0, -1);
    ready.fetch_add(1);
    WaitFor(go);
    const int64_t t0 = start.load();
    for (size_t i = kMixedWarmupWrites; i < stream.size(); ++i) {
      // Open loop: each insert is due at its tick of the fixed rate and is
      // timed from then, so a stall also counts against the ones it delays.
      const int64_t due =
          t0 + static_cast<int64_t>(
                   static_cast<double>(i - kMixedWarmupWrites) * 1e9 /
                   kMixedWriterRate);
      SleepUntilNs(due);
      insert(stream[i], due, slice.load());
    }
  });
  WaitFor(ready, kMixedReaders + 1);
  const Totals w0 = Totals::Of(cdbs::obs::MetricRegistry::Default());
  const double cpu0 = ProcessCpuS();
  start.store(NowNs());
  go.store(true);
  RunWindow(o.seconds, traced, start.load(), &slice);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double read_window_s =
      static_cast<double>(NowNs() - start.load()) / 1e9;
  writer_thread.join();
  const double write_window_s =
      static_cast<double>(NowNs() - start.load()) / 1e9;
  const double cpu_s = ProcessCpuS() - cpu0;
  const Totals w1 = Totals::Of(cdbs::obs::MetricRegistry::Default());

  Latencies rounds;
  uint64_t total_rounds = 0;
  for (size_t c = 0; c < kMixedReaders; ++c) {
    const Reader& r = readers[c];
    report.attempted += r.ops;
    report.failed += r.failed;
    if (!r.unexpected.empty()) {
      report.Fail("reader " + std::to_string(c) + ": " + r.unexpected);
    }
    for (const auto& [s, ns] : r.rounds) {
      ++total_rounds;
      if (s >= 0) rounds.Add(s, ns);
    }
  }
  Latencies inserts;
  Samples late_ms;
  uint64_t acked_writes = 0;
  for (const Write& w : writes) {
    report.Check(w.ok, "a writer insert failed");
    if (!w.ok) continue;
    ++acked_writes;
    if (w.slice < 0) continue;
    inserts.Add(w.slice, w.latency_ns);
    late_ms.Add(static_cast<double>(w.late_ns) / 1e6);
  }
  const double acked_in_window = static_cast<double>(inserts.ms.size());

  Totals c0;
  if (traced) {
    facts->values["net.ping_us"] = MedianPingUs(readers[0].client.get());
    Samples count_all_ms;
    for (int round = 0; round < 5; ++round) {
      const int64_t t0 = NowNs();
      for (const std::string& q : cdbs::query::Table3Queries()) {
        report.Check(sharded->CountAll(q).ok(), "CountAll failed: " + q);
      }
      count_all_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
    }
    facts->values["shard.count_all_ms"] = count_all_ms.Median();
    for (uint32_t d = 0; d < sharded->doc_count(); ++d) {
      facts->shard_of_play.push_back(sharded->ShardOfDoc(d));
    }
    c0 = Totals::Of(cdbs::obs::MetricRegistry::Default());
    SetTracing(true);
  }
  // End-of-run checks through the stack: //note counts exactly the
  // acknowledged writes, and every write targeted a line.
  CdbsClient* client = readers[0].client.get();
  const auto notes = client->Count("//note");
  report.Check(notes.ok() && notes->total == acked_writes,
               "//note count differs from the " + std::to_string(acked_writes) +
                   " acknowledged writes");
  for (uint32_t d = 0; d < lines_by_play.size(); ++d) {
    const auto served = client->QueryDoc(d, "//line");
    bool same = served.ok() && served->size() == lines_by_play[d].size();
    for (size_t i = 0; same && i < served->size(); ++i) {
      same = (*served)[i] == sharded->DocRoot(d) + lines_by_play[d][i];
    }
    report.Check(same, "play " + std::to_string(d) +
                           ": //line ids differ from the generated lines");
  }
  Totals c1;
  if (traced) {
    SetTracing(false);
    c1 = Totals::Of(cdbs::obs::MetricRegistry::Default());
  }
  readers.clear();
  writer.reset();
  double store_bytes = 0;
  double nodes = 0;
  const double recovery_ms =
      CloseAndReopenStores(&stack, &report, &store_bytes, &nodes);

  std::printf(
      "%s: %.0f s; %s (%llu with warm-up, %.2f rounds/s); %llu query ops "
      "attempted, %llu failed (Q4's known fault: %llu, reference %llu); "
      "writer: %s of %zu sent (%.2f/s), sent late by p50 %.3f ms / max "
      "%.3f ms\n",
      o.workload.c_str(), o.seconds,
      Describe("Q1-Q6 rounds", rounds.ms).c_str(),
      static_cast<unsigned long long>(total_rounds),
      static_cast<double>(rounds.ms.size()) / read_window_s,
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      static_cast<unsigned long long>(kShardedQ4Answer),
      static_cast<unsigned long long>(reference[3]),
      Describe("acked inserts", inserts.ms).c_str(), stream.size(),
      acked_in_window / write_window_s, late_ms.Median(), late_ms.Max());

  if (!traced) {
    // Q1-Q6 queries per second: the readers run closed-loop with no think
    // time, so their whole window is busy.
    const double queries = 6.0 * static_cast<double>(rounds.ms.size());
    AddEndToEnd(setup, queries / read_window_s, cpu_s * 1e6 / queries,
                acked_in_window == 0 ? 0
                                     : WriteBytes(w0, w1) / acked_in_window,
                store_bytes, nodes, &report);
    return report;
  }
  auto& v = facts->values;
  v["xml.generate_ms"] = setup.generate_ms.Median();
  v["engine.open_ms"] = setup.open_ms.Median();
  v["storage.recovery_ms"] = recovery_ms;
  v["obs.tracing_overhead_pct"] =
      TracingOverheadPct(rounds.untraced_ms, rounds.traced_ms);
  facts->op_p50_us = rounds.untraced_ms.Median() * 1e3;
  AddRegistryFacts(w0, w1, c0, c1, /*repl_bytes=*/0,  // no replication log
                   acked_in_window,
                   acked_in_window +
                       6.0 * static_cast<double>(rounds.ms.size()),
                   facts);
  return report;
}

}  // namespace

const std::vector<std::string>& TraceStages() {
  static const std::vector<std::string> stages = [] {
    std::vector<std::string> out;
    for (int i = 1; i < cdbs::obs::kNumSpanNames; ++i) {
      out.push_back(cdbs::obs::SpanNameString(
          static_cast<cdbs::obs::SpanName>(i)));
    }
    return out;
  }();
  return stages;
}

Report RunEndToEnd(const Options& options, LayerFacts* facts) {
  SetTracing(false);
  return options.workload == kMixed ? RunMixed(options, facts)
                                    : RunInserts(options, facts);
}

}  // namespace perfbench
