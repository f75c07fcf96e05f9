// E3 — Table 3 + Figure 6: queries Q1-Q6 over D5 scaled up 10 times.
//
// The corpus is the Shakespeare stand-in replicated CDBS_SCALE times
// (default 10, as in the paper). For every scheme we report, per query, the
// number of matches (Table 3's right column) and the response time
// (Figure 6). Expected shape: Prime slowest by a wide margin (big-integer
// modular arithmetic); Float-point slow among containment schemes; CDBS
// containment fastest; QED-Prefix faster than OrdPath1/OrdPath2.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "labeling/registry.h"
#include "query/evaluator.h"
#include "query/tag_index.h"
#include "query/xpath.h"
#include "util/stopwatch.h"
#include "xml/shakespeare.h"

namespace {

using cdbs::labeling::LabelingScheme;
using cdbs::query::LabeledDocument;
using cdbs::query::ParseQuery;
using cdbs::query::Query;
using cdbs::query::Table3Queries;
using cdbs::xml::Document;

// The schemes Figure 6 plots.
const char* kSchemes[] = {
    "Prime",
    "OrdPath1-Prefix",
    "OrdPath2-Prefix",
    "QED-Prefix",
    "Float-point-Containment",
    "V-Binary-Containment",
    "F-Binary-Containment",
    "V-CDBS-Containment",
    "F-CDBS-Containment",
    "QED-Containment",
};

}  // namespace

int main() {
  const uint64_t scale = cdbs::bench::EnvKnob("CDBS_SCALE", 10);
  cdbs::bench::Heading("Building the scaled D5 corpus");
  auto build_phase = cdbs::bench::Phase("build_corpus");
  const std::vector<Document> base = cdbs::xml::GenerateShakespeareDataset();
  const std::vector<Document> corpus =
      cdbs::xml::ScaleDataset(base, static_cast<size_t>(scale));
  build_phase.StopAndRecord();
  uint64_t total_nodes = 0;
  for (const Document& doc : corpus) total_nodes += doc.node_count();
  std::printf("%zu files, %llu elements (scale x%llu)\n", corpus.size(),
              static_cast<unsigned long long>(total_nodes),
              static_cast<unsigned long long>(scale));

  std::vector<Query> queries;
  for (const std::string& text : Table3Queries()) {
    auto parsed = ParseQuery(text);
    if (!parsed.ok()) {
      std::printf("query parse failure: %s\n",
                  parsed.status().ToString().c_str());
      return 1;
    }
    queries.push_back(std::move(parsed).value());
  }

  cdbs::bench::Heading(
      "Table 3 / Figure 6: matches and response time (ms) per query");
  std::printf("%-26s %10s", "scheme", "label(s)");
  for (size_t q = 0; q < queries.size(); ++q) {
    std::printf("     Q%zu(ms)", q + 1);
  }
  std::printf("\n");

  std::vector<uint64_t> first_counts;  // every scheme must match these
  for (const char* scheme_name : kSchemes) {
    const std::unique_ptr<LabelingScheme> scheme =
        cdbs::labeling::SchemeByName(scheme_name);
    cdbs::util::Stopwatch label_timer;
    std::vector<std::unique_ptr<LabeledDocument>> labeled;
    labeled.reserve(corpus.size());
    {
      auto label_phase = cdbs::bench::Phase("label");
      for (const Document& doc : corpus) {
        labeled.push_back(std::make_unique<LabeledDocument>(doc, *scheme));
      }
    }
    const double label_seconds = label_timer.ElapsedSeconds();

    std::printf("%-26s %10.2f", scheme_name, label_seconds);
    std::fflush(stdout);
    std::vector<uint64_t> counts;
    for (const Query& query : queries) {
      auto query_phase = cdbs::bench::Phase("query");
      cdbs::util::Stopwatch timer;
      uint64_t matches = 0;
      for (const auto& doc : labeled) {
        matches += EvaluateQuery(query, *doc).size();
      }
      counts.push_back(matches);
      std::printf(" %10.1f", timer.ElapsedMillis());
      std::fflush(stdout);
    }
    std::printf("\n");
    if (!first_counts.empty() && counts != first_counts) {
      std::printf("%s: match counts differ from %s's\n", scheme_name,
                  kSchemes[0]);
      return 1;
    }
    if (first_counts.empty()) {
      first_counts = counts;
      std::printf("%-26s %10s", "  matches (all schemes)", "");
      for (const uint64_t c : counts) {
        std::printf(" %10llu", static_cast<unsigned long long>(c));
      }
      std::printf("\n%-26s %10s %10s %10s %10s %10s %10s %10s\n",
                  "  paper Table 3 counts", "", "370", "2690", "4240",
                  "184060", "309330", "1078330");
    }
  }
  std::printf(
      "\nexpected shape (paper Fig. 6): Prime slowest by far; Float-point "
      "slower than the other containment schemes; CDBS-Containment the "
      "fastest; QED-Prefix beats OrdPath1/OrdPath2.\n");
  cdbs::bench::DumpMetrics("fig6_query");
  return 0;
}
