// The serving-stack benchmark (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>
//   perfbench --print-reference
//
// Prints a human-readable account of the run, then, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 the
// per-layer metrics. Exits non-zero, without the JSON line, when the stack
// cannot be set up or the arguments are wrong.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>

#include "common.h"
#include "layers.h"
#include "reference.h"
#include "stack.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <%s|%s|%s> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir>\n"
               "       perfbench --print-reference\n",
               why, perfbench::kSkew, perfbench::kUniform, perfbench::kMixed);
  return 64;
}

bool ParseUint(std::string_view text, uint64_t* out) {
  const auto res = std::from_chars(text.data(), text.data() + text.size(), *out);
  return res.ec == std::errc() && res.ptr == text.data() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--print-reference") {
      perfbench::PrintReference();
      return 0;
    }
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const std::string_view value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &o.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n == 0 || n > 600) {
        return Usage("bad --seconds");
      }
      o.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (o.workload != perfbench::kSkew && o.workload != perfbench::kUniform &&
      o.workload != perfbench::kMixed) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || !have_trace || o.workdir.empty()) {
    return Usage("--seed, --seconds, --trace and --workdir are required");
  }
  std::filesystem::remove_all(o.workdir);
  std::filesystem::create_directories(o.workdir);

  perfbench::LayerFacts facts;
  perfbench::Report report =
      perfbench::RunEndToEnd(o, o.trace ? &facts : nullptr);
  if (o.trace) report = perfbench::RunLayers(o, facts, report);
  std::filesystem::remove_all(o.workdir);

  if (!o.trace) {
    std::printf("\nEnd-to-end metrics (%s, seed %llu, tracing off)\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed));
    for (const perfbench::Metric& m : report.metrics) {
      std::printf("  %-26s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& e : report.errors) {
    std::printf("check failed: %s\n", e.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
