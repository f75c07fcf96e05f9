#include "workloads.h"

#include <chrono>
#include <cmath>
#include <thread>

#include "xml/shakespeare.h"

namespace perfbench {

cdbs::xml::Document GenerateUniformPlay() {
  return cdbs::xml::GeneratePlay(/*seed=*/20060403, kUniformPlayNodes);
}

uint32_t SkewHotElement(const std::vector<uint32_t>& hamlet_lines,
                        uint64_t seed) {
  cdbs::util::Random rng(seed * 0x9e3779b97f4a7c15ull + 1);
  return hamlet_lines[rng.Uniform(hamlet_lines.size())];
}

UniformTargets::UniformTargets(const std::vector<uint32_t>& lines,
                               size_t client, size_t clients, uint64_t seed)
    : rng_(seed * 0x9e3779b97f4a7c15ull + 2 + client),
      think_(seed * 0x9e3779b97f4a7c15ull + 5 + client) {
  for (size_t i = client; i < lines.size(); i += clients) {
    own_.push_back(lines[i]);
  }
}

uint32_t UniformTargets::Next() { return own_[rng_.Uniform(own_.size())]; }

void UniformTargets::Think() {
  const double us = -std::log(1.0 - think_.NextDouble()) * kUniformThinkUs;
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<int64_t>(us * 1e3)));
}

size_t MixedWriterOps(double seconds) {
  return kMixedWarmupWrites +
         static_cast<size_t>(std::llround(kMixedWriterRate * seconds));
}

std::vector<MixedWrite> MixedWriterStream(
    const std::vector<std::vector<uint32_t>>& lines_by_play, size_t count,
    uint64_t seed) {
  std::vector<MixedWrite> flat;
  for (uint32_t d = 0; d < lines_by_play.size(); ++d) {
    for (const uint32_t rank : lines_by_play[d]) flat.push_back({d, rank});
  }
  cdbs::util::Random rng(seed * 0x9e3779b97f4a7c15ull + 3);
  std::vector<MixedWrite> stream;
  stream.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    stream.push_back(flat[rng.Uniform(flat.size())]);
  }
  return stream;
}

}  // namespace perfbench
