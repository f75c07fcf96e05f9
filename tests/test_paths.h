#ifndef CDBS_TESTS_TEST_PATHS_H_
#define CDBS_TESTS_TEST_PATHS_H_

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace cdbs::testing_util {

/// A fresh path under the test temp dir: `stem`, this process's pid and a
/// per-process sequence number. ctest runs every test in its own process,
/// and a sanitizer build lays the heap out the same way in each of them,
/// so a name built from an object address (or a fixed stem) collides
/// between tests that `ctest -j` runs at the same time; the pid does not.
inline std::string UniqueTempPath(const std::string& stem) {
  static std::atomic<uint64_t> sequence{0};
  return ::testing::TempDir() + "/" + stem + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(sequence.fetch_add(1));
}

}  // namespace cdbs::testing_util

#endif  // CDBS_TESTS_TEST_PATHS_H_
