// Randomized differential tests for BitString's dual representation
// (inline 64-bit word vs packed heap bytes): every operation is mirrored on
// a trivially-correct reference (std::string of '0'/'1') and must agree,
// especially across the 64-bit boundary where the representation switches.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_string.h"
#include "util/random.h"

namespace cdbs::core {
namespace {

int ReferenceCompare(const std::string& a, const std::string& b) {
  // Lexicographic with prefix-smaller — exactly Definition 3.1.
  if (a == b) return 0;
  return a < b ? -1 : 1;
}

TEST(BitStringFuzzTest, MirroredMutationsAgreeWithReference) {
  util::Random rng(20260707);
  for (int round = 0; round < 50; ++round) {
    BitString bits;
    std::string ref;
    for (int step = 0; step < 400; ++step) {
      const uint64_t op = rng.Uniform(10);
      if (op < 5) {  // append (biased: strings should grow past 64 bits)
        const bool v = rng.Bernoulli(0.5);
        bits.AppendBit(v);
        ref.push_back(v ? '1' : '0');
      } else if (op < 6 && !ref.empty()) {
        bits.PopBit();
        ref.pop_back();
      } else if (op < 7 && !ref.empty()) {
        const size_t i = rng.Uniform(ref.size());
        const bool v = rng.Bernoulli(0.5);
        bits.SetBit(i, v);
        ref[i] = v ? '1' : '0';
      } else if (op < 8 && !ref.empty()) {
        const size_t n = rng.Uniform(ref.size() + 1);
        bits.Truncate(n);
        ref.resize(n);
      } else {
        // Read checks.
        ASSERT_EQ(bits.size(), ref.size());
        ASSERT_EQ(bits.ToString(), ref);
        if (!ref.empty()) {
          const size_t i = rng.Uniform(ref.size());
          ASSERT_EQ(bits.bit(i), ref[i] == '1');
          ASSERT_EQ(bits.EndsWithOne(), ref.back() == '1');
        }
      }
    }
    ASSERT_EQ(bits.ToString(), ref);
  }
}

TEST(BitStringFuzzTest, ComparisonsAgreeAcrossRepresentations) {
  util::Random rng(99);
  // Build a pool straddling the inline/heap boundary.
  std::vector<BitString> pool;
  std::vector<std::string> refs;
  for (int i = 0; i < 120; ++i) {
    const size_t len = 50 + rng.Uniform(40);  // 50..89 bits
    BitString b;
    std::string r;
    for (size_t j = 0; j < len; ++j) {
      const bool v = rng.Bernoulli(0.5);
      b.AppendBit(v);
      r.push_back(v ? '1' : '0');
    }
    pool.push_back(std::move(b));
    refs.push_back(std::move(r));
  }
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = 0; j < pool.size(); ++j) {
      ASSERT_EQ(pool[i].Compare(pool[j]), ReferenceCompare(refs[i], refs[j]))
          << refs[i] << " vs " << refs[j];
      const bool ref_prefix =
          refs[i].size() <= refs[j].size() &&
          refs[j].compare(0, refs[i].size(), refs[i]) == 0;
      ASSERT_EQ(pool[i].IsPrefixOf(pool[j]), ref_prefix);
    }
  }
}

TEST(BitStringFuzzTest, TruncateAcrossBoundaryThenAppend) {
  // Grow to 100 bits (heap), truncate to below 64 (back inline), append
  // again: contents must be coherent throughout.
  util::Random rng(7);
  BitString b;
  std::string ref;
  for (int i = 0; i < 100; ++i) {
    const bool v = rng.Bernoulli(0.5);
    b.AppendBit(v);
    ref.push_back(v ? '1' : '0');
  }
  b.Truncate(40);
  ref.resize(40);
  ASSERT_EQ(b.ToString(), ref);
  for (int i = 0; i < 60; ++i) {
    const bool v = rng.Bernoulli(0.3);
    b.AppendBit(v);
    ref.push_back(v ? '1' : '0');
  }
  ASSERT_EQ(b.ToString(), ref);
  ASSERT_EQ(b.size(), 100u);
}

TEST(BitStringFuzzTest, HashAgreesWithEquality) {
  util::Random rng(5);
  std::vector<BitString> pool;
  for (int i = 0; i < 60; ++i) {
    const size_t len = rng.Uniform(80);
    BitString b;
    for (size_t j = 0; j < len; ++j) b.AppendBit(rng.Bernoulli(0.5));
    pool.push_back(std::move(b));
  }
  for (const BitString& a : pool) {
    for (const BitString& b : pool) {
      if (a == b) {
        ASSERT_EQ(a.Hash(), b.Hash());
      }
    }
  }
}

TEST(BitStringFuzzTest, PackedBytesMatchBits) {
  util::Random rng(17);
  for (const size_t len : {0u, 7u, 8u, 63u, 64u, 65u, 100u}) {
    BitString b;
    std::string ref;
    for (size_t j = 0; j < len; ++j) {
      const bool v = rng.Bernoulli(0.5);
      b.AppendBit(v);
      ref.push_back(v ? '1' : '0');
    }
    const std::vector<uint8_t> bytes = b.packed_bytes();
    ASSERT_EQ(bytes.size(), (len + 7) / 8);
    for (size_t i = 0; i < len; ++i) {
      const bool bit = (bytes[i / 8] >> (7 - i % 8)) & 1;
      ASSERT_EQ(bit, ref[i] == '1') << "len " << len << " bit " << i;
    }
    // Padding bits are zero.
    for (size_t i = len; i < bytes.size() * 8; ++i) {
      ASSERT_FALSE((bytes[i / 8] >> (7 - i % 8)) & 1);
    }
  }
}

}  // namespace
}  // namespace cdbs::core
