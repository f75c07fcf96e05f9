#include "core/qed.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace cdbs::core {
namespace {

TEST(QedValidityTest, EmptyIsValid) { EXPECT_TRUE(IsValidQedCode("")); }

TEST(QedValidityTest, MustEndWithTwoOrThree) {
  EXPECT_TRUE(IsValidQedCode("2"));
  EXPECT_TRUE(IsValidQedCode("3"));
  EXPECT_TRUE(IsValidQedCode("12"));
  EXPECT_TRUE(IsValidQedCode("113"));
  EXPECT_FALSE(IsValidQedCode("1"));
  EXPECT_FALSE(IsValidQedCode("21"));
  EXPECT_FALSE(IsValidQedCode("231"));
}

TEST(QedValidityTest, DigitsMustBeOneToThree) {
  EXPECT_FALSE(IsValidQedCode("02"));
  EXPECT_FALSE(IsValidQedCode("42"));
  EXPECT_FALSE(IsValidQedCode("2a"));
}

TEST(QedInsertTest, BothEmptyGivesTwo) {
  EXPECT_EQ(QedInsertBetween("", ""), "2");
}

TEST(QedInsertTest, InsertAfterLast) {
  EXPECT_EQ(QedInsertBetween("2", ""), "3");   // ...2 -> ...3
  EXPECT_EQ(QedInsertBetween("3", ""), "32");  // ...3 -> append 2
  EXPECT_EQ(QedInsertBetween("33", ""), "332");
}

TEST(QedInsertTest, InsertBeforeFirst) {
  EXPECT_EQ(QedInsertBetween("", "2"), "12");  // ...2 -> ...12
  EXPECT_EQ(QedInsertBetween("", "3"), "2");   // ...3 -> ...2
  EXPECT_EQ(QedInsertBetween("", "12"), "112");
}

TEST(QedInsertTest, EqualSizeDifferingOnlyAtLastDigit) {
  // x2 vs x3: bumping the left tail would collide with the right; append.
  EXPECT_EQ(QedInsertBetween("2", "3"), "22");
  EXPECT_EQ(QedInsertBetween("12", "13"), "122");
}

TEST(QedInsertTest, ModifiesAtMostOneDigitOfNeighbor) {
  // The paper: QED modifies the last 2 bits (one quaternary digit) of a
  // neighbour, possibly appending one digit.
  const QedCode mid = QedInsertBetween("223", "23");
  EXPECT_EQ(mid, "2232");
  EXPECT_LT(QedCode("223"), mid);
  EXPECT_LT(mid, QedCode("23"));
}

class QedInsertPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QedInsertPropertyTest, MiddleExistsBetweenAllAdjacentCodes) {
  const auto codes = QedEncodeRange(GetParam());
  for (size_t i = 0; i + 1 < codes.size(); ++i) {
    const QedCode mid = QedInsertBetween(codes[i], codes[i + 1]);
    ASSERT_TRUE(IsValidQedCode(mid)) << mid;
    ASSERT_LT(codes[i], mid) << codes[i] << " !< " << mid;
    ASSERT_LT(mid, codes[i + 1]) << mid << " !< " << codes[i + 1];
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, QedInsertPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 8, 18, 100, 1000));

TEST(QedEncodeRangeTest, ProducesOrderedValidCodes) {
  for (const uint64_t n : {1u, 2u, 5u, 18u, 333u, 5000u}) {
    const auto codes = QedEncodeRange(n);
    ASSERT_EQ(codes.size(), n);
    std::set<QedCode> unique;
    for (size_t i = 0; i < codes.size(); ++i) {
      ASSERT_TRUE(IsValidQedCode(codes[i])) << codes[i];
      ASSERT_FALSE(codes[i].empty());
      unique.insert(codes[i]);
      if (i > 0) {
        ASSERT_LT(codes[i - 1], codes[i]);
      }
    }
    EXPECT_EQ(unique.size(), n);
  }
}

TEST(QedEncodeRangeTest, BalancedLengths) {
  // Balanced ternary subdivision: at most ceil(log3-ish) digits. For 1000
  // codes the longest should be near log3(1000) ~ 7 digits.
  const auto codes = QedEncodeRange(1000);
  size_t max_len = 0;
  for (const QedCode& c : codes) max_len = std::max(max_len, c.size());
  EXPECT_LE(max_len, 9u);
}

TEST(QedEncodeRangeTest, LargerThanCdbsButSameOrderOfMagnitude) {
  // Section 6: QED completely avoids re-labeling but is not the most
  // compact — larger than V-CDBS, within a small constant factor.
  const uint64_t n = 4096;
  const auto codes = QedEncodeRange(n);
  uint64_t qed_bits = 0;
  for (const QedCode& c : codes) qed_bits += QedCodeBits(c);
  const double avg = static_cast<double>(qed_bits) / static_cast<double>(n);
  // V-CDBS average is ~log2(n) - 1 = 11 bits here.
  EXPECT_GT(avg, 11.0);
  EXPECT_LT(avg, 2.2 * 11.0);
}

TEST(QedDynamicTest, RandomInsertionsPreserveOrder) {
  util::Random rng(99);
  std::vector<QedCode> codes = QedEncodeRange(10);
  for (int step = 0; step < 2000; ++step) {
    const size_t pos = rng.Uniform(codes.size() + 1);
    const QedCode left = pos == 0 ? QedCode() : codes[pos - 1];
    const QedCode right = pos == codes.size() ? QedCode() : codes[pos];
    const QedCode mid = QedInsertBetween(left, right);
    ASSERT_TRUE(IsValidQedCode(mid));
    if (!left.empty()) {
      ASSERT_LT(left, mid);
    }
    if (!right.empty()) {
      ASSERT_LT(mid, right);
    }
    codes.insert(codes.begin() + static_cast<ptrdiff_t>(pos), mid);
  }
  EXPECT_TRUE(std::is_sorted(codes.begin(), codes.end()));
}

TEST(QedDynamicTest, SkewedInsertionNeverNeedsRelabel) {
  // Unlike V-CDBS with its fixed length field, QED has no overflow point:
  // 10k insertions at one place still yield valid ordered codes.
  QedCode left = "2";
  const QedCode right = "3";
  for (int i = 0; i < 10000; ++i) {
    const QedCode mid = QedInsertBetween(left, right);
    ASSERT_TRUE(IsValidQedCode(mid));
    ASSERT_LT(left, mid);
    ASSERT_LT(mid, right);
    left = mid;
  }
}

TEST(QedInsertTwoTest, OrderedPair) {
  const auto [m1, m2] = QedInsertTwoBetween("2", "3");
  EXPECT_LT(QedCode("2"), m1);
  EXPECT_LT(m1, m2);
  EXPECT_LT(m2, QedCode("3"));
}

TEST(QedPackTest, RoundTrip) {
  const std::vector<QedCode> codes = {"2", "12", "332", "213", "3"};
  const auto bytes = QedPackSeparated(codes);
  EXPECT_EQ(QedUnpackSeparated(bytes), codes);
}

TEST(QedPackTest, SizeAccounting) {
  // Each digit is 2 bits plus a 2-bit separator per code.
  const std::vector<QedCode> codes = {"2", "12"};
  const auto bytes = QedPackSeparated(codes);
  // digits: 1 + 2 = 3, separators: 2, total 5 digits = 10 bits -> 2 bytes.
  EXPECT_EQ(bytes.size(), 2u);
}

TEST(QedPackTest, EmptyListYieldsEmptyBytes) {
  EXPECT_TRUE(QedPackSeparated({}).empty());
  EXPECT_TRUE(QedUnpackSeparated({}).empty());
}

TEST(QedPackTest, RoundTripLargeRandom) {
  const auto codes = QedEncodeRange(500);
  const auto bytes = QedPackSeparated(codes);
  EXPECT_EQ(QedUnpackSeparated(bytes), codes);
}

}  // namespace
}  // namespace cdbs::core
