// Unit tests for the common substrate: types, RNG, stats, tables, queues,
// strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <string>

#include "common/assert.h"
#include "common/fixed_queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/types.h"

namespace psllc {
namespace {

// --- types -----------------------------------------------------------------

TEST(Types, CoreIdComparisonAndValidity) {
  EXPECT_FALSE(kNoCore.valid());
  EXPECT_TRUE(CoreId{0}.valid());
  EXPECT_LT(CoreId{1}, CoreId{2});
  EXPECT_EQ(CoreId{3}, CoreId{3});
  EXPECT_EQ(to_string(CoreId{2}), "c2");
  EXPECT_EQ(to_string(kNoCore), "c?");
}

TEST(Types, AccessTypeHelpers) {
  EXPECT_TRUE(is_write(AccessType::kWrite));
  EXPECT_FALSE(is_write(AccessType::kRead));
  EXPECT_FALSE(is_write(AccessType::kIfetch));
}

TEST(Types, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(log2_exact(64), 6);
  EXPECT_EQ(log2_exact(1), 0);
}

// --- assertions ------------------------------------------------------------

TEST(Assert, ThrowsAssertionErrorWithContext) {
  try {
    PSLLC_ASSERT(1 == 2, "value was " << 42);
    FAIL() << "assert did not throw";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

// The failure path runs out of line, but its message still names the
// expression, the asserting file and line, and the streamed context.
TEST(Assert, FailureMessageNamesExpressionLocationAndContext) {
  const int line = __LINE__ + 2;
  try {
    PSLLC_ASSERT(2 + 2 == 5, "way " << 3 << " of " << 16);
    FAIL() << "assert did not throw";
  } catch (const AssertionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(2 + 2 == 5)"), std::string::npos) << what;
    EXPECT_NE(what.find(std::string(__FILE__) + ":" + std::to_string(line)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("way 3 of 16"), std::string::npos) << what;
  }
}

// The condition runs exactly once; the message operands only on failure.
TEST(Assert, EvaluatesConditionOnceAndMessageOnlyOnFailure) {
  int conditions = 0;
  int messages = 0;
  auto condition = [&conditions](bool result) {
    ++conditions;
    return result;
  };
  auto message = [&messages]() { return ++messages; };
  PSLLC_ASSERT(condition(true), "never formatted " << message());
  EXPECT_EQ(conditions, 1);
  EXPECT_EQ(messages, 0);
  EXPECT_THROW(PSLLC_ASSERT(condition(false), "formatted " << message()),
               AssertionError);
  EXPECT_EQ(conditions, 2);
  EXPECT_EQ(messages, 1);
}

// The macro is one statement: it can be the unbraced body of if / else.
TEST(Assert, WorksAsUnbracedIfElseBody) {
  int taken = 0;
  for (const bool flag : {true, false}) {
    if (flag)
      PSLLC_ASSERT(taken >= 0, "then branch");
    else
      PSLLC_ASSERT(taken >= 0, "else branch");
    ++taken;
  }
  EXPECT_EQ(taken, 2);
  bool threw = false;
  try {
    if (taken == 2)
      PSLLC_ASSERT(taken == 3, "taken is " << taken);
    else
      FAIL() << "else bound to the macro's own if";
  } catch (const AssertionError& e) {
    threw = std::string(e.what()).find("taken is 2") != std::string::npos;
  }
  EXPECT_TRUE(threw);
}

TEST(Assert, ConfigCheckThrowsConfigError) {
  EXPECT_THROW(PSLLC_CONFIG_CHECK(false, "bad config"), ConfigError);
}

// PSLLC_AUDIT evaluates (and can throw) only in audit builds; elsewhere the
// condition must not even be evaluated.
TEST(Assert, AuditMatchesBuildMode) {
  int evaluations = 0;
  auto probe = [&evaluations]() {
    ++evaluations;
    return true;
  };
  PSLLC_AUDIT(probe(), "side-effect probe");
  EXPECT_EQ(evaluations, audit_enabled() ? 1 : 0);
  if (audit_enabled()) {
    EXPECT_THROW(PSLLC_AUDIT(false, "audit fires in audit builds"),
                 AssertionError);
  } else {
    EXPECT_NO_THROW(PSLLC_AUDIT(false, "compiled out"));
  }
}

// --- RNG --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    seen.insert(rng.next_below(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo = hit_lo || v == -3;
    hit_hi = hit_hi || v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    hits += rng.next_bool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(Rng, MixSeedSeparatesStreams) {
  EXPECT_NE(mix_seed(1, 2, 3), mix_seed(1, 2, 4));
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 1));
  EXPECT_EQ(mix_seed(1, 2, 3), mix_seed(1, 2, 3));
}

// --- stats -------------------------------------------------------------------

TEST(Summary, TracksMinMaxMeanCount) {
  Summary s;
  for (std::int64_t v : {5, -2, 9, 0}) {
    s.add(v);
  }
  EXPECT_EQ(s.count(), 4);
  EXPECT_EQ(s.min(), -2);
  EXPECT_EQ(s.max(), 9);
  EXPECT_EQ(s.sum(), 12);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Summary, MergeCombines) {
  Summary a;
  a.add(1);
  a.add(5);
  Summary b;
  b.add(-7);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.min(), -7);
  EXPECT_EQ(a.max(), 5);
  Summary empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 3);
}

TEST(Summary, EmptyAccessorsThrow) {
  Summary s;
  EXPECT_THROW((void)s.min(), AssertionError);
  EXPECT_THROW((void)s.max(), AssertionError);
  EXPECT_THROW((void)s.mean(), AssertionError);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(100, 10);  // buckets of width 10 + overflow
  h.add(0);
  h.add(9);
  h.add(10);
  h.add(99);
  h.add(100);   // overflow
  h.add(5000);  // overflow
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(9), 1);
  EXPECT_EQ(h.bucket(10), 2);  // overflow bucket
  EXPECT_EQ(h.summary().count(), 6);
  EXPECT_EQ(h.summary().max(), 5000);
}

TEST(Histogram, QuantileApproximation) {
  Histogram h(1000, 100);
  for (int i = 0; i < 1000; ++i) {
    h.add(i);
  }
  EXPECT_NEAR(static_cast<double>(h.approx_quantile(0.5)), 500.0, 20.0);
  EXPECT_NEAR(static_cast<double>(h.approx_quantile(0.99)), 990.0, 20.0);
}

// --- table --------------------------------------------------------------------

TEST(Table, TextRenderingAligns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_NE(text.find("value"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"k", "v"});
  t.add_row({"with,comma", "with\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, RowSizeMismatchAsserts) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), AssertionError);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_cycles(979250), "979,250");
  EXPECT_EQ(format_cycles(-1234), "-1,234");
  EXPECT_EQ(format_cycles(42), "42");
}

// --- fixed queue -----------------------------------------------------------------

TEST(FixedQueue, FifoOrder) {
  FixedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  q.push(4);
  q.push(5);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 4);
  EXPECT_EQ(q.pop(), 5);
  EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, CapacityEnforced) {
  FixedQueue<int> q(2);
  q.push(1);
  q.push(2);
  EXPECT_TRUE(q.full());
  EXPECT_THROW(q.push(3), AssertionError);
  EXPECT_EQ(q.pop(), 1);
  q.push(3);  // wraps around
  EXPECT_EQ(q.at(0), 2);
  EXPECT_EQ(q.at(1), 3);
}

TEST(FixedQueue, EraseAtPreservesOrder) {
  FixedQueue<int> q(5);
  for (int i = 1; i <= 5; ++i) {
    q.push(i);
  }
  q.erase_at(2);  // remove 3
  EXPECT_EQ(q.size(), 4);
  EXPECT_EQ(q.at(0), 1);
  EXPECT_EQ(q.at(1), 2);
  EXPECT_EQ(q.at(2), 4);
  EXPECT_EQ(q.at(3), 5);
  q.erase_at(0);  // remove head
  EXPECT_EQ(q.front(), 2);
}

TEST(FixedQueue, FindIf) {
  FixedQueue<int> q(4);
  q.push(10);
  q.push(20);
  EXPECT_EQ(q.find_if([](int v) { return v == 20; }), 1);
  EXPECT_EQ(q.find_if([](int v) { return v == 99; }), -1);
}

TEST(FixedQueue, EmptyAccessorsAssert) {
  FixedQueue<int> q(2);
  EXPECT_THROW(q.pop(), AssertionError);
  EXPECT_THROW((void)q.front(), AssertionError);
  EXPECT_THROW((void)q.at(0), AssertionError);
}

// Random push/pop/erase_at sequences against a std::deque, at capacities
// small enough that head and tail cross the end of the ring many times:
// every index the queue wraps (at, at_mut, erase_at's shifts, the tail it
// recomputes) must name the same element as the reference.
TEST(FixedQueue, WrapMatchesDequeReference) {
  Rng rng(2718);
  for (int capacity = 1; capacity <= 5; ++capacity) {
    FixedQueue<int> q(capacity);
    std::deque<int> reference;
    int next_value = 0;
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.next_below(3);
      if (op == 0 && !q.full()) {
        q.push(next_value);
        reference.push_back(next_value);
        ++next_value;
      } else if (op == 1 && !q.empty()) {
        EXPECT_EQ(q.pop(), reference.front());
        reference.pop_front();
      } else if (op == 2 && !q.empty()) {
        const int i = static_cast<int>(rng.next_below(reference.size()));
        q.erase_at(i);
        reference.erase(reference.begin() + i);
      }
      ASSERT_EQ(q.size(), static_cast<int>(reference.size()))
          << "capacity " << capacity << " step " << step;
      EXPECT_EQ(q.full(), static_cast<int>(reference.size()) == capacity);
      for (int i = 0; i < q.size(); ++i) {
        ASSERT_EQ(q.at(i), reference[static_cast<std::size_t>(i)])
            << "capacity " << capacity << " step " << step << " index " << i;
        ASSERT_EQ(&q.at_mut(i), &q.at(i));
      }
      if (!reference.empty()) {
        EXPECT_EQ(q.front(), reference.front());
        const int probe = reference[rng.next_below(reference.size())];
        const auto it = std::find(reference.begin(), reference.end(), probe);
        EXPECT_EQ(q.find_if([probe](int v) { return v == probe; }),
                  static_cast<int>(it - reference.begin()));
      }
      EXPECT_EQ(q.find_if([](int v) { return v < 0; }), -1);
    }
    EXPECT_GT(next_value, 4 * capacity) << "too few wraps at " << capacity;
  }
}

// --- strings -----------------------------------------------------------------------

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtil, TrimWhitespace) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
}

TEST(StringUtil, ParseU64DecimalAndHex) {
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("0x2A"), 42u);
  EXPECT_EQ(parse_u64(" 7 "), 7u);
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("0x").has_value());
  EXPECT_FALSE(parse_u64("12z").has_value());
}

TEST(StringUtil, ParseI64) {
  EXPECT_EQ(parse_i64("-5"), -5);
  EXPECT_EQ(parse_i64("123"), 123);
  EXPECT_FALSE(parse_i64("abc").has_value());
}

TEST(StringUtil, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("NSS", "nss"));
  EXPECT_FALSE(iequals("SS", "NSS"));
}

}  // namespace
}  // namespace psllc
