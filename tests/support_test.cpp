//===- tests/support_test.cpp - support library tests ---------------------===//

#include "support/Env.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

using namespace pbt;

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng Gen(7);
  for (uint64_t Bound : {1ULL, 2ULL, 10ULL, 1000ULL})
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(Gen.nextBelow(Bound), Bound);
}

TEST(Rng, NextBelowCoversValues) {
  Rng Gen(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 400; ++I)
    Seen.insert(Gen.nextBelow(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng Gen(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 500; ++I) {
    int64_t V = Gen.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, NextDoubleUnit) {
  Rng Gen(11);
  double Sum = 0;
  for (int I = 0; I < 2000; ++I) {
    double V = Gen.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
    Sum += V;
  }
  EXPECT_NEAR(Sum / 2000, 0.5, 0.05);
}

TEST(Rng, NextBoolProbability) {
  Rng Gen(13);
  int True30 = 0;
  for (int I = 0; I < 5000; ++I)
    True30 += Gen.nextBool(0.3);
  EXPECT_NEAR(True30 / 5000.0, 0.3, 0.03);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng Parent(5);
  Rng A = Parent.split(1);
  Rng B = Parent.split(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(SplitMix, KnownSequenceDeterministic) {
  SplitMix64 A(123), B(123);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_NE(A.next(), B.next() + 1);
}

TEST(Statistics, SummarizeEmpty) {
  BoxSummary Box = summarize({});
  EXPECT_EQ(Box.Count, 0u);
  EXPECT_EQ(Box.Median, 0.0);
}

TEST(Statistics, SummarizeSingle) {
  BoxSummary Box = summarize({3.5});
  EXPECT_EQ(Box.Count, 1u);
  EXPECT_EQ(Box.Min, 3.5);
  EXPECT_EQ(Box.Max, 3.5);
  EXPECT_EQ(Box.Median, 3.5);
}

TEST(Statistics, SummarizeQuartiles) {
  BoxSummary Box = summarize({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(Box.Min, 1);
  EXPECT_DOUBLE_EQ(Box.Q1, 2);
  EXPECT_DOUBLE_EQ(Box.Median, 3);
  EXPECT_DOUBLE_EQ(Box.Q3, 4);
  EXPECT_DOUBLE_EQ(Box.Max, 5);
  EXPECT_DOUBLE_EQ(Box.Mean, 3);
}

TEST(Statistics, SummarizeUnsortedInput) {
  BoxSummary Box = summarize({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(Box.Median, 3);
}

TEST(Statistics, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({2, 4, 6}), 4);
  EXPECT_DOUBLE_EQ(mean({}), 0);
  EXPECT_DOUBLE_EQ(stddev({5}), 0);
  EXPECT_NEAR(stddev({2, 4, 6}), 2.0, 1e-12);
}

TEST(Statistics, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.5), 5);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.0), 0);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 1.0), 10);
}

TEST(Statistics, PercentileInterpolatesLinearly) {
  // Type-7 linear interpolation between order statistics, like
  // quantile() (the numpy default): pos = (p/100) * (n - 1).
  std::vector<double> V = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(V, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 30);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(V, 25), 20);
  EXPECT_DOUBLE_EQ(percentile(V, 95), 48); // pos 3.8 -> 40 + 0.8*10.
  EXPECT_DOUBLE_EQ(percentile(V, 99), 49.6);
  // Unsorted input is sorted internally; a single sample is every
  // percentile of itself.
  EXPECT_DOUBLE_EQ(percentile({9, 1, 5}, 50), 5);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
  // Agrees with quantile() exactly (one shared definition).
  EXPECT_DOUBLE_EQ(percentile({0, 10}, 37.5), quantile({0, 10}, 0.375));
}

TEST(Statistics, PercentileDeterministicAcrossCalls) {
  std::vector<double> V;
  for (int I = 99; I >= 0; --I)
    V.push_back(0.25 * I);
  double A = percentile(V, 95);
  double B = percentile(V, 95);
  EXPECT_DOUBLE_EQ(A, B);
  EXPECT_DOUBLE_EQ(A, 0.25 * 94.05);
}

TEST(Statistics, Geomean) {
  EXPECT_NEAR(geomean({1, 100}), 10, 1e-9);
  EXPECT_DOUBLE_EQ(geomean({}), 0);
}

TEST(Table, RendersHeaderRuleRows) {
  Table T({"a", "bb"});
  T.addRow({"1", "2"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("a"), std::string::npos);
  EXPECT_NE(Out.find("---"), std::string::npos);
  EXPECT_NE(Out.find("1"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table T({"a", "b", "c"});
  T.addRow({"only"});
  EXPECT_NE(T.render().find("only"), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmtInt(33636), "33,636");
  EXPECT_EQ(Table::fmtInt(-1234567), "-1,234,567");
  EXPECT_EQ(Table::fmtInt(7), "7");
}

TEST(Env, ScaleDefaultsAndClamps) {
  unsetenv("PBT_SCALE");
  unsetenv("PBT_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(envScale(1.0), 1.0);
  setenv("PBT_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(envScale(), 0.5);
  setenv("PBT_SCALE", "bogus", 1);
  EXPECT_DOUBLE_EQ(envScale(2.0), 2.0);
  // strtod parses "nan", which slips past every range comparison.
  setenv("PBT_SCALE", "nan", 1);
  EXPECT_DOUBLE_EQ(envScale(2.0), 2.0);
  setenv("PBT_SCALE", "-nan", 1);
  EXPECT_DOUBLE_EQ(envScale(2.0), 2.0);
  setenv("PBT_SCALE", "0.0001", 1);
  EXPECT_DOUBLE_EQ(envScale(), 0.01);
  setenv("PBT_SCALE", "1000", 1);
  EXPECT_DOUBLE_EQ(envScale(), 100);
  // PBT_BENCH_SCALE is the primary name and wins over the legacy alias.
  setenv("PBT_BENCH_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(envScale(), 0.25);
  unsetenv("PBT_BENCH_SCALE");
  unsetenv("PBT_SCALE");
  setenv("PBT_BENCH_SCALE", "2", 1);
  EXPECT_DOUBLE_EQ(envScale(), 2.0);
  unsetenv("PBT_BENCH_SCALE");
}

TEST(Env, IntParsing) {
  setenv("PBT_TEST_INT", "42", 1);
  EXPECT_EQ(envInt("PBT_TEST_INT", 0), 42);
  EXPECT_EQ(envInt("PBT_TEST_MISSING", 9), 9);
  unsetenv("PBT_TEST_INT");
}
