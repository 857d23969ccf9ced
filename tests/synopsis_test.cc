#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "dur/codec.h"
#include "synopsis/ams.h"
#include "synopsis/count_min.h"
#include "synopsis/distinct.h"
#include "synopsis/exp_histogram.h"
#include "synopsis/gk_quantile.h"
#include "synopsis/histogram.h"
#include "synopsis/misra_gries.h"
#include "synopsis/reservoir.h"

namespace sqp {
namespace {

// --- Reservoir ---

TEST(ReservoirTest, KeepsEverythingUnderCapacity) {
  ReservoirSample r(100, 1);
  for (int i = 0; i < 50; ++i) r.Add(Value(static_cast<int64_t>(i)));
  EXPECT_EQ(r.sample().size(), 50u);
  EXPECT_EQ(r.seen(), 50u);
}

TEST(ReservoirTest, CapacityNeverExceeded) {
  ReservoirSample r(10, 2);
  for (int i = 0; i < 10000; ++i) r.Add(Value(static_cast<int64_t>(i)));
  EXPECT_EQ(r.sample().size(), 10u);
  EXPECT_EQ(r.seen(), 10000u);
}

TEST(ReservoirTest, UniformInclusionProbability) {
  // Each of 1000 items should land in a 100-slot reservoir ~10% of runs.
  int first_item_in = 0;
  const int runs = 400;
  for (int run = 0; run < runs; ++run) {
    ReservoirSample r(100, static_cast<uint64_t>(run));
    for (int i = 0; i < 1000; ++i) r.Add(Value(static_cast<int64_t>(i)));
    for (const Value& v : r.sample()) {
      if (v.AsInt() == 0) ++first_item_in;
    }
  }
  EXPECT_NEAR(first_item_in / static_cast<double>(runs), 0.1, 0.04);
}

TEST(ReservoirTest, MeanAndQuantileEstimates) {
  ReservoirSample r(2000, 3);
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) r.Add(Value(rng.NextDouble() * 100.0));
  EXPECT_NEAR(r.EstimateMean(), 50.0, 3.0);
  EXPECT_NEAR(r.EstimateQuantile(0.5), 50.0, 5.0);
  EXPECT_NEAR(r.EstimateQuantile(0.9), 90.0, 5.0);
}

TEST(ReservoirTest, ScaleUp) {
  ReservoirSample r(100, 4);
  for (int i = 0; i < 10000; ++i) r.Add(Value(static_cast<int64_t>(i)));
  // If 25 of 100 sampled values match, estimate 2500 matches overall.
  EXPECT_DOUBLE_EQ(r.ScaleUp(25), 2500.0);
}

// --- Histograms ---

TEST(EquiWidthTest, ExactOnUniformBuckets) {
  EquiWidthHistogram h(0.0, 100.0, 10);
  for (int i = 0; i < 1000; ++i) h.Add(static_cast<double>(i % 100));
  EXPECT_EQ(h.total(), 1000u);
  EXPECT_NEAR(h.EstimateRangeCount(0.0, 50.0), 500.0, 1.0);
  EXPECT_NEAR(h.EstimateSelectivity(20.0, 30.0), 0.1, 0.01);
}

TEST(EquiWidthTest, OutOfDomainClamps) {
  EquiWidthHistogram h(0.0, 10.0, 5);
  h.Add(-5.0);
  h.Add(100.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_NEAR(h.EstimateRangeCount(0.0, 10.0), 2.0, 1e-9);
}

TEST(EquiDepthTest, SkewedDataBetterThanEquiWidth) {
  // Heavily skewed data: 90% of mass in [0,1), rest in [1,100).
  Rng rng(6);
  std::vector<double> data;
  for (int i = 0; i < 20000; ++i) {
    data.push_back(rng.Bernoulli(0.9) ? rng.NextDouble()
                                      : 1.0 + rng.NextDouble() * 99.0);
  }
  EquiWidthHistogram ew(0.0, 100.0, 10);
  for (double v : data) ew.Add(v);
  auto ed = EquiDepthHistogram::Build(data, 10, data.size());
  ASSERT_TRUE(ed.ok());

  double truth = 0;
  for (double v : data) truth += (v < 0.5) ? 1 : 0;
  double ew_err = std::fabs(ew.EstimateRangeCount(0.0, 0.5) - truth);
  double ed_err = std::fabs(ed->EstimateRangeCount(0.0, 0.5) - truth);
  EXPECT_LT(ed_err, ew_err);
}

// --- Count-Min ---

TEST(CountMinTest, NeverUnderestimates) {
  CountMinSketch cm(256, 4, 1);
  std::unordered_map<int64_t, uint64_t> truth;
  Rng rng(7);
  ZipfGenerator zipf(1000, 1.1);
  for (int i = 0; i < 50000; ++i) {
    int64_t v = static_cast<int64_t>(zipf.Next(rng));
    cm.Add(Value(v));
    truth[v]++;
  }
  for (const auto& [v, c] : truth) {
    EXPECT_GE(cm.Estimate(Value(v)), c);
  }
}

TEST(CountMinTest, ErrorWithinEpsBound) {
  double eps = 0.01, delta = 0.01;
  CountMinSketch cm = CountMinSketch::FromError(eps, delta, 2);
  std::unordered_map<int64_t, uint64_t> truth;
  Rng rng(8);
  for (int i = 0; i < 100000; ++i) {
    int64_t v = static_cast<int64_t>(rng.Uniform(5000));
    cm.Add(Value(v));
    truth[v]++;
  }
  uint64_t bound = static_cast<uint64_t>(eps * static_cast<double>(cm.total()));
  int violations = 0;
  for (const auto& [v, c] : truth) {
    if (cm.Estimate(Value(v)) > c + bound) ++violations;
  }
  // Probability of violation <= delta per item.
  EXPECT_LT(violations, static_cast<int>(truth.size() / 20));
}

// --- AMS ---

TEST(AmsTest, F2EstimateClose) {
  AmsSketch ams(9, 32, 3);
  std::unordered_map<int64_t, int64_t> truth;
  Rng rng(9);
  ZipfGenerator zipf(200, 1.0);
  for (int i = 0; i < 20000; ++i) {
    int64_t v = static_cast<int64_t>(zipf.Next(rng));
    ams.Add(Value(v));
    truth[v]++;
  }
  double f2 = 0;
  for (const auto& [v, c] : truth) f2 += static_cast<double>(c) * c;
  EXPECT_NEAR(ams.EstimateF2() / f2, 1.0, 0.35);
}

TEST(AmsTest, JoinSizeEstimate) {
  AmsSketch a(9, 32, 4), b(9, 32, 4);  // Same seed: shared hash family.
  std::unordered_map<int64_t, int64_t> fa, fb;
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = static_cast<int64_t>(rng.Uniform(100));
    a.Add(Value(v));
    fa[v]++;
    int64_t w = static_cast<int64_t>(rng.Uniform(100));
    b.Add(Value(w));
    fb[w]++;
  }
  double truth = 0;
  for (const auto& [v, c] : fa) {
    truth += static_cast<double>(c) * static_cast<double>(fb[v]);
  }
  EXPECT_NEAR(AmsSketch::EstimateJoinSize(a, b) / truth, 1.0, 0.35);
}

// --- Distinct counters ---

TEST(FlajoletMartinTest, OrderOfMagnitude) {
  FlajoletMartin fm(64, 11);
  for (int i = 0; i < 20000; ++i) fm.Add(Value(static_cast<int64_t>(i)));
  double est = fm.Estimate();
  EXPECT_GT(est, 20000 * 0.5);
  EXPECT_LT(est, 20000 * 2.0);
}

TEST(HyperLogLogTest, AccurateAtScale) {
  HyperLogLog hll(12);
  for (int i = 0; i < 100000; ++i) hll.Add(Value(static_cast<int64_t>(i)));
  // Standard error ~1.04/sqrt(4096) ~ 1.6%.
  EXPECT_NEAR(hll.Estimate() / 100000.0, 1.0, 0.05);
}

TEST(HyperLogLogTest, DuplicatesDontInflate) {
  HyperLogLog hll(12);
  for (int rep = 0; rep < 50; ++rep) {
    for (int i = 0; i < 1000; ++i) hll.Add(Value(static_cast<int64_t>(i)));
  }
  EXPECT_NEAR(hll.Estimate() / 1000.0, 1.0, 0.1);
}

TEST(HyperLogLogTest, MergeEqualsUnion) {
  HyperLogLog a(12), b(12);
  for (int i = 0; i < 30000; ++i) a.Add(Value(static_cast<int64_t>(i)));
  for (int i = 20000; i < 60000; ++i) b.Add(Value(static_cast<int64_t>(i)));
  a.Merge(b);
  EXPECT_NEAR(a.Estimate() / 60000.0, 1.0, 0.05);
}

TEST(HyperLogLogTest, SmallRangeLinearCounting) {
  HyperLogLog hll(12);
  for (int i = 0; i < 100; ++i) hll.Add(Value(static_cast<int64_t>(i)));
  EXPECT_NEAR(hll.Estimate(), 100.0, 5.0);
}

// --- GK quantiles ---

class GkEpsTest : public ::testing::TestWithParam<double> {};

TEST_P(GkEpsTest, RankErrorWithinEps) {
  double eps = GetParam();
  GkQuantile gk(eps);
  Rng rng(12);
  std::vector<double> data;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextDouble() * 1000.0;
    gk.Add(v);
    data.push_back(v);
  }
  std::sort(data.begin(), data.end());
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    double est = gk.Query(q);
    // True rank of the estimate.
    auto it = std::lower_bound(data.begin(), data.end(), est);
    double rank = static_cast<double>(it - data.begin()) / n;
    EXPECT_NEAR(rank, q, 2.0 * eps) << "q=" << q << " eps=" << eps;
  }
  // Space is sublinear.
  EXPECT_LT(gk.summary_size(), static_cast<size_t>(n / 4));
}

INSTANTIATE_TEST_SUITE_P(Eps, GkEpsTest, ::testing::Values(0.1, 0.01, 0.005));

// Saved bytes of `sketch`.
template <typename Sketch>
std::string Saved(const Sketch& sketch) {
  dur::BufWriter w;
  sketch.Save(w);
  return w.Take();
}

// Restores `bytes` into `sketch`: on a refusal the sketch must be as it
// was.
template <typename Sketch>
bool Restores(Sketch& sketch, const std::string& bytes) {
  const std::string before = Saved(sketch);
  dur::BufReader r(bytes);
  const bool ok = sketch.Restore(r).ok();
  if (!ok) {
    EXPECT_EQ(Saved(sketch), before);
  }
  return ok;
}

// A GK state with eps 0.01 and the given (v, g, delta) entries.
std::string GkState(uint64_t n,
                    const std::vector<std::array<double, 3>>& entries) {
  dur::BufWriter w;
  w.F64(0.01);
  w.U64(n);
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.F64(e[0]);
    w.U64(static_cast<uint64_t>(e[1]));
    w.U64(static_cast<uint64_t>(e[2]));
  }
  return w.Take();
}

TEST(GkQuantileTest, RestoreRoundTripsAndRefusesHostileState) {
  GkQuantile gk(0.01);
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) gk.Add(rng.NextDouble() * 100.0);
  const std::string saved = Saved(gk);
  GkQuantile back(0.01);
  back.Add(42.0);
  ASSERT_TRUE(Restores(back, saved));
  EXPECT_EQ(back.n(), gk.n());
  EXPECT_EQ(Saved(back), saved);
  for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(back.Query(q), gk.Query(q)) << q;
  }

  GkQuantile target(0.01);
  target.Add(7.0);
  for (size_t n = 0; n < saved.size(); ++n) {
    ASSERT_FALSE(Restores(target, saved.substr(0, n))) << n;
  }
  GkQuantile other_eps(0.02);
  EXPECT_FALSE(Restores(other_eps, saved));
  EXPECT_TRUE(Restores(target, GkState(3, {{1, 1, 0}, {2, 2, 0}})));
  // Out of value order.
  EXPECT_FALSE(Restores(target, GkState(2, {{5, 1, 0}, {3, 1, 0}})));
  // Gaps that fall short of n, or pass it.
  EXPECT_FALSE(Restores(target, GkState(3, {{1, 1, 0}, {2, 1, 0}})));
  EXPECT_FALSE(Restores(target, GkState(2, {{1, 1, 0}, {2, 2, 0}})));
}

TEST(HyperLogLogTest, RestoreRoundTripsAndRefusesHostileState) {
  HyperLogLog hll(10);
  for (int64_t i = 0; i < 3000; ++i) hll.Add(Value(i));
  const std::string saved = Saved(hll);
  HyperLogLog back(10);
  back.Add(Value(int64_t{-1}));
  ASSERT_TRUE(Restores(back, saved));
  EXPECT_EQ(back.Estimate(), hll.Estimate());
  EXPECT_EQ(Saved(back), saved);

  HyperLogLog target(10);
  target.Add(Value("x"));
  for (size_t n = 0; n < saved.size(); ++n) {
    ASSERT_FALSE(Restores(target, saved.substr(0, n))) << n;
  }
  HyperLogLog other_precision(11);
  EXPECT_FALSE(Restores(other_precision, saved));
  // The largest rank of a precision-10 register is 64 - 10 + 1 = 55.
  std::string highest = saved;
  highest[1 + 17] = 55;
  EXPECT_TRUE(Restores(target, highest));
  std::string above = saved;
  above[1 + 17] = 56;
  EXPECT_FALSE(Restores(target, above));
}

TEST(GkQuantileTest, SmallerEpsMoreSpace) {
  GkQuantile coarse(0.1), fine(0.001);
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    double v = rng.NextDouble();
    coarse.Add(v);
    fine.Add(v);
  }
  EXPECT_LT(coarse.summary_size(), fine.summary_size());
}

// --- Misra-Gries ---

TEST(MisraGriesTest, GuaranteedHeavyHittersSurvive) {
  MisraGries mg(10);
  // Item 999 appears 3000 times of 12000 total (25% > 1/10).
  Rng rng(14);
  for (int i = 0; i < 12000; ++i) {
    if (i % 4 == 0) {
      mg.Add(Value(int64_t{999}));
    } else {
      mg.Add(Value(static_cast<int64_t>(rng.Uniform(5000))));
    }
  }
  EXPECT_GT(mg.Estimate(Value(int64_t{999})), 0u);
  // Undercount bounded by n/k.
  EXPECT_GE(mg.Estimate(Value(int64_t{999})) + mg.n() / mg.k(), 3000u);
  EXPECT_LE(mg.num_counters(), 10u);
}

TEST(MisraGriesTest, HeavyHittersQuery) {
  MisraGries mg(20);
  for (int i = 0; i < 1000; ++i) mg.Add(Value(int64_t{1}));
  for (int i = 0; i < 100; ++i) mg.Add(Value(static_cast<int64_t>(100 + i)));
  auto hh = mg.HeavyHitters(500);
  ASSERT_EQ(hh.size(), 1u);
  EXPECT_EQ(hh[0].first.AsInt(), 1);
}

// --- Exponential histogram ---

TEST(ExpHistogramTest, ExactForSmallCounts) {
  ExpHistogram eh(100, 0.5);
  for (int64_t t = 1; t <= 5; ++t) eh.Add(t);
  // All 5 events within window; oldest bucket size 1 -> subtract 0.
  EXPECT_NEAR(static_cast<double>(eh.Estimate(5)), 5.0, 1.0);
}

TEST(ExpHistogramTest, ExpiryRemovesOldEvents) {
  ExpHistogram eh(10, 0.2);
  for (int64_t t = 1; t <= 5; ++t) eh.Add(t);
  EXPECT_EQ(eh.Estimate(1000), 0u);
}

class ExpHistAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(ExpHistAccuracyTest, RelativeErrorBounded) {
  double eps = GetParam();
  const int64_t window = 1000;
  ExpHistogram eh(window, eps);
  Rng rng(15);
  std::vector<int64_t> events;
  int64_t now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += static_cast<int64_t>(rng.Uniform(3));
    eh.Add(now);
    events.push_back(now);
  }
  uint64_t truth = 0;
  for (int64_t t : events) {
    if (t > now - window) ++truth;
  }
  double est = static_cast<double>(eh.Estimate(now));
  EXPECT_NEAR(est / static_cast<double>(truth), 1.0, 2 * eps + 0.02);
  // Space: logarithmic-ish, far below the window's event count.
  EXPECT_LT(eh.num_buckets(), 40.0 / eps);
}

INSTANTIATE_TEST_SUITE_P(Eps, ExpHistAccuracyTest,
                         ::testing::Values(0.5, 0.1, 0.05));

}  // namespace
}  // namespace sqp
