// Self-tests of the benchmark's statistics and span accounting
// (appbench/stats.hpp). Exits non-zero on the first failed expectation.
//
//   ctest --test-dir appbench/.build      or   appbench/.build/appbench_stats_test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

using namespace appbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_median() {
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({7.0}) == 7.0, "median of one value");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd count: middle value");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even count: mean of middle two");
  expect(median({5.0, 5.0, 1.0, 9.0}) == 5.0, "duplicates in the middle");
}

void test_percentile() {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(201.0 - i);  // 200..1, unsorted
  expect(percentile(v, 50.0) == 100.0, "p50 of 1..200 is the 100th value");
  expect(percentile(v, 95.0) == 190.0, "p95 of 1..200 is the 190th value");
  expect(percentile(v, 99.0) == 198.0, "p99 of 1..200 is the 198th value");
  expect(percentile(v, 100.0) == 200.0, "p100 is the maximum");
  expect(percentile({4.0}, 95.0) == 4.0, "percentile of one value");
  expect(percentile({}, 50.0) == 0.0, "percentile of nothing is 0");
}

void test_sample_counts() {
  expect(samples_beyond(200, 95.0) == 10, "200 samples: 10 beyond p95");
  expect(samples_beyond(199, 95.0) == 9, "199 samples: 9 beyond p95");
  expect(samples_beyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  expect(samples_beyond(10, 50.0) == 5, "10 samples: 5 beyond the median");
  expect(samples_beyond(0, 50.0) == 0, "no samples, none beyond");
}

void test_highest_supported_percentile() {
  expect(highest_supported_percentile(19) == 0.0, "19 samples: none supported");
  expect(highest_supported_percentile(20) == 50.0, "20 samples: the median");
  expect(highest_supported_percentile(100) == 90.0, "100 samples: p90");
  expect(highest_supported_percentile(199) == 90.0, "199 samples: still p90");
  expect(highest_supported_percentile(200) == 95.0, "200 samples: p95");
  expect(highest_supported_percentile(1000) == 99.0, "1000 samples: p99");
  expect(highest_supported_percentile(10000) == 99.9, "10000 samples: p99.9");
}

void test_reservoir() {
  Reservoir small(8);
  for (int i = 0; i < 5; ++i) small.add(i);
  expect(small.seen() == 5 && small.samples().size() == 5,
         "under capacity: every value kept");
  expect(median(small.samples()) == 2.0, "under capacity: exact median");

  Reservoir big(1000, 7);
  for (int i = 0; i < 100000; ++i) big.add(i);
  expect(big.seen() == 100000, "seen counts every value");
  expect(big.samples().size() == 1000, "over capacity: size stays bounded");
  const double m = median(big.samples());
  expect(m > 45000.0 && m < 55000.0, "over capacity: sample median is unbiased");

  Reservoir again(1000, 7);
  for (int i = 0; i < 100000; ++i) again.add(i);
  expect(again.samples() == big.samples(), "same seed, same sample");
}

// A scripted clock: each read returns the next value.
std::vector<double> script;
std::size_t next_tick = 0;
double scripted_clock() { return script.at(next_tick++); }

void test_span_self_time() {
  // step [0, 10] contains submit [1, 3] and acquire [4, 9]; the acquire
  // contains a nested prefetch [5, 6]. Self times: step 10-2-5 = 3,
  // submit 2, acquire 5-1 = 4, prefetch 1; they sum to the step's 10.
  script = {0, 1, 3, 4, 5, 6, 9, 10};
  next_tick = 0;
  Spans spans(true, &scripted_clock);
  {
    Span step(spans, Layer::kStep);
    { Span submit(spans, Layer::kSubmit); }
    {
      Span acquire(spans, Layer::kAcquire);
      { Span prefetch(spans, Layer::kPrefetch); }
    }
  }
  expect(near(spans.stats(Layer::kStep).total_s, 10.0), "step duration");
  expect(near(spans.stats(Layer::kStep).self_s, 3.0), "step self time");
  expect(near(spans.stats(Layer::kSubmit).self_s, 2.0), "leaf self = duration");
  expect(near(spans.stats(Layer::kAcquire).total_s, 5.0), "acquire duration");
  expect(near(spans.stats(Layer::kAcquire).self_s, 4.0), "acquire self time");
  expect(near(spans.stats(Layer::kPrefetch).self_s, 1.0), "nested leaf");
  expect(near(spans.total_self_s(), 10.0), "self times sum to the root");
  expect(spans.stats(Layer::kSubmit).count == 1, "span count");
  expect(spans.stats(Layer::kAcquire).samples_s.size() == 1, "one sample");

  Spans off(false, &scripted_clock);
  next_tick = 0;
  { Span step(off, Layer::kStep); }
  expect(next_tick == 0, "a disabled recorder never reads the clock");
  expect(off.stats(Layer::kStep).count == 0, "a disabled recorder records nothing");
}

}  // namespace

int main() {
  test_median();
  test_percentile();
  test_sample_counts();
  test_highest_supported_percentile();
  test_reservoir();
  test_span_self_time();
  if (failures == 0) std::printf("appbench stats: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
