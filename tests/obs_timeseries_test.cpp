// Time-series ring and harvester tests: rollover bookkeeping, windowed
// counter rates / gauge extremes / histogram percentiles over synthetic
// timelines (including windows that span a rollover and reset-aware counter
// deltas), and the background Harvester's sampling lifecycle with hooks and
// trace-sink export.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace boxagg {
namespace obs {
namespace {

MetricSample CounterSample(const char* name, uint64_t v) {
  MetricSample m;
  m.name = name;
  m.kind = MetricSample::Kind::kCounter;
  m.counter = v;
  return m;
}

MetricSample GaugeSample(const char* name, int64_t v) {
  MetricSample m;
  m.name = name;
  m.kind = MetricSample::Kind::kGauge;
  m.gauge = v;
  return m;
}

MetricSample HistSample(const char* name, std::vector<double> bounds,
                        std::vector<uint64_t> counts, double sum) {
  MetricSample m;
  m.name = std::string(name);  // gcc 12 -Wrestrict false positive on = char*
  m.kind = MetricSample::Kind::kHistogram;
  m.hist.bounds = std::move(bounds);
  m.hist.counts = std::move(counts);
  for (uint64_t c : m.hist.counts) m.hist.count += c;
  m.hist.sum = sum;
  return m;
}

MetricsSnapshot SnapshotWith(std::vector<MetricSample> samples) {
  MetricsSnapshot s;
  s.samples = std::move(samples);
  return s;
}

constexpr uint64_t kSec = 1000000;  // microseconds

TEST(TimeSeriesRing, RolloverKeepsNewestAndCountsLifetime) {
  TimeSeriesRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (uint64_t t = 1; t <= 6; ++t) {
    ring.Add(t * kSec, SnapshotWith({CounterSample("c", t * 10)}));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_samples(), 6u);
  TimedSnapshot latest;
  ASSERT_TRUE(ring.Latest(&latest));
  EXPECT_EQ(latest.t_us, 6 * kSec);

  // A window wider than retention degrades to the oldest retained sample:
  // samples 1 and 2 were overwritten, so the span starts at t=3s.
  const WindowStats w = ring.Window(100 * kSec);
  ASSERT_TRUE(w.valid);
  EXPECT_EQ(w.t_begin_us, 3 * kSec);
  EXPECT_EQ(w.t_end_us, 6 * kSec);
  EXPECT_EQ(w.samples, 4u);
}

TEST(TimeSeriesRing, WindowCounterRates) {
  TimeSeriesRing ring(8);
  ring.Add(10 * kSec, SnapshotWith({CounterSample("c", 100)}));
  ring.Add(12 * kSec, SnapshotWith({CounterSample("c", 600)}));
  const WindowStats w = ring.Window(5 * kSec);
  ASSERT_TRUE(w.valid);
  const WindowStats::CounterWindow* c = w.FindCounter("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->delta, 500u);
  EXPECT_DOUBLE_EQ(c->rate_per_sec, 250.0);
  EXPECT_DOUBLE_EQ(w.SpanSeconds(), 2.0);
}

TEST(TimeSeriesRing, WindowCounterResetAware) {
  // The counter was Reset() between samples (set-to-current exporters do
  // this every batch): the delta is the post-reset value, not a wraparound.
  TimeSeriesRing ring(8);
  ring.Add(1 * kSec, SnapshotWith({CounterSample("c", 1000)}));
  ring.Add(3 * kSec, SnapshotWith({CounterSample("c", 40)}));
  const WindowStats w = ring.Window(10 * kSec);
  ASSERT_TRUE(w.valid);
  const WindowStats::CounterWindow* c = w.FindCounter("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->delta, 40u);
  EXPECT_DOUBLE_EQ(c->rate_per_sec, 20.0);
}

TEST(TimeSeriesRing, WindowGaugeExtremesScanEveryCoveredSample) {
  TimeSeriesRing ring(8);
  ring.Add(1 * kSec, SnapshotWith({GaugeSample("g", 5)}));
  ring.Add(2 * kSec, SnapshotWith({GaugeSample("g", -2)}));
  ring.Add(3 * kSec, SnapshotWith({GaugeSample("g", 9)}));
  ring.Add(4 * kSec, SnapshotWith({GaugeSample("g", 1)}));
  const WindowStats w = ring.Window(10 * kSec);
  ASSERT_TRUE(w.valid);
  const WindowStats::GaugeWindow* g = w.FindGauge("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->last, 1);
  EXPECT_EQ(g->min, -2);
  EXPECT_EQ(g->max, 9);
}

TEST(TimeSeriesRing, WindowHistogramDeltaAndPercentiles) {
  // Between the samples, 10 values landed in [0,10]: the window delta
  // isolates them from the 90 earlier recordings.
  TimeSeriesRing ring(8);
  ring.Add(1 * kSec,
           SnapshotWith({HistSample("h", {10.0, 100.0}, {0, 90, 0}, 4500)}));
  ring.Add(2 * kSec,
           SnapshotWith({HistSample("h", {10.0, 100.0}, {10, 90, 0}, 4550)}));
  const WindowStats w = ring.Window(10 * kSec);
  ASSERT_TRUE(w.valid);
  const WindowStats::HistogramWindow* h = w.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->delta.count, 10u);
  EXPECT_EQ(h->delta.counts, (std::vector<uint64_t>{10, 0, 0}));
  // All delta mass in [0,10]: percentiles interpolate inside that bucket.
  EXPECT_GT(h->p50, 0.0);
  EXPECT_LE(h->p50, 10.0);
  EXPECT_LE(h->p95, 10.0);
  EXPECT_LE(h->p99, 10.0);
}

TEST(TimeSeriesRing, WindowSpanningRolloverUsesRetainedHistory) {
  // Capacity 3, five samples: 1s and 2s are gone. A 100s window must not
  // pretend to cover them — it anchors at the oldest retained sample (3s)
  // and derives the rate over [3s, 5s].
  TimeSeriesRing ring(3);
  for (uint64_t t = 1; t <= 5; ++t) {
    ring.Add(t * kSec, SnapshotWith({CounterSample("c", t * 100)}));
  }
  const WindowStats w = ring.Window(100 * kSec);
  ASSERT_TRUE(w.valid);
  EXPECT_EQ(w.t_begin_us, 3 * kSec);
  EXPECT_EQ(w.samples, 3u);
  const WindowStats::CounterWindow* c = w.FindCounter("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->delta, 200u);  // 500 - 300
  EXPECT_DOUBLE_EQ(c->rate_per_sec, 100.0);
}

TEST(TimeSeriesRing, WindowAsOfBoundsBothEnds) {
  TimeSeriesRing ring(8);
  for (uint64_t t = 1; t <= 6; ++t) {
    ring.Add(t * kSec, SnapshotWith({CounterSample("c", t * 10)}));
  }
  // As-of 4s with a 2s duration: covers exactly [2s, 4s].
  const WindowStats w = ring.Window(2 * kSec, 4 * kSec);
  ASSERT_TRUE(w.valid);
  EXPECT_EQ(w.t_begin_us, 2 * kSec);
  EXPECT_EQ(w.t_end_us, 4 * kSec);
  EXPECT_EQ(w.samples, 3u);
  EXPECT_EQ(w.FindCounter("c")->delta, 20u);
}

TEST(TimeSeriesRing, WindowInvalidWithoutTwoDistinctTimes) {
  TimeSeriesRing ring(8);
  EXPECT_FALSE(ring.Window(kSec).valid);  // empty
  ring.Add(5 * kSec, SnapshotWith({CounterSample("c", 1)}));
  EXPECT_FALSE(ring.Window(kSec).valid);  // one sample
  ring.Add(5 * kSec, SnapshotWith({CounterSample("c", 2)}));
  EXPECT_FALSE(ring.Window(kSec).valid);  // two samples, zero span
  ring.Add(6 * kSec, SnapshotWith({CounterSample("c", 3)}));
  EXPECT_TRUE(ring.Window(2 * kSec).valid);
}

TEST(Harvester, SampleOnceRunsHooksThenSnapshots) {
  MetricsRegistry reg;
  reg.GetCounter("work")->Inc(7);
  Harvester harvester(&reg, {/*interval_us=*/kSec, /*ring_capacity=*/16});
  // The hook publishes a derived gauge; SampleOnce must run it before the
  // snapshot so the sample carries the level.
  harvester.AddSampleHook([&reg] { reg.GetGauge("derived")->Set(11); });
  harvester.SampleOnce();
  EXPECT_EQ(harvester.ring().size(), 1u);
  TimedSnapshot s;
  ASSERT_TRUE(harvester.ring().Latest(&s));
  ASSERT_NE(s.snap.Find("work"), nullptr);
  EXPECT_EQ(s.snap.Find("work")->counter, 7u);
  ASSERT_NE(s.snap.Find("derived"), nullptr);
  EXPECT_EQ(s.snap.Find("derived")->gauge, 11);
}

TEST(Harvester, BackgroundThreadSamplesAtInterval) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Inc();
  Harvester harvester(&reg, {/*interval_us=*/1000, /*ring_capacity=*/64});
  EXPECT_FALSE(harvester.running());
  harvester.Start();
  EXPECT_TRUE(harvester.running());
  // At a 1 ms period, a generous wait guarantees several samples without
  // making the test timing-sensitive.
  for (int spin = 0; spin < 200 && harvester.ring().size() < 3; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(harvester.ring().size(), 3u);
  harvester.Stop();
  EXPECT_FALSE(harvester.running());
  harvester.Stop();  // idempotent
  const uint64_t settled = harvester.ring().total_samples();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(harvester.ring().total_samples(), settled);
}

TEST(Harvester, WatchTraceSinkExportsRingGauges) {
  MetricsRegistry reg;
  RingBufferSink sink(8);
  TraceEvent ev;
  ev.name = "span";
  ev.structure = "test";
  ev.dur_us = 5;
  sink.Record(ev);
  Harvester harvester(&reg, {/*interval_us=*/kSec, /*ring_capacity=*/4});
  harvester.WatchTraceSink(&sink);
  harvester.SampleOnce();
  TimedSnapshot s;
  ASSERT_TRUE(harvester.ring().Latest(&s));
  const MetricSample* occ = s.snap.Find("trace.ring.occupancy");
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(occ->gauge, 1);
  const MetricSample* cap = s.snap.Find("trace.ring.capacity");
  ASSERT_NE(cap, nullptr);
  EXPECT_EQ(cap->gauge, 8);
  ASSERT_NE(s.snap.Find("trace.ring.dropped"), nullptr);
}

}  // namespace
}  // namespace obs
}  // namespace boxagg
