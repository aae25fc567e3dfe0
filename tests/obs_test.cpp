// src/obs/ tests: the trace-ring seqlock contract (record/drain
// roundtrip, wrap-keeps-newest, sampling cadence, disabled no-ops, and a
// writers-vs-drain hammer that is TSan-clean by construction), Chrome
// trace JSON emission, ThreadTraceScope nesting, the metrics registry
// (counter/gauge/histogram semantics, histogram quantiles, pointer
// stability, Prometheus exposition), and OpProfile accumulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

TEST(ObsTrace, RecordDrainRoundtrip) {
  obs::TraceRecorder rec(64);
  rec.record(7, obs::SpanKind::kRequest, "request", 100, 50, 3);
  rec.record(7, obs::SpanKind::kQueue, "queue", 100, 20);
  rec.record(9, obs::SpanKind::kOp, "spmm", 130, 10, 2);

  const std::vector<obs::TraceEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by start time, longer spans first on ties (parents precede
  // children when lanes render).
  EXPECT_STREQ(events[0].name, "request");
  EXPECT_EQ(events[0].trace_id, 7u);
  EXPECT_EQ(events[0].ts_ns, 100);
  EXPECT_EQ(events[0].dur_ns, 50);
  EXPECT_EQ(events[0].arg, 3u);
  EXPECT_EQ(events[0].kind, obs::SpanKind::kRequest);
  EXPECT_STREQ(events[1].name, "queue");
  EXPECT_EQ(events[1].dur_ns, 20);
  EXPECT_STREQ(events[2].name, "spmm");
  EXPECT_EQ(events[2].trace_id, 9u);
  EXPECT_EQ(events[2].kind, obs::SpanKind::kOp);
  // One recording thread -> one ring; drain does not clear.
  EXPECT_EQ(rec.num_rings(), 1u);
  EXPECT_EQ(rec.drain().size(), 3u);
}

TEST(ObsTrace, FullRingOverwritesOldestKeepsNewest) {
  obs::TraceRecorder rec(4);
  for (std::int64_t i = 0; i < 10; ++i) {
    rec.record(1, obs::SpanKind::kOp, "op", /*ts_ns=*/i, /*dur_ns=*/1);
  }
  const std::vector<obs::TraceEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, static_cast<std::int64_t>(6 + i));
  }
}

TEST(ObsTrace, SamplesEveryNthRequestWithFreshIds) {
  obs::TraceRecorder rec(16);
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.sample(), 0u);  // disabled: one relaxed load, always 0

  rec.enable(3);
  EXPECT_TRUE(rec.enabled());
  EXPECT_EQ(rec.sample_every(), 3u);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 9; ++i) {
    const std::uint64_t id = rec.sample();
    if (i % 3 == 0) {
      EXPECT_NE(id, 0u) << "submit " << i;
      ids.push_back(id);
    } else {
      EXPECT_EQ(id, 0u) << "submit " << i;
    }
  }
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_LT(ids[0], ids[1]);  // fresh, monotonically increasing ids
  EXPECT_LT(ids[1], ids[2]);

  rec.disable();
  EXPECT_EQ(rec.sample(), 0u);
  // sample_every == 0 is clamped to "every request".
  rec.enable(0);
  EXPECT_EQ(rec.sample_every(), 1u);
  EXPECT_NE(rec.sample(), 0u);
}

TEST(ObsTrace, RecordWithIdZeroIsANoOp) {
  obs::TraceRecorder rec(16);
  rec.record(0, obs::SpanKind::kOp, "op", 1, 1);
  EXPECT_TRUE(rec.drain().empty());
  EXPECT_EQ(rec.num_rings(), 0u);  // no ring even gets registered
}

// Writers hammer their own rings while the main thread drains
// concurrently. Every drained event must be internally consistent —
// each writer records tuples where ts == trace_id and arg == trace_id,
// so a logically torn slot (fields from two different writes) is
// detectable. The seqlock protocol must reject such slots.
TEST(ObsTrace, ConcurrentWritersVersusDrainNeverTearEvents) {
  static const char* const kNames[] = {"w0", "w1", "w2", "w3"};
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kPerWriter = 4000;
  constexpr std::uint64_t kStride = 1'000'000;

  obs::TraceRecorder rec(128);
  std::atomic<bool> stop{false};

  const auto validate = [&](const std::vector<obs::TraceEvent>& events) {
    for (const obs::TraceEvent& ev : events) {
      const std::uint64_t writer = ev.trace_id / kStride;
      ASSERT_LT(writer, kWriters);
      EXPECT_STREQ(ev.name, kNames[writer]);
      EXPECT_EQ(static_cast<std::uint64_t>(ev.ts_ns), ev.trace_id);
      EXPECT_EQ(ev.arg, ev.trace_id);
      EXPECT_EQ(ev.kind, obs::SpanKind::kOp);
    }
  };

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, w] {
      for (std::uint64_t i = 1; i <= kPerWriter; ++i) {
        const std::uint64_t id = w * kStride + i;
        rec.record(id, obs::SpanKind::kOp, kNames[w],
                   static_cast<std::int64_t>(id), 1, id);
      }
    });
  }
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      validate(rec.drain());
    }
  });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  drainer.join();

  const std::vector<obs::TraceEvent> final_events = rec.drain();
  validate(final_events);
  // Quiescent drain sees exactly the newest ring_capacity events per ring.
  EXPECT_EQ(final_events.size(), kWriters * rec.ring_capacity());
  EXPECT_EQ(rec.num_rings(), kWriters);
}

TEST(ObsTrace, ChromeTraceJsonLanesAndRebasedTimestamps) {
  obs::TraceRecorder rec(16);
  // Request-scoped span -> pid 2 lane keyed by trace id; op span -> pid 1
  // lane keyed by ring id. ns stamps survive as µs with three decimals.
  rec.record(5, obs::SpanKind::kRequest, "request", 1'000'000, 5'000, 1);
  rec.record(5, obs::SpanKind::kOp, "spmm", 1'001'234, 1'500, 0);
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Process metadata for both lane families.
  EXPECT_NE(json.find("dstee workers"), std::string::npos);
  EXPECT_NE(json.find("sampled requests"), std::string::npos);
  // The request span renders on pid 2 with tid = trace id.
  EXPECT_NE(json.find("\"name\":\"request\",\"cat\":\"request\",\"ph\":\"X\","
                      "\"pid\":2,\"tid\":5"),
            std::string::npos);
  // The op span renders on pid 1 (worker lane).
  EXPECT_NE(json.find("\"name\":\"spmm\",\"cat\":\"op\",\"ph\":\"X\","
                      "\"pid\":1"),
            std::string::npos);
  // Timestamps rebase to the earliest event; sub-µs precision is kept.
  EXPECT_NE(json.find("\"ts\":0.000,\"dur\":5.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.234,\"dur\":1.500"), std::string::npos);
}

TEST(ObsTrace, ThreadNamesLabelRings) {
  obs::TraceRecorder rec(16);
  std::thread worker([&] {
    obs::set_thread_name("obs-test-worker");
    rec.record(1, obs::SpanKind::kOp, "op", 1, 1);
    obs::set_thread_name("");  // don't leak the name to pooled reuse
  });
  worker.join();
  const std::vector<std::string> labels = rec.ring_labels();
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0], "obs-test-worker");
}

TEST(ObsTrace, ThreadTraceScopeNestsAndRestores) {
  EXPECT_EQ(obs::current_trace_id(), 0u);
  {
    obs::ThreadTraceScope outer(5);
    EXPECT_EQ(obs::current_trace_id(), 5u);
    {
      obs::ThreadTraceScope inner(9);
      EXPECT_EQ(obs::current_trace_id(), 9u);
    }
    EXPECT_EQ(obs::current_trace_id(), 5u);
    // The scope is thread-local: a fresh thread sees no trace id.
    std::uint64_t seen = 99;
    std::thread other([&] { seen = obs::current_trace_id(); });
    other.join();
    EXPECT_EQ(seen, 0u);
  }
  EXPECT_EQ(obs::current_trace_id(), 0u);
}

TEST(ObsMetrics, CounterGaugeSemantics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);

  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  g.set(-1.25);  // last write wins
  EXPECT_EQ(g.value(), -1.25);
}

TEST(ObsMetrics, GaugeRaiseToKeepsTheMaxAcrossThreads) {
  // Four writers race raise_to over interleaved values; the gauge ends
  // at the largest (this test runs under the TSan CI job).
  obs::Gauge peak;
  peak.raise_to(-5.0);
  EXPECT_EQ(peak.value(), 0.0);  // a smaller value leaves it
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&peak, t] {
      for (int i = 0; i < kPerThread; ++i) {
        peak.raise_to(static_cast<double>(i * kThreads + t));
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(peak.value(), static_cast<double>(kPerThread * kThreads - 1));
}

TEST(ObsMetrics, HistogramBucketsAreLogSpacedAndCumulativeAtInf) {
  obs::Histogram h;
  // Eight linear steps per power of two: bounds 2^k * (1 + j/8) for k
  // from kMinExp, j = 1..8, so the first is 2^-10 * 9/8 and the last
  // 2^kMaxExp.
  EXPECT_EQ(obs::Histogram::kNumBuckets, 240u);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_le(0), std::ldexp(1.125, -10));
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_le(7), std::ldexp(1.0, -9));
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_le(79), 1.0);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_le(80), 1.125);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_le(81), 1.25);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_le(239), std::ldexp(1.0, 20));
  for (std::size_t i = 1; i < obs::Histogram::kNumBuckets; ++i) {
    const double lo = obs::Histogram::bucket_le(i - 1);
    const double hi = obs::Histogram::bucket_le(i);
    EXPECT_GT(hi, lo) << i;
    EXPECT_LE(hi / lo, 1.125 + 1e-12) << i;  // at most 12.5% wide
    // Inclusive at each bound, the next bucket just above it.
    EXPECT_EQ(obs::Histogram::bucket_index(hi), i) << i;
    EXPECT_EQ(obs::Histogram::bucket_index(std::nextafter(lo, 2 * lo)), i)
        << i;
  }
  // Zero, negatives and anything below 2^-10 land in the first bucket.
  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(-1.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(1e-300), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(std::ldexp(1.0, -10)), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(1.0), 79u);
  EXPECT_EQ(obs::Histogram::bucket_index(1.0001), 80u);
  // Beyond the last finite bound (and NaN) -> the +Inf bucket.
  EXPECT_EQ(obs::Histogram::bucket_index(std::ldexp(1.0, 20)), 239u);
  EXPECT_EQ(obs::Histogram::bucket_index(std::nextafter(std::ldexp(1.0, 20),
                                                        1e300)),
            obs::Histogram::kNumBuckets);
  EXPECT_EQ(obs::Histogram::bucket_index(1e12), obs::Histogram::kNumBuckets);
  EXPECT_EQ(obs::Histogram::bucket_index(std::nan("")),
            obs::Histogram::kNumBuckets);

  const double samples[] = {0.0005, 0.5, 3.0, 1e12};
  for (const double v : samples) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0005 + 0.5 + 3.0 + 1e12);
  for (const double v : samples) {
    EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_index(v)), 1u) << v;
  }
}

TEST(ObsMetrics, HistogramQuantileMatchesNearestRank) {
  // Seeded lognormal latencies around 1 ms (the serve unit), the shape
  // of a real tail: every quantile is within 12.5% of the nearest-rank
  // sample, the width of one bucket.
  constexpr std::size_t kRuns = 20;
  constexpr std::size_t kSamples = 20000;
  const double ranks[] = {0.5, 0.9, 0.99, 0.999};
  double worst = 0.0;
  for (std::size_t run = 0; run < kRuns; ++run) {
    std::mt19937_64 gen(1234 + run);
    std::lognormal_distribution<double> latency(0.0, 1.0);
    obs::Histogram h;
    std::vector<double> samples(kSamples);
    for (double& v : samples) {
      v = latency(gen);
      h.observe(v);
    }
    std::sort(samples.begin(), samples.end());
    for (const double q : ranks) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(kSamples)));
      const double want = samples[rank - 1];
      const double got = h.quantile(q);
      EXPECT_NEAR(got, want, 0.125 * want) << "run " << run << " q " << q;
      worst = std::max(worst, std::abs(got - want) / want);
    }
    // The 1.0-quantile is the largest sample's bucket bound.
    EXPECT_GE(h.quantile(1.0), samples.back());
    EXPECT_LE(h.quantile(1.0), samples.back() * 1.125);
  }
  RecordProperty("worst_relative_error", std::to_string(worst));
}

TEST(ObsMetrics, HistogramQuantileEdgeCases) {
  obs::Histogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.quantile(1.0), 0.0);

  // Every sample beyond the top bound: a rank in +Inf reads as that
  // bound, a floor rather than an estimate.
  obs::Histogram beyond;
  for (int i = 0; i < 10; ++i) beyond.observe(1e9);
  EXPECT_EQ(beyond.quantile(0.0), std::ldexp(1.0, 20));
  EXPECT_EQ(beyond.quantile(0.5), std::ldexp(1.0, 20));
  EXPECT_EQ(beyond.quantile(1.0), std::ldexp(1.0, 20));

  // One value on a bound sits at the top of its bucket: every quantile
  // reads it back exactly.
  obs::Histogram on_bound;
  on_bound.observe(1.25);
  EXPECT_EQ(on_bound.quantile(0.0), 1.25);
  EXPECT_EQ(on_bound.quantile(0.5), 1.25);
  EXPECT_EQ(on_bound.quantile(1.0), 1.25);

  // Two samples in one bucket interpolate across it by rank.
  obs::Histogram two;
  two.observe(1.2);
  two.observe(1.2);
  EXPECT_DOUBLE_EQ(two.quantile(0.5), 1.1875);  // halfway in (1.125, 1.25]
  EXPECT_DOUBLE_EQ(two.quantile(1.0), 1.25);

  EXPECT_THROW(on_bound.quantile(-0.1), util::CheckError);
  EXPECT_THROW(on_bound.quantile(1.5), util::CheckError);
  EXPECT_THROW(empty.quantile(std::nan("")), util::CheckError);
}

TEST(ObsMetrics, RegistryReturnsSameObjectForSameNameAndLabel) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("t_requests", "m0", "help text");
  obs::Counter& b = reg.counter("t_requests", "m0");
  EXPECT_EQ(&a, &b);  // pointer-stable get-or-create
  obs::Counter& other_label = reg.counter("t_requests", "m1");
  EXPECT_NE(&a, &other_label);
  obs::Gauge& g1 = reg.gauge("t_depth");
  EXPECT_EQ(&g1, &reg.gauge("t_depth"));
  obs::Histogram& h1 = reg.histogram("t_latency", "m0");
  EXPECT_EQ(&h1, &reg.histogram("t_latency", "m0"));
  EXPECT_EQ(reg.num_metrics(), 4u);
  // Same name, different kind: fails loudly instead of aliasing.
  EXPECT_THROW(reg.gauge("t_requests"), util::CheckError);
  EXPECT_THROW(reg.counter("bad name!"), util::CheckError);
}

TEST(ObsMetrics, ManyLabelsKeepFirstRegistrationOrder) {
  // The lookup index must not change what the registry exports: series
  // come out in first-registration order however many labels a name has,
  // and a repeated lookup finds the series it made.
  obs::MetricsRegistry reg;
  constexpr int kLabels = 500;
  const auto label = [](int i) {
    std::string out = "m";
    out += std::to_string(i);
    return out;
  };
  for (int i = 0; i < kLabels; ++i) {
    reg.counter("t_requests", label(i)).add(static_cast<std::uint64_t>(i));
    reg.gauge("t_depth", label(i)).set(i);
  }
  for (int i = 0; i < kLabels; ++i) {
    EXPECT_EQ(reg.counter("t_requests", label(i)).value(),
              static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(reg.num_metrics(), 2u * kLabels);
  const std::vector<obs::MetricsRegistry::Sample> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u * kLabels);
  for (int i = 0; i < kLabels; ++i) {
    const obs::MetricsRegistry::Sample& c = snap[2 * i];
    const obs::MetricsRegistry::Sample& g = snap[2 * i + 1];
    EXPECT_EQ(c.name, "t_requests");
    EXPECT_EQ(c.label, label(i));
    EXPECT_EQ(g.name, "t_depth");
    EXPECT_EQ(g.value, static_cast<double>(i));
  }
  EXPECT_THROW(reg.histogram("t_depth", "m7"), util::CheckError);
}

TEST(ObsMetrics, SnapshotFlattensHistograms) {
  obs::MetricsRegistry reg;
  reg.counter("t_total", "m0").add(3);
  reg.gauge("t_depth").set(2.5);
  obs::Histogram& h = reg.histogram("t_lat", "m0");
  h.observe(0.25);
  h.observe(0.75);

  const std::vector<obs::MetricsRegistry::Sample> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 4u);  // counter + gauge + histogram {_count,_sum}
  EXPECT_EQ(snap[0].name, "t_total");
  EXPECT_EQ(snap[0].label, "m0");
  EXPECT_EQ(snap[0].value, 3.0);
  EXPECT_EQ(snap[1].name, "t_depth");
  EXPECT_EQ(snap[1].value, 2.5);
  EXPECT_EQ(snap[2].name, "t_lat_count");
  EXPECT_EQ(snap[2].value, 2.0);
  EXPECT_EQ(snap[3].name, "t_lat_sum");
  EXPECT_DOUBLE_EQ(snap[3].value, 1.0);
}

TEST(ObsMetrics, PrometheusTextExposition) {
  obs::MetricsRegistry reg;
  reg.counter("t_requests", "m0", "requests served").add(3);
  reg.counter("t_requests", "m1").add(1);
  reg.gauge("t_depth", "", "queue depth").set(2.5);
  obs::Histogram& h = reg.histogram("t_lat", "m0", "latency seconds");
  h.observe(0.002);
  h.observe(0.004);
  h.observe(5.0);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP t_requests requests served\n"),
            std::string::npos);
  EXPECT_NE(text.find("t_requests{model=\"m0\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("t_requests{model=\"m1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("t_depth 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_lat histogram\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_bucket{model=\"m0\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  // Finite buckets run from the first non-empty one (0.002's, le =
  // 2^-9 * 9/8) to the last (5.0 sits on the bound 4 * 5/4): 90 buckets.
  EXPECT_EQ(text.find("le=\"0.001953125\""), std::string::npos);
  EXPECT_NE(text.find("t_lat_bucket{model=\"m0\",le=\"0.002197265625\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("t_lat_bucket{model=\"m0\",le=\"5\"} 3\n"),
            std::string::npos);
  EXPECT_EQ(text.find("le=\"5.5\""), std::string::npos);
  EXPECT_EQ(count_occurrences(text, "t_lat_bucket{"), 91u);
  EXPECT_NE(text.find("t_lat_count{model=\"m0\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("t_lat_sum{model=\"m0\"}"), std::string::npos);
  // One # TYPE line per family even with several labeled series.
  EXPECT_EQ(count_occurrences(text, "# TYPE t_requests counter\n"), 1u);
}

TEST(ObsProfile, AccumulatesAcrossThreadsAndNormalizesShares) {
  obs::OpProfile profile(3);
  EXPECT_EQ(profile.size(), 3u);
  // Shares are all-zero until something is measured — the signal callers
  // use to fall back to the static cost model.
  for (const double s : profile.cost_shares()) EXPECT_EQ(s, 0.0);

  std::thread a([&] {
    for (int i = 0; i < 1000; ++i) profile.add(0, 1);
  });
  std::thread b([&] {
    for (int i = 0; i < 1000; ++i) profile.add(2, 3);
  });
  a.join();
  b.join();

  EXPECT_EQ(profile.node_ns(0), 1000);
  EXPECT_EQ(profile.node_calls(0), 1000u);
  EXPECT_EQ(profile.node_ns(1), 0);
  EXPECT_EQ(profile.node_calls(1), 0u);
  EXPECT_EQ(profile.node_ns(2), 3000);
  EXPECT_EQ(profile.total_ns(), 4000);
  const std::vector<double> shares = profile.cost_shares();
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_DOUBLE_EQ(shares[0], 0.25);
  EXPECT_DOUBLE_EQ(shares[1], 0.0);
  EXPECT_DOUBLE_EQ(shares[2], 0.75);
}

}  // namespace
}  // namespace dstee
