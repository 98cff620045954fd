#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/shared_sweep.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "testing/json_util.h"

namespace blazeit {
namespace obs {
namespace {

using testutil::JsonValidator;

// ---------------------------------------------------------------------------
// MetricsRegistry + instruments

TEST(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("a.counter", Stability::kStable);
  Counter* c2 = registry.GetCounter("a.counter", Stability::kStable);
  EXPECT_EQ(c1, c2);
  Gauge* g1 = registry.GetGauge("a.gauge", Stability::kUnstable);
  EXPECT_EQ(g1, registry.GetGauge("a.gauge", Stability::kUnstable));
  Histogram* h1 =
      registry.GetHistogram("a.hist", {10, 100}, Stability::kStable);
  // Bounds are consulted on first registration only.
  Histogram* h2 = registry.GetHistogram("a.hist", {999}, Stability::kStable);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds(), (std::vector<int64_t>{10, 100}));
}

TEST(MetricsTest, CounterConcurrentAddsSum) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("hits", Stability::kStable);
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Re-resolve through the registry the way hot paths do, so the test
      // also exercises concurrent Get* against concurrent Add().
      Counter* c = registry.GetCounter("hits", Stability::kStable);
      for (int i = 0; i < kAddsPerThread; ++i) c->Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->value(), int64_t{kThreads} * kAddsPerThread);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* gauge = registry.GetGauge("depth", Stability::kUnstable);
  gauge->Set(7);
  EXPECT_EQ(gauge->value(), 7);
  gauge->Add(-3);
  EXPECT_EQ(gauge->value(), 4);
}

TEST(MetricsTest, HistogramBucketsValuesInclusively) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("bytes", {10, 100},
                                          Stability::kStable);
  hist->Observe(5);     // <= 10
  hist->Observe(10);    // == bound -> same bucket (upper bound is >= v)
  hist->Observe(50);    // <= 100
  hist->Observe(1000);  // overflow bucket
  EXPECT_EQ(hist->count(), 4);
  EXPECT_EQ(hist->sum(), 1065);
  EXPECT_EQ(hist->bucket_counts(), (std::vector<int64_t>{2, 1, 1}));
}

TEST(MetricsTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("z.last", Stability::kStable)->Add(2);
  registry.GetGauge("a.first", Stability::kStable)->Set(1);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.entries.size(), 2u);
  EXPECT_EQ(snap.entries[0].name, "a.first");
  EXPECT_EQ(snap.entries[1].name, "z.last");
  ASSERT_NE(snap.Find("z.last"), nullptr);
  EXPECT_EQ(snap.Find("z.last")->value, 2);
  EXPECT_EQ(snap.Find("missing"), nullptr);
}

TEST(MetricsTest, SnapshotTextAndJsonExports) {
  MetricsRegistry registry;
  registry.GetCounter("store.reads{tier=\"x\"}", Stability::kStable)->Add(3);
  Histogram* hist = registry.GetHistogram("bytes", {64}, Stability::kStable);
  hist->Observe(32);
  hist->Observe(128);
  MetricsSnapshot snap = registry.Snapshot();
  const std::string text = snap.ToText();
  EXPECT_NE(text.find("store.reads{tier=\"x\"} 3"), std::string::npos);
  EXPECT_NE(text.find("bytes count=2 sum=160 buckets=[1,1]"),
            std::string::npos);
  const std::string json = snap.ToJson();
  // The embedded quote in the label must be escaped, not break the JSON.
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
}

TEST(MetricsTest, DeltaFromSubtractsCountersAndKeepsGauges) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c", Stability::kStable);
  Gauge* gauge = registry.GetGauge("g", Stability::kStable);
  Histogram* hist = registry.GetHistogram("h", {10}, Stability::kStable);
  counter->Add(5);
  gauge->Set(3);
  hist->Observe(4);
  MetricsSnapshot base = registry.Snapshot();

  counter->Add(7);
  gauge->Set(9);
  hist->Observe(40);
  // A counter born after the baseline subtracts zero.
  registry.GetCounter("later", Stability::kStable)->Add(2);
  MetricsSnapshot delta = registry.Snapshot().DeltaFrom(base);

  EXPECT_EQ(delta.Find("c")->value, 7);
  EXPECT_EQ(delta.Find("g")->value, 9);
  EXPECT_EQ(delta.Find("later")->value, 2);
  const MetricsSnapshot::Entry* h = delta.Find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->value, 1);
  EXPECT_EQ(h->sum, 40);
  EXPECT_EQ(h->buckets, (std::vector<int64_t>{0, 1}));
}

TEST(MetricsTest, StableOnlyDropsUnstableInstruments) {
  MetricsRegistry registry;
  registry.GetCounter("stable.counter", Stability::kStable)->Add(1);
  registry.GetGauge("unstable.gauge", Stability::kUnstable)->Set(5);
  MetricsSnapshot stable = registry.Snapshot().StableOnly();
  ASSERT_EQ(stable.entries.size(), 1u);
  EXPECT_EQ(stable.entries[0].name, "stable.counter");
}

TEST(MetricsTest, GlobalRegistryIsASingleton) {
  Counter* c = MetricsRegistry::Global().GetCounter("obs_test.probe",
                                                    Stability::kStable);
  EXPECT_EQ(c, MetricsRegistry::Global().GetCounter("obs_test.probe",
                                                    Stability::kStable));
}

// ---------------------------------------------------------------------------
// QueryTrace + TraceSpan

TEST(TraceTest, StructureSignatureReflectsNesting) {
  QueryTrace trace("q");
  { TraceSpan parse(&trace, "parse"); }
  {
    TraceSpan execute(&trace, "execute");
    {
      TraceSpan train(&trace, "train");
    }
    TraceSpan sweep(&trace, "sweep");
  }
  EXPECT_EQ(trace.StructureSignature(),
            "parse\n"
            "execute\n"
            "  train\n"
            "  sweep\n");
  for (const QueryTrace::Span& span : trace.spans()) {
    EXPECT_TRUE(span.closed) << span.name;
    EXPECT_GE(span.end_ns, span.start_ns) << span.name;
  }
}

TEST(TraceTest, SpanRecordsMeterDeltas) {
  QueryTrace trace("q");
  CostMeter meter;
  meter.ChargeFilter(100);  // pre-span cost must not be attributed
  {
    TraceSpan span(&trace, "detect", &meter);
    meter.ChargeDetection();
  }
  const std::vector<QueryTrace::Span> spans = trace.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].has_cost);
  EXPECT_DOUBLE_EQ(spans[0].cost_end_seconds - spans[0].cost_begin_seconds,
                   meter.profile().detection_sec_per_frame);
}

TEST(TraceTest, ExplicitCloseEndsSpanEarlyAndIsIdempotent) {
  QueryTrace trace("q");
  {
    TraceSpan first(&trace, "first");
    first.Close();
    first.Close();  // no-op
    // A sibling opened after the Close must not nest under "first".
    TraceSpan second(&trace, "second");
  }
  EXPECT_EQ(trace.StructureSignature(), "first\nsecond\n");
}

TEST(TraceTest, NullTraceSpanIsANoop) {
  TraceSpan span(nullptr, "anything");
  span.Close();  // must not crash
}

TEST(TraceTest, ChromeJsonValidatesAndHasCompleteEvents) {
  QueryTrace trace("SELECT \"quoted\"\nquery");
  CostMeter meter;
  {
    TraceSpan outer(&trace, "execute", &meter);
    meter.ChargeSpecializedNN(10);
    TraceSpan inner(&trace, "sweep", &meter);
  }
  const std::string json = trace.ToChromeJson();
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"simulated_seconds\""), std::string::npos);
  // The query name (with its quote and newline) must arrive escaped.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

// ---------------------------------------------------------------------------
// SweepCacheView counting (the view behind ExecutionReport::cache)

/// Map-backed ArtifactCache for exercising the hit paths.
class MapCache final : public ArtifactCache {
 public:
  bool GetFrameFloats(uint64_t ns, int64_t frame,
                      std::vector<float>* out) override {
    auto it = floats_.find({ns, frame});
    if (it == floats_.end()) return false;
    *out = it->second;
    return true;
  }
  void PutFrameFloats(uint64_t ns, int64_t frame,
                      const std::vector<float>& values) override {
    floats_[{ns, frame}] = values;
  }
  bool GetFrameDoubles(uint64_t ns, int64_t frame,
                       std::vector<double>* out) override {
    auto it = doubles_.find({ns, frame});
    if (it == doubles_.end()) return false;
    *out = it->second;
    return true;
  }
  void PutFrameDoubles(uint64_t ns, int64_t frame,
                       const std::vector<double>& values) override {
    doubles_[{ns, frame}] = values;
  }
  bool GetBlob(uint64_t ns, std::vector<float>* out) override {
    auto it = blobs_.find(ns);
    if (it == blobs_.end()) return false;
    *out = it->second;
    return true;
  }
  void PutBlob(uint64_t ns, const std::vector<float>& values) override {
    blobs_[ns] = values;
  }

 private:
  std::map<std::pair<uint64_t, int64_t>, std::vector<float>> floats_;
  std::map<std::pair<uint64_t, int64_t>, std::vector<double>> doubles_;
  std::map<uint64_t, std::vector<float>> blobs_;
};

TEST(SweepCacheViewCountingTest, NullUnderlyingCountsMissesAndDropsPuts) {
  SweepCacheView view(/*shared=*/nullptr, /*underlying=*/nullptr);
  std::vector<float> floats;
  std::vector<double> doubles;
  EXPECT_FALSE(view.GetFrameFloats(1, 0, &floats));
  EXPECT_FALSE(view.GetFrameDoubles(1, 0, &doubles));
  EXPECT_FALSE(view.GetBlob(1, &floats));
  view.PutFrameFloats(1, 0, {1.0f});
  view.PutBlob(1, {1.0f});
  // Still a miss: puts against a null cache go nowhere.
  EXPECT_FALSE(view.GetFrameFloats(1, 0, &floats));
  EXPECT_EQ(view.stats().hits(), 0);
  EXPECT_EQ(view.stats().misses(), 4);
  EXPECT_EQ(view.stats().frame_float_misses, 2);
  EXPECT_EQ(view.stats().frame_double_misses, 1);
  EXPECT_EQ(view.stats().blob_misses, 1);
}

TEST(SweepCacheViewCountingTest, CountsPerKindHitsThroughUnderlyingCache) {
  MapCache cache;
  SweepCacheView view(/*shared=*/nullptr, &cache);
  std::vector<float> floats;
  std::vector<double> doubles;
  EXPECT_FALSE(view.GetBlob(7, &floats));  // cold miss
  view.PutBlob(7, {1.0f, 2.0f});
  EXPECT_TRUE(view.GetBlob(7, &floats));
  EXPECT_EQ(floats, (std::vector<float>{1.0f, 2.0f}));
  view.PutFrameDoubles(7, 3, {0.5});
  EXPECT_TRUE(view.GetFrameDoubles(7, 3, &doubles));
  EXPECT_EQ(view.stats().blob_hits, 1);
  EXPECT_EQ(view.stats().blob_misses, 1);
  EXPECT_EQ(view.stats().frame_double_hits, 1);
  EXPECT_EQ(view.stats().hits(), 2);
  EXPECT_EQ(view.stats().misses(), 1);
  // No shared tier, so nothing counts as shared.
  EXPECT_EQ(view.stats().shared_models, 0);
  EXPECT_EQ(view.stats().shared_filter_frames, 0);
}

TEST(SweepCacheViewCountingTest, SharedTierHitsCountAsSharedAndPerKind) {
  SharedSweepCache shared;
  MapCache persistent;
  persistent.PutBlob(7, {1.0f});
  std::vector<float> floats;
  {
    // The leader's blob comes from the persistent tier: a per-kind hit,
    // not a shared one, promoted so the follower finds it in memory.
    SweepCacheView leader(&shared, &persistent);
    EXPECT_TRUE(leader.GetBlob(7, &floats));
    leader.PutFrameFloats(7, 0, {2.0f});
    EXPECT_EQ(leader.stats().blob_hits, 1);
    EXPECT_EQ(leader.stats().shared_models, 0);
  }
  SweepCacheView follower(&shared, /*underlying=*/nullptr);
  EXPECT_TRUE(follower.GetBlob(7, &floats));
  EXPECT_TRUE(follower.GetFrameFloats(7, 0, &floats));
  EXPECT_EQ(floats, std::vector<float>{2.0f});
  EXPECT_FALSE(follower.GetFrameFloats(7, 1, &floats));
  EXPECT_EQ(follower.stats().shared_models, 1);
  EXPECT_EQ(follower.stats().shared_nn_frames, 1);
  EXPECT_EQ(follower.stats().blob_hits, 1);
  EXPECT_EQ(follower.stats().frame_float_hits, 1);
  EXPECT_EQ(follower.stats().frame_float_misses, 1);
}

// ---------------------------------------------------------------------------
// Run reads through the shared tier (dense rows, one lock per run)

int64_t GlobalCounter(const std::string& name) {
  return MetricsRegistry::Global()
      .GetCounter(name, Stability::kUnstable)
      ->value();
}

TEST(SharedSweepRunReadTest, FirstWriteWinsAndRowsCopyOut) {
  SharedSweepCache shared;
  SweepCacheView view(&shared, /*underlying=*/nullptr);
  view.PutFrameFloats(7, 3, {1.0f, 2.0f});
  view.PutFrameFloats(7, 3, {9.0f, 9.0f});  // later write: dropped
  view.PutFrameFloats(7, 0, {3.0f, 4.0f});
  std::vector<float> out(4, -1.0f);
  std::vector<size_t> miss;
  view.GetFrameFloatsRun(7, {3, 0}, 2, out.data(), &miss);
  EXPECT_TRUE(miss.empty());
  EXPECT_EQ(out, (std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f}));
  EXPECT_EQ(shared.frame_float_records(), 2);
}

TEST(SharedSweepRunReadTest, GapNegativeAndOtherWidthFramesMiss) {
  SharedSweepCache shared;
  SweepCacheView view(&shared, /*underlying=*/nullptr);
  view.PutFrameDoubles(5, 0, {0.5, 1.5});
  view.PutFrameDoubles(5, 2, {2.5, 3.5});
  view.PutFrameDoubles(5, -1, {7.0, 7.0});  // negative frames are not kept
  view.PutFrameDoubles(5, 4, {1.0});        // nor rows of another width
  std::vector<double> out(10, -1.0);
  std::vector<size_t> miss;
  view.GetFrameDoublesRun(5, {0, 1, -1, 2, 4}, 2, out.data(), &miss);
  // The gap frame 1, the negative frame and frame 4 (only a 1-wide row
  // was offered) miss; their slots are left as they were.
  EXPECT_EQ(miss, (std::vector<size_t>{1, 2, 4}));
  EXPECT_EQ(out, (std::vector<double>{0.5, 1.5, -1.0, -1.0, -1.0, -1.0, 2.5,
                                      3.5, -1.0, -1.0}));
  // A run read at another width than the namespace's misses every frame.
  miss.clear();
  std::vector<double> wide(3, -1.0);
  view.GetFrameDoublesRun(5, {0}, 3, wide.data(), &miss);
  EXPECT_EQ(miss, std::vector<size_t>{0});
  EXPECT_EQ(view.stats().frame_double_hits, 2);
  EXPECT_EQ(view.stats().frame_double_misses, 4);
  EXPECT_EQ(view.stats().shared_filter_frames, 2);
}

TEST(SharedSweepRunReadTest, PersistentHitsArePromoted) {
  SharedSweepCache shared;
  MapCache persistent;
  for (int64_t f = 0; f < 5; ++f) {
    persistent.PutFrameFloats(9, f, {static_cast<float>(f), 0.5f});
  }
  const int64_t promotions = GlobalCounter("cache.promotions{tier=shared}");
  std::vector<float> out(12, -1.0f);
  std::vector<size_t> miss;
  {
    SweepCacheView leader(&shared, &persistent);
    leader.GetFrameFloatsRun(9, {0, 1, 2, 3, 4, 5}, 2, out.data(), &miss);
    EXPECT_EQ(miss, std::vector<size_t>{5});
    EXPECT_EQ(out[8], 4.0f);
    EXPECT_EQ(leader.stats().frame_float_hits, 5);
    EXPECT_EQ(leader.stats().frame_float_misses, 1);
    EXPECT_EQ(leader.stats().shared_nn_frames, 0);
  }
  EXPECT_EQ(GlobalCounter("cache.promotions{tier=shared}"), promotions + 5);
  EXPECT_EQ(shared.frame_float_records(), 5);
  // A follower with no persistent tier reads the promoted rows from memory.
  const int64_t shared_hits = GlobalCounter("cache.hits{tier=shared}");
  SweepCacheView follower(&shared, /*underlying=*/nullptr);
  std::vector<float> again(10, -1.0f);
  miss.clear();
  follower.GetFrameFloatsRun(9, {4, 3, 2, 1, 0}, 2, again.data(), &miss);
  EXPECT_TRUE(miss.empty());
  EXPECT_EQ(again, (std::vector<float>{4.0f, 0.5f, 3.0f, 0.5f, 2.0f, 0.5f,
                                       1.0f, 0.5f, 0.0f, 0.5f}));
  EXPECT_EQ(follower.stats().shared_nn_frames, 5);
  EXPECT_EQ(GlobalCounter("cache.hits{tier=shared}"), shared_hits + 5);
}

// One run read must leave the stats and the resident record count exactly
// where a Get per frame leaves them: some frames resident in the shared
// tier, some only persistent, some nowhere. (A sweep's frames are
// distinct; a frame repeated within one run would be read from the
// persistent tier twice rather than once and then from memory.)
TEST(SharedSweepRunReadTest, RunCountsLikeGetsPerFrame) {
  struct Tiers {
    SharedSweepCache shared;
    MapCache persistent;
  };
  auto fill = [](Tiers* t) {
    SweepCacheView writer(&t->shared, /*underlying=*/nullptr);
    for (int64_t f : {0, 2, 4}) writer.PutFrameFloats(1, f, {1.0f * f});
    for (int64_t f : {1, 2, 5}) t->persistent.PutFrameFloats(1, f, {2.0f * f});
  };
  const std::vector<int64_t> frames = {6, 0, 1, 2, 3, 4, 5};
  Tiers run_tiers;
  fill(&run_tiers);
  SweepCacheView run_view(&run_tiers.shared, &run_tiers.persistent);
  std::vector<float> run_out(frames.size(), -1.0f);
  std::vector<size_t> run_miss;
  run_view.GetFrameFloatsRun(1, frames, 1, run_out.data(), &run_miss);

  Tiers frame_tiers;
  fill(&frame_tiers);
  SweepCacheView frame_view(&frame_tiers.shared, &frame_tiers.persistent);
  std::vector<float> frame_out(frames.size(), -1.0f);
  std::vector<size_t> frame_miss;
  for (size_t i = 0; i < frames.size(); ++i) {
    std::vector<float> row;
    if (frame_view.GetFrameFloats(1, frames[i], &row) && row.size() == 1) {
      frame_out[i] = row[0];
    } else {
      frame_miss.push_back(i);
    }
  }

  EXPECT_EQ(run_out, frame_out);
  EXPECT_EQ(run_miss, frame_miss);
  EXPECT_EQ(run_miss, (std::vector<size_t>{0, 4}));
  EXPECT_EQ(run_out[3], 2.0f);  // frame 2: the shared tier's row wins
  const CacheStats& a = run_view.stats();
  const CacheStats& b = frame_view.stats();
  EXPECT_EQ(a.frame_float_hits, b.frame_float_hits);
  EXPECT_EQ(a.frame_float_misses, b.frame_float_misses);
  EXPECT_EQ(a.shared_nn_frames, b.shared_nn_frames);
  EXPECT_EQ(a.frame_float_hits, 5);
  EXPECT_EQ(a.frame_float_misses, 2);
  EXPECT_EQ(a.shared_nn_frames, 3);
  EXPECT_EQ(run_tiers.shared.frame_float_records(),
            frame_tiers.shared.frame_float_records());
  EXPECT_EQ(run_tiers.shared.frame_float_records(), 5);
}

// Writers and a run reader on one shared tier from two threads (the
// admission queue runs independent groups concurrently). Every row a read
// returns is the one written for its frame. Runs in the TSan lane with
// the other fast suites.
TEST(SharedSweepRunReadTest, PutsAndRunReadsRace) {
  SharedSweepCache shared;
  constexpr int64_t kFrames = 2000;
  std::thread writer([&] {
    SweepCacheView view(&shared, /*underlying=*/nullptr);
    for (int64_t f = kFrames - 1; f >= 0; --f) {
      view.PutFrameFloats(3, f, {static_cast<float>(f), -1.0f});
    }
  });
  std::vector<int64_t> frames(kFrames);
  for (int64_t f = 0; f < kFrames; ++f) frames[static_cast<size_t>(f)] = f;
  SweepCacheView reader(&shared, /*underlying=*/nullptr);
  size_t last_misses = frames.size();
  for (int round = 0; round < 50 && last_misses > 0; ++round) {
    std::vector<float> out(2 * frames.size(), 0.0f);
    std::vector<size_t> miss;
    reader.GetFrameFloatsRun(3, frames, 2, out.data(), &miss);
    std::vector<bool> missed(frames.size(), false);
    for (size_t m : miss) missed[m] = true;
    for (size_t i = 0; i < frames.size(); ++i) {
      if (missed[i]) continue;
      ASSERT_EQ(out[2 * i], static_cast<float>(i));
      ASSERT_EQ(out[2 * i + 1], -1.0f);
    }
    last_misses = miss.size();
  }
  writer.join();
  std::vector<float> out(2 * frames.size(), 0.0f);
  std::vector<size_t> miss;
  reader.GetFrameFloatsRun(3, frames, 2, out.data(), &miss);
  EXPECT_TRUE(miss.empty());
  EXPECT_EQ(shared.frame_float_records(), kFrames);
}

// ---------------------------------------------------------------------------
// ExecutionReport

TEST(ReportTest, CostReconcilesWithMeterExactly) {
  CostMeter meter;
  meter.ChargeDetection();
  meter.ChargeSpecializedNN(1000);
  meter.ChargeFilter(500);
  meter.ChargeTraining(2000);
  meter.ChargeThresholding(100);
  ExecutionReport report;
  report.cost = meter;
  EXPECT_EQ(report.cost.detection_calls(), meter.detection_calls());
  EXPECT_EQ(report.cost.specialized_nn_calls(), meter.specialized_nn_calls());
  EXPECT_EQ(report.cost.filter_calls(), meter.filter_calls());
  EXPECT_EQ(report.cost.training_frames(), meter.training_frames());
  // Bit-exact, not approximate: the report carries the meter itself.
  EXPECT_EQ(report.cost.detection_seconds(), meter.detection_seconds());
  EXPECT_EQ(report.cost.specialized_nn_seconds(),
            meter.specialized_nn_seconds());
  EXPECT_EQ(report.cost.filter_seconds(), meter.filter_seconds());
  EXPECT_EQ(report.cost.training_seconds(), meter.training_seconds());
  EXPECT_EQ(report.cost.thresholding_seconds(), meter.thresholding_seconds());
  EXPECT_EQ(report.cost.TotalSeconds(), meter.TotalSeconds());
  EXPECT_EQ(report.cost.QuerySeconds(), meter.QuerySeconds());
}

TEST(ReportTest, TextAndJsonAreSelfContained) {
  ExecutionReport report;
  report.query = "SELECT FCOUNT(*) FROM \"odd\" stream";
  report.plan = "specialized-aggregate";
  report.plan_description = "NN + control variates";
  CostMeter meter;
  meter.ChargeSpecializedNN(10);
  report.cost = meter;
  report.cache.frame_float_hits = 4;
  report.cache.frame_float_misses = 6;
  report.sketch.consulted = true;
  report.sketch.pruned = true;
  report.sketch.window_frames = 100;
  report.sketch.candidate_frames = 25;
  report.trace = std::make_shared<QueryTrace>(report.query);
  {
    TraceSpan span(report.trace.get(), "execute", &meter);
  }
  const std::string text = report.ToText();
  EXPECT_NE(text.find("specialized-aggregate"), std::string::npos);
  EXPECT_NE(text.find("execute"), std::string::npos);
  const std::string json = report.ToJson();
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  EXPECT_NE(json.find("\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
}

TEST(ReportTest, AccuracyTierDefaultsToFullAndSurfacesDowngrades) {
  ExecutionReport report;
  report.query = "q";
  // "full" is the default; ToText stays quiet about it (no tier line),
  // ToJson always carries it so downstream parsers need no fallback.
  EXPECT_EQ(report.accuracy_tier, "full");
  EXPECT_EQ(report.ToText().find("accuracy tier"), std::string::npos);
  EXPECT_NE(report.ToJson().find("\"accuracy_tier\":\"full\""),
            std::string::npos);

  report.accuracy_tier = "degraded-sampling";
  EXPECT_NE(report.ToText().find("accuracy tier: degraded-sampling"),
            std::string::npos);
  const std::string json = report.ToJson();
  EXPECT_TRUE(JsonValidator::Valid(json)) << json;
  EXPECT_NE(json.find("\"accuracy_tier\":\"degraded-sampling\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Prometheus text exporter

TEST(PrometheusTest, RendersCountersGaugesAndLabels) {
  MetricsRegistry registry;
  registry.GetCounter("serve.submitted{client=alice}", Stability::kStable)
      ->Add(3);
  registry.GetCounter("serve.submitted{client=bob}", Stability::kStable)
      ->Add(1);
  registry.GetGauge("serve.queue_depth", Stability::kUnstable)->Set(7);
  const std::string text = PrometheusSnapshot(registry.Snapshot());

  // Dots sanitize to underscores under the blazeit_ prefix; labels render
  // quoted; one TYPE line covers a family's contiguous labeled series.
  EXPECT_NE(text.find("# TYPE blazeit_serve_submitted counter\n"
                      "blazeit_serve_submitted{client=\"alice\"} 3\n"
                      "blazeit_serve_submitted{client=\"bob\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE blazeit_serve_queue_depth gauge\n"
                      "blazeit_serve_queue_depth 7\n"),
            std::string::npos)
      << text;
  // Exactly one TYPE line for the two-series counter family.
  const size_t first = text.find("# TYPE blazeit_serve_submitted");
  EXPECT_EQ(text.find("# TYPE blazeit_serve_submitted", first + 1),
            std::string::npos);
}

TEST(PrometheusTest, RendersHistogramsCumulatively) {
  MetricsRegistry registry;
  Histogram* hist =
      registry.GetHistogram("latency", {1, 2}, Stability::kStable);
  hist->Observe(1);
  hist->Observe(5);  // overflow bucket
  const std::string text = PrometheusSnapshot(registry.Snapshot());
  EXPECT_NE(text.find("# TYPE blazeit_latency histogram\n"
                      "blazeit_latency_bucket{le=\"1\"} 1\n"
                      "blazeit_latency_bucket{le=\"2\"} 1\n"
                      "blazeit_latency_bucket{le=\"+Inf\"} 2\n"
                      "blazeit_latency_sum 6\n"
                      "blazeit_latency_count 2\n"),
            std::string::npos)
      << text;
}

TEST(PrometheusTest, EscapesLabelValuesAndSanitizesNames) {
  MetricsRegistry registry;
  registry.GetCounter("odd.name{k=a\"b\\c}", Stability::kStable)->Add(1);
  const std::string text = PrometheusSnapshot(registry.Snapshot());
  EXPECT_NE(text.find("blazeit_odd_name{k=\"a\\\"b\\\\c\"} 1"),
            std::string::npos)
      << text;
}

TEST(PrometheusTest, EmptyRegistryRendersEmptyExposition) {
  MetricsRegistry registry;
  EXPECT_EQ(PrometheusSnapshot(registry.Snapshot()), "");
}

TEST(PrometheusTest, EscapesNewlinesInLabelValues) {
  MetricsRegistry registry;
  registry.GetCounter("q.error{msg=line one\nline two}", Stability::kStable)
      ->Add(2);
  const std::string text = PrometheusSnapshot(registry.Snapshot());
  // The embedded newline becomes the two characters \n, keeping the
  // sample on one physical line (a raw newline would corrupt the
  // exposition for every scraper).
  EXPECT_NE(text.find("blazeit_q_error{msg=\"line one\\nline two\"} 2"),
            std::string::npos)
      << text;
  const size_t sample = text.find("blazeit_q_error{");
  ASSERT_NE(sample, std::string::npos);
  const size_t eol = text.find('\n', sample);
  ASSERT_NE(eol, std::string::npos);
  EXPECT_EQ(text.substr(sample, eol - sample),
            "blazeit_q_error{msg=\"line one\\nline two\"} 2");
}

TEST(PrometheusTest, InfBucketAlwaysEqualsCount) {
  MetricsRegistry registry;
  // No overflow observations: +Inf must still render and equal count.
  Histogram* bounded =
      registry.GetHistogram("inside", {10, 100}, Stability::kStable);
  bounded->Observe(1);
  bounded->Observe(50);
  // Zero observations: all buckets (including +Inf) and count are 0.
  registry.GetHistogram("idle", {5}, Stability::kStable);
  const std::string text = PrometheusSnapshot(registry.Snapshot());
  EXPECT_NE(text.find("blazeit_inside_bucket{le=\"+Inf\"} 2\n"
                      "blazeit_inside_sum 51\n"
                      "blazeit_inside_count 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("blazeit_idle_bucket{le=\"5\"} 0\n"
                      "blazeit_idle_bucket{le=\"+Inf\"} 0\n"
                      "blazeit_idle_sum 0\n"
                      "blazeit_idle_count 0\n"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace obs
}  // namespace blazeit
