/// \file test_obs_metrics.cpp
/// \brief obs metrics + exposition coverage: log2 histogram bucket math,
/// registry series identity and deterministic rendering, label escaping,
/// and golden renders of a fixed scrape row list in both formats (flat
/// text, and Prometheus with source/subscriber labels, build info,
/// uptime and the snapshot-error info series).

#include "obs/exposition.hpp"
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace {

using namespace efd::obs;

TEST(ObsHistogram, BucketsByBitWidth) {
  Histogram h;
  h.observe(0);     // bucket 0
  h.observe(1);     // bit_width(1) == 1
  h.observe(2);     // bit_width(2) == 2
  h.observe(3);     // bit_width(3) == 2
  h.observe(1000);  // bit_width(1000) == 10
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 0u + 1u + 2u + 3u + 1000u);
}

TEST(ObsHistogram, ClampsEdges) {
  Histogram h;
  h.observe(-5);  // negative -> treated as 0
  h.observe(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(ObsHistogram, QuantileUpperBound) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 90; ++i) h.observe(700);    // bucket 10, edge 1024
  for (int i = 0; i < 10; ++i) h.observe(70000);  // bucket 17, edge 131072
  EXPECT_EQ(h.quantile(0.5), 1024.0);
  EXPECT_EQ(h.quantile(0.9), 1024.0);
  EXPECT_EQ(h.quantile(0.99), 131072.0);
  EXPECT_EQ(h.quantile(1.0), 131072.0);
}

TEST(ObsRegistry, ReturnsStableSeriesReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("efd_test_total", "help");
  Counter& b = registry.counter("efd_test_total", "help");
  EXPECT_EQ(&a, &b);
  Counter& labeled =
      registry.counter("efd_test_total", "help", "kind=\"x\"");
  EXPECT_NE(&a, &labeled);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(ObsRegistry, RendersSortedFamiliesAndSeries) {
  MetricsRegistry registry;
  registry.counter("efd_zz_total", "last").add(1);
  registry.gauge("efd_aa_level", "first").set(2.5);
  registry.counter("efd_mm_total", "mid", "stage=\"b\"").add(4);
  registry.counter("efd_mm_total", "mid", "stage=\"a\"").add(7);
  const std::string text = registry.render();
  const std::size_t aa = text.find("# TYPE efd_aa_level gauge");
  const std::size_t mm = text.find("# TYPE efd_mm_total counter");
  const std::size_t zz = text.find("# TYPE efd_zz_total counter");
  ASSERT_NE(aa, std::string::npos);
  ASSERT_NE(mm, std::string::npos);
  ASSERT_NE(zz, std::string::npos);
  EXPECT_LT(aa, mm);
  EXPECT_LT(mm, zz);
  // Series within a family sort by label set.
  const std::size_t stage_a = text.find("efd_mm_total{stage=\"a\"} 7");
  const std::size_t stage_b = text.find("efd_mm_total{stage=\"b\"} 4");
  ASSERT_NE(stage_a, std::string::npos);
  ASSERT_NE(stage_b, std::string::npos);
  EXPECT_LT(stage_a, stage_b);
  EXPECT_NE(text.find("efd_aa_level 2.5"), std::string::npos);
}

TEST(ObsRegistry, RendersCumulativeHistogram) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("efd_lat_ns", "latency");
  h.observe(5);        // below the first rendered bucket (2^10)
  h.observe(2000);     // bucket 11
  h.observe(1 << 30);  // bucket 31
  const std::string text = registry.render();
  EXPECT_NE(text.find("# TYPE efd_lat_ns histogram"), std::string::npos);
  // Sub-1us observations fold into the first rendered bucket.
  EXPECT_NE(text.find("efd_lat_ns_bucket{le=\"1024\"} 1"), std::string::npos);
  EXPECT_NE(text.find("efd_lat_ns_bucket{le=\"2048\"} 2"), std::string::npos);
  EXPECT_NE(text.find("efd_lat_ns_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("efd_lat_ns_count 3"), std::string::npos);
  const std::string sum =
      "efd_lat_ns_sum " + std::to_string(5u + 2000u + (1u << 30));
  EXPECT_NE(text.find(sum), std::string::npos);
}

TEST(ObsExposition, EscapesLabelValues) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
}

/// A small fixed row list covering every exposition rule: a counter and
/// a gauge (one a double printed like `operator<<`), two labelled source
/// rows with and without a name, a subscriber, the snapshot error, build
/// info and uptime. Rows are declared out of order; both formats sort.
ScrapeRows golden_rows() {
  ScrapeRows rows;
  rows.uptime(42);
  rows.block("source.1.", "efd_source_", label("source", "1"));
  rows.counter("envelopes", 3);
  rows.block("source.0.", "efd_source_",
             label("source", "0") + "," + label("name", "replay"));
  rows.text("name", "replay");
  rows.counter("envelopes", 12);
  rows.counter("drops", 1);
  rows.block("ingest.", "efd_ingest_");
  rows.counter("envelopes", 8);
  rows.info("snapshot_last_error", "open(\"/tmp/x\")_failed",
            "efd_ingest_snapshot_last_error_info", "reason");
  rows.block("dictionary.", "efd_dictionary_");
  rows.gauge("index_build_seconds", 1.36e-05);
  rows.gauge("index_bytes", std::uint64_t{4096});
  rows.block("subscriber.2.", "efd_subscriber_", label("subscriber", "2"));
  rows.counter("delivered", 10);
  rows.gauge("queued", std::uint64_t{1});
  rows.block("build.", "");
  rows.info("version", "0.9.0", "efd_build_info", "version");
  rows.info("sha", "abc123", "efd_build_info", "sha");
  rows.info("kernel", "avx2", "efd_build_info", "kernel");
  return rows;
}

TEST(ObsExposition, GoldenFlatScrape) {
  EXPECT_EQ(golden_rows().flat(),
            "build.kernel avx2\n"
            "build.sha abc123\n"
            "build.version 0.9.0\n"
            "dictionary.index_build_seconds 1.36e-05\n"
            "dictionary.index_bytes 4096\n"
            "ingest.envelopes 8\n"
            "ingest.snapshot_last_error open(\"/tmp/x\")_failed\n"
            "source.0.drops 1\n"
            "source.0.envelopes 12\n"
            "source.0.name replay\n"
            "source.1.envelopes 3\n"
            "subscriber.2.delivered 10\n"
            "subscriber.2.queued 1\n"
            "uptime.seconds 42\n");
}

TEST(ObsExposition, GoldenExposition) {
  // One # TYPE line per family even where its rows interleave with other
  // rows (source.0.name sits between the two envelopes rows); the name
  // row is a label, never a series; the snapshot error's reason is
  // escaped; build and uptime rows fold into efd_build_info and
  // efd_uptime_seconds after the counters and gauges; the registry's
  // families follow byte-for-byte.
  MetricsRegistry registry;
  registry.histogram("efd_lat_ns", "latency").observe(5000);
  const std::string text = golden_rows().exposition(registry);
  const std::string rows =
      "# TYPE efd_dictionary_index_build_seconds gauge\n"
      "efd_dictionary_index_build_seconds 1.36e-05\n"
      "# TYPE efd_dictionary_index_bytes gauge\n"
      "efd_dictionary_index_bytes 4096\n"
      "# TYPE efd_ingest_envelopes counter\n"
      "efd_ingest_envelopes 8\n"
      "# TYPE efd_source_drops counter\n"
      "efd_source_drops{source=\"0\",name=\"replay\"} 1\n"
      "# TYPE efd_source_envelopes counter\n"
      "efd_source_envelopes{source=\"0\",name=\"replay\"} 12\n"
      "efd_source_envelopes{source=\"1\"} 3\n"
      "# TYPE efd_subscriber_delivered counter\n"
      "efd_subscriber_delivered{subscriber=\"2\"} 10\n"
      "# TYPE efd_subscriber_queued gauge\n"
      "efd_subscriber_queued{subscriber=\"2\"} 1\n"
      "# TYPE efd_ingest_snapshot_last_error_info gauge\n"
      "efd_ingest_snapshot_last_error_info{reason="
      "\"open(\\\"/tmp/x\\\")_failed\"} 1\n"
      "# TYPE efd_build_info gauge\n"
      "efd_build_info{version=\"0.9.0\",sha=\"abc123\",kernel=\"avx2\"} 1\n"
      "# TYPE efd_uptime_seconds gauge\n"
      "efd_uptime_seconds 42\n";
  EXPECT_EQ(text, rows + registry.render());
  EXPECT_NE(text.find("# TYPE efd_lat_ns histogram"), std::string::npos);
}

TEST(ObsExposition, FlatOnlyTextRowsRenderNoSeries) {
  // A healthy endpoint's snapshot error row is flat-only text: present
  // in the flat scrape, absent from the exposition.
  ScrapeRows rows;
  rows.block("ingest.", "efd_ingest_");
  rows.text("snapshot_last_error", "none");
  EXPECT_EQ(rows.flat(), "ingest.snapshot_last_error none\n");
  MetricsRegistry empty;
  EXPECT_EQ(rows.exposition(empty), "");
}

}  // namespace
