// Tests of the end-to-end benchmark's own logic: order statistics,
// scrape arithmetic, schedule determinism, intended-time latency under a
// generator stall, the reference verdict check, and decoy dictionaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

#include "ingest/pipeline.hpp"
#include "load_driver.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace e2ebench {
namespace {

using efd::ingest::DecodeStatus;
using efd::ingest::FrameDecoder;
using efd::ingest::Message;
using efd::ingest::MessageType;

TEST(Percentile, NearestRankAndTenBeyondRule) {
  EXPECT_EQ(percentile_rank(1000, 0.99), 990u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  // 999 samples: rank ceil(989.01) = 990 leaves only 9 beyond.
  EXPECT_EQ(percentile_rank(999, 0.99), 990u);
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_FALSE(percentile_supported(0, 0.5));
  EXPECT_EQ(percentile_rank(1, 0.99), 1u);

  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(percentile(values, 0.50), 50.0);
  EXPECT_EQ(percentile(values, 0.99), 99.0);
  EXPECT_EQ(percentile(values, 1.0), 100.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Scrape, ParsesFamiliesLabelsAndBuckets) {
  const Scrape scrape = Scrape::parse(
      "# TYPE efd_source_pool_hits counter\n"
      "efd_source_pool_hits{source=\"0\",name=\"tcp:0\"} 30\n"
      "efd_source_pool_hits{source=\"1\",name=\"shm:x\"} 12\n"
      "efd_source_pool_hits_extra 1000\n"
      "efd_build_info{version=\"0.9.0\",sha=\"abc123\",kernel=\"avx2\"} 1\n"
      "lat_bucket{stage=\"decode\",le=\"1024\"} 2\n"
      "lat_bucket{stage=\"decode\",le=\"2048\"} 6\n"
      "lat_bucket{stage=\"decode\",le=\"+Inf\"} 8\n"
      "lat_bucket{stage=\"score\",le=\"1024\"} 99\n");
  EXPECT_EQ(scrape.sum_family("efd_source_pool_hits"), 42.0);
  EXPECT_EQ(scrape.label("efd_build_info", "sha"), "abc123");
  EXPECT_EQ(scrape.label("efd_build_info", "kernel"), "avx2");
  const auto buckets = scrape.buckets("lat", "stage=\"decode\"");
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], std::make_pair(1024.0, 2.0));
  EXPECT_TRUE(std::isinf(buckets[2].first));
  EXPECT_EQ(buckets[2].second, 8.0);
}

TEST(Scrape, HistogramQuantileOfTheDelta) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, double>> before = {
      {1024, 10}, {2048, 10}, {4096, 10}, {inf, 10}};
  // Ten new observations: 4 in (1024, 2048], 6 in (2048, 4096].
  const std::vector<std::pair<double, double>> after = {
      {1024, 10}, {2048, 14}, {4096, 20}, {inf, 20}};
  // Rank 5 is the first of the six in (2048, 4096]: 2048 + 2048 * 1/6.
  EXPECT_NEAR(histogram_quantile(before, after, 0.5), 2048.0 + 2048.0 / 6.0, 1e-9);
  EXPECT_NEAR(histogram_quantile(before, after, 0.4), 2048.0, 1e-9);
  EXPECT_EQ(histogram_quantile(before, before, 0.5), 0.0);
  // Observations past the last finite edge report that edge.
  const std::vector<std::pair<double, double>> overflow = {
      {1024, 10}, {2048, 10}, {4096, 10}, {inf, 11}};
  EXPECT_EQ(histogram_quantile(before, overflow, 0.99), 4096.0);
}

/// A one-node execution of \p ticks samples.
ExecTemplate tiny_template(int ticks, std::size_t batch = 0) {
  ExecSamples samples;
  samples.node_count = 1;
  samples.series.resize(1);
  for (int t = 0; t < ticks; ++t) samples.series[0].push_back(100.0 + t);
  ExecTemplate exec = make_template(samples, "m", batch);
  exec.closing_frame = static_cast<std::uint32_t>(exec.frames.size() - 1);
  return exec;
}

TEST(Workload, PatchedTemplateDecodesToTheJob) {
  ExecTemplate exec = tiny_template(5, 2);
  ASSERT_EQ(exec.frames.size(), 5u);  // open, 2 + 2 + 1 samples, close
  EXPECT_EQ(exec.samples, 5u);
  for (const FrameRef& ref : exec.frames) {
    patch_job_id(exec.bytes.data() + ref.offset, 0x0102030405060708ull);
  }
  FrameDecoder decoder;
  decoder.feed(exec.bytes);
  Message message;
  std::size_t frames = 0;
  while (decoder.next(message) == DecodeStatus::kMessage) {
    EXPECT_EQ(message.job_id, 0x0102030405060708ull);
    ++frames;
  }
  EXPECT_EQ(frames, exec.frames.size());
}

TEST(Workload, ScheduleIsDeterministicInTheSeed) {
  std::vector<ExecTemplate> execs;
  for (int i = 0; i < 7; ++i) execs.push_back(tiny_template(4 + i));
  ScheduleParams params;
  params.slots = 16;
  params.lanes = 2;
  params.rate_sps = 1000.0;
  params.sample_budget = 2000;
  params.stagger_rounds = 5;
  params.seed = 42;
  const Schedule a = build_schedule(execs, params);
  const Schedule b = build_schedule(execs, params);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].exec, b.jobs[i].exec);
    EXPECT_EQ(a.jobs[i].lane, b.jobs[i].lane);
    EXPECT_EQ(a.jobs[i].job_id, i + 1);
  }
  ASSERT_EQ(a.lanes.size(), 2u);
  for (std::size_t lane = 0; lane < 2; ++lane) {
    ASSERT_EQ(a.lanes[lane].size(), b.lanes[lane].size());
    for (std::size_t i = 0; i < a.lanes[lane].size(); ++i) {
      EXPECT_EQ(a.lanes[lane][i].job, b.lanes[lane][i].job);
      EXPECT_EQ(a.lanes[lane][i].frame, b.lanes[lane][i].frame);
      EXPECT_EQ(a.lanes[lane][i].due_ns, b.lanes[lane][i].due_ns);
      if (i > 0) EXPECT_GE(a.lanes[lane][i].due_ns, a.lanes[lane][i - 1].due_ns);
    }
  }
  // Every job streams its whole template, in order, on its own lane, and
  // the samples run past the budget only by the jobs already started.
  std::vector<std::uint32_t> next(a.jobs.size(), 0);
  for (std::size_t lane = 0; lane < 2; ++lane) {
    for (const ScheduledFrame& frame : a.lanes[lane]) {
      EXPECT_EQ(a.jobs[frame.job].lane, lane);
      EXPECT_EQ(frame.frame, next[frame.job]++);
    }
  }
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(next[j], execs[a.jobs[j].exec].frames.size());
  }
  EXPECT_GE(a.samples, params.sample_budget);
  // 1000 samples/s: the last intended time matches the sample count.
  EXPECT_NEAR(static_cast<double>(a.last_due_ns) / 1e9,
              static_cast<double>(a.samples) / 1000.0, 0.05);

  params.seed = 43;
  const Schedule c = build_schedule(execs, params);
  bool differs = c.jobs.size() != a.jobs.size();
  for (std::size_t i = 0; !differs && i < a.jobs.size(); ++i) {
    differs = a.jobs[i].exec != c.jobs[i].exec;
  }
  EXPECT_TRUE(differs);
}

/// In-memory stand-in for serve: answers every kCloseJob with a verdict
/// at once. Optionally stalls the calling (generator) thread inside one
/// write, the way a descheduled or blocked generator would.
class EchoServer final : public Channel {
 public:
  explicit EchoServer(std::int64_t stall_ns = 0, std::size_t stall_at_write = 0)
      : stall_ns_(stall_ns), stall_at_write_(stall_at_write) {
    decoder_.set_buffer_pool(nullptr);
  }

  std::size_t write_some(const std::uint8_t* data, std::size_t size) override {
    if (stall_ns_ > 0 && ++writes_ == stall_at_write_) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns_));
    }
    decoder_.feed(data, size);
    Message message;
    while (decoder_.next(message) == DecodeStatus::kMessage) {
      if (message.type != MessageType::kCloseJob) continue;
      Message verdict;
      verdict.type = MessageType::kVerdict;
      verdict.job_id = message.job_id;
      verdict.verdict.application = "app";
      efd::ingest::encode_frame(verdict, replies_);
    }
    return size;
  }

  std::size_t read_some(std::uint8_t* out, std::size_t size) override {
    const std::size_t n = std::min(size, replies_.size());
    std::copy(replies_.begin(), replies_.begin() + static_cast<std::ptrdiff_t>(n), out);
    replies_.erase(replies_.begin(), replies_.begin() + static_cast<std::ptrdiff_t>(n));
    return n;
  }

  int fd() const override { return -1; }

 private:
  std::int64_t stall_ns_;
  std::size_t stall_at_write_;
  std::size_t writes_ = 0;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> replies_;
};

TEST(LoadDriver, GeneratorStallShowsUpInIntendedTimeLatency) {
  std::vector<ExecTemplate> execs = {tiny_template(3)};
  ScheduleParams params;
  params.slots = 20;
  params.lanes = 1;
  params.rate_sps = 20000.0;  // one frame every 50 µs
  params.sample_budget = 3000;
  params.seed = 1;
  const Schedule schedule = build_schedule(execs, params);
  DriveConfig config;
  config.open_loop = true;
  config.drain_timeout_ns = 2'000'000'000;

  EchoServer calm;
  const DriveResult baseline = drive(execs, schedule, {&calm}, nullptr, config);
  ASSERT_TRUE(baseline.error.empty()) << baseline.error;
  const std::vector<double> calm_latency = verdict_latencies_us(baseline);
  ASSERT_EQ(calm_latency.size(), schedule.jobs.size());

  // 40 ms stall about a third of the way in: every job whose closing
  // frame fell due during it waits for the stall, and its latency —
  // measured from the intended time — must say so.
  const std::int64_t stall_ns = 40'000'000;
  EchoServer stalled(stall_ns, 200);
  const DriveResult hit = drive(execs, schedule, {&stalled}, nullptr, config);
  ASSERT_TRUE(hit.error.empty()) << hit.error;
  const std::vector<double> stall_latency = verdict_latencies_us(hit);
  ASSERT_EQ(stall_latency.size(), schedule.jobs.size());
  const double worst = *std::max_element(stall_latency.begin(), stall_latency.end());
  EXPECT_GE(worst, 0.9 * stall_ns / 1e3);
  // Jobs closing inside the stall window are all late: at 20 000
  // samples/s and 3 samples per job that is ~260 jobs in 40 ms.
  const auto late = std::count_if(stall_latency.begin(), stall_latency.end(),
                                  [](double us) { return us > 10'000.0; });
  EXPECT_GE(late, 100);
  EXPECT_GT(percentile(stall_latency, 0.99), 10'000.0);
  // The generator reports itself late, so the stall is never mistaken
  // for a slow server.
  EXPECT_GE(percentile(hit.lag_us, 1.0), 0.9 * stall_ns / 1e3);
  EXPECT_LT(percentile(calm_latency, 0.50), 10'000.0);
}

TEST(LoadDriver, ReferenceCheckCatchesAWrongVerdict) {
  std::vector<ExecTemplate> execs = {tiny_template(3), tiny_template(4)};
  ScheduleParams params;
  params.slots = 4;
  params.lanes = 1;
  params.rate_sps = 0.0;
  params.sample_budget = 40;
  params.seed = 9;
  const Schedule schedule = build_schedule(execs, params);
  ReferenceTable reference(2);
  reference[0].application = "lu";
  reference[0].label = "lu_X";
  reference[1].application = "sp";
  reference[1].label = "sp_Y";

  DriveResult result;
  const std::size_t jobs = schedule.jobs.size();
  result.opened.assign(jobs, 1);
  result.close_ns.assign(jobs, 1);
  result.verdict_ns.assign(jobs, 2);
  result.verdicts.resize(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    result.verdicts[i] = reference[schedule.jobs[i].exec];
  }
  VerdictCheck check = check_verdicts(schedule, result, reference);
  EXPECT_EQ(check.expected, jobs);
  EXPECT_EQ(check.wrong, 0u);
  EXPECT_EQ(check.missing, 0u);

  ReferenceTable tampered = reference;
  tampered[schedule.jobs[0].exec].matched += 1;
  check = check_verdicts(schedule, result, tampered);
  EXPECT_GE(check.wrong, 1u);
  EXPECT_FALSE(check.first_mismatch.empty());

  result.verdict_ns[1] = 0;  // never arrived
  check = check_verdicts(schedule, result, reference);
  EXPECT_EQ(check.missing, 1u);
  EXPECT_EQ(check.received, jobs - 1);
}

TEST(Workload, DecoysLeaveTheReferenceTableUnchanged) {
  Inputs inputs = build_inputs(*find_workload("churn-tcp"), 5);
  ASSERT_FALSE(inputs.reference.empty());
  EXPECT_EQ(inputs.reference_b1, inputs.reference);
  EXPECT_EQ(build_reference(inputs.dictionaries.b2, inputs.execs, false),
            inputs.reference);
  EXPECT_NE(inputs.dictionaries.b1, inputs.dictionaries.b2);
  const auto lines = [](const std::string& text) {
    return std::count(text.begin(), text.end(), '\n');
  };
  EXPECT_EQ(lines(inputs.dictionaries.b1),
            lines(inputs.dictionaries.a) + static_cast<long>(kDecoyKeys));
  // B1 and B2 must travel as one kSwapDictionary frame.
  EXPECT_LT(inputs.dictionaries.b1.size() + 16, efd::ingest::kMaxFrameBytes);
  EXPECT_LT(inputs.dictionaries.b2.size() + 16, efd::ingest::kMaxFrameBytes);
  // Jobs close their last window before their stream ends.
  for (const ExecTemplate& exec : inputs.execs) {
    EXPECT_GT(exec.closing_frame, 0u);
    EXPECT_LT(exec.closing_frame + 1, exec.frames.size());
  }
}

}  // namespace
}  // namespace e2ebench
