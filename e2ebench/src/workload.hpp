#pragma once
/// \file workload.hpp
/// \brief The benchmark's workloads and the inputs each run builds from
/// its seed before `serve` starts: dictionaries, pre-encoded frames, the
/// send schedule, and the reference verdict table.
///
/// Inputs follow the paper's evaluation: dictionary A is trained on the
/// dataset generated from seed S, and the jobs are held-out executions
/// generated from seed S+1, each streaming its full recorded series.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/wire_format.hpp"
#include "telemetry/dataset.hpp"

namespace e2ebench {

enum class Transport { kTcp, kShm };

/// One traffic mix. Every field is fixed per workload; nothing derives
/// from the build under test.
struct WorkloadSpec {
  std::string name;
  Transport transport = Transport::kTcp;
  /// Open loop: frames leave at fixed intended times (kFleetRateSps).
  /// Closed loop: socket back-pressure is the only pacing.
  bool open_loop = true;
  /// Jobs streaming at once (one job slot each).
  std::size_t concurrent_jobs = 0;
  /// Samples per kSampleBatch frame; 0 = one frame per job per tick,
  /// carrying one sample per node (the node-sampler shape).
  std::size_t batch_samples = 0;
  /// Data connections (TCP) or segments (shm) the jobs are spread over.
  std::size_t data_connections = 1;
  /// Snapshot chain plus a control connection alternating dictionary
  /// swaps B1 <-> B2; serve starts on B1.
  bool churn = false;
};

/// Offered load of the open-loop workloads, in samples/s. Fixed once at
/// about half of the fleet-tcp shape's saturation rate, measured on the
/// commit that introduced this benchmark (4 hardware threads, Intel
/// Xeon, gcc 12.2, Release): never derived from the build under test, so
/// a faster build is measured at the same load, not a heavier one.
inline constexpr double kFleetRateSps = 1000000.0;

/// Churn cadences: one dictionary swap per kSwapPeriod, one snapshot
/// capture per kSnapshotIntervalMs.
inline constexpr std::chrono::milliseconds kSwapPeriod{1000};
inline constexpr int kSnapshotIntervalMs = 1000;

/// Decoy keys added to A to form B1/B2.
inline constexpr std::size_t kDecoyKeys = 10000;

/// Verdicts a latency run needs so that p99 has >= 10 samples beyond it.
inline constexpr std::size_t kMinVerdicts = 1000;

/// Dataset knobs: repetitions of each (application, input) pair.
inline constexpr std::size_t kRepetitions = 10;

const std::vector<WorkloadSpec>& all_workloads();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

/// One encoded frame inside an execution's template stream.
struct FrameRef {
  std::uint32_t offset = 0;   ///< into ExecTemplate::bytes
  std::uint32_t size = 0;
  std::uint32_t samples = 0;  ///< 0 for kOpenJob / kCloseJob
};

/// Every frame one execution sends, pre-encoded with job id 0 (patched
/// per job at send time): kOpenJob, the sample batches, kCloseJob.
struct ExecTemplate {
  std::vector<std::uint8_t> bytes;
  std::vector<FrameRef> frames;
  /// The frame after which an OnlineRecognizer fed the same samples first
  /// reports ready() — the frame whose arrival fires the verdict.
  std::uint32_t closing_frame = 0;
  std::uint64_t samples = 0;
  std::uint32_t node_count = 0;
};

/// Byte offset of the job id inside kOpenJob, kSampleBatch and kCloseJob
/// frames (u32 length | u8 version | u8 type | u64 job id).
inline constexpr std::size_t kJobIdOffset = 6;

/// Writes \p job_id into an encoded job frame (little endian).
void patch_job_id(std::uint8_t* frame, std::uint64_t job_id);

/// The three dictionaries a run serves, as EFD-DICT-V1 text.
struct Dictionaries {
  std::string a;   ///< EFD-DICT-V1 text of the trained dictionary
  std::string b1;  ///< a + kDecoyKeys decoys (variant 1)
  std::string b2;  ///< a + kDecoyKeys decoys (variant 2)
};

/// Returns \p dictionary_text plus \p count decoy keys: rounded means far
/// outside any real value, under the application "decoy" that no job
/// carries. Different \p variant values give different key sets.
std::string add_decoys(const std::string& dictionary_text, int variant,
                       std::size_t count);

/// One expected verdict per execution template.
using ReferenceTable = std::vector<efd::ingest::WireVerdict>;

struct ScheduledFrame {
  std::uint32_t job = 0;    ///< index into Schedule::jobs
  std::uint32_t frame = 0;  ///< index into the job's template frames
  std::int64_t due_ns = 0;  ///< intended send time after run start
};

struct ScheduledJob {
  std::uint64_t job_id = 0;  ///< == index + 1
  std::uint32_t exec = 0;    ///< template index
  std::uint32_t lane = 0;    ///< data connection
};

struct Schedule {
  std::vector<ScheduledJob> jobs;
  std::vector<std::vector<ScheduledFrame>> lanes;
  std::uint64_t samples = 0;
  std::int64_t last_due_ns = 0;
};

struct ScheduleParams {
  std::size_t slots = 1;
  std::size_t lanes = 1;
  /// Samples/s of the open loop; 0 = closed loop (no intended times).
  double rate_sps = 0.0;
  /// Once this many samples are scheduled, slots start no new job; the
  /// jobs already running stream to their end.
  std::uint64_t sample_budget = 0;
  /// Slot s starts at round s * stagger_rounds / slots, spreading the
  /// jobs' phases so verdicts arrive evenly instead of in waves.
  std::size_t stagger_rounds = 0;
  std::uint64_t seed = 0;
};

/// Round-robin over the active slots, one sample frame per slot per
/// round (its kOpenJob/kCloseJob ride along). Job k draws its execution
/// from a seeded permutation of the templates. Deterministic in params.
Schedule build_schedule(const std::vector<ExecTemplate>& execs,
                        const ScheduleParams& params);

/// Everything a run needs, built from the seed before serve starts.
struct Inputs {
  Dictionaries dictionaries;
  std::vector<ExecTemplate> execs;
  ReferenceTable reference;        ///< against A
  ReferenceTable reference_b1;     ///< against B1 (must equal reference)
  efd::telemetry::Dataset held_out;  ///< the executions behind execs
  std::string metric;
};

Inputs build_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// One execution's recorded series, the input of make_template().
struct ExecSamples {
  std::uint32_t node_count = 0;
  /// series[node][t]
  std::vector<std::vector<double>> series;
};
ExecTemplate make_template(const ExecSamples& samples,
                           const std::string& metric,
                           std::size_t batch_samples);

/// Runs every template through a single-threaded RecognitionService over
/// \p dictionary_text and returns its verdicts; also fills each
/// template's closing_frame (from an OnlineRecognizer over the same
/// dictionary) when \p set_closing is true.
ReferenceTable build_reference(const std::string& dictionary_text,
                               std::vector<ExecTemplate>& execs,
                               bool set_closing);

}  // namespace e2ebench
