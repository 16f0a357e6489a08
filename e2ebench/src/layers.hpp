#pragma once
/// \file layers.hpp
/// \brief The traced run's in-process pass: the workload's recorded
/// frames fed through the public layer functions on the serve path,
/// each call timed — FrameDecoder → push_batch → process_pending →
/// drain_verdicts → make_verdict_message, plus the Matcher, the probe
/// index, the rounding kernel, swap_dictionary and snapshot_capture.

#include <cstddef>

#include "workload.hpp"

namespace e2ebench {

struct LayerTimings {
  // ingest
  double decode_ns_per_sample = 0.0;
  double verdict_encode_ns = 0.0;   ///< make_verdict_message + encode_frame
  // online
  double enqueue_ns_per_sample = 0.0;
  double drain_ns_per_sample = 0.0;
  double drain_verdicts_ns = 0.0;   ///< per drain_verdicts() call that returned some
  double swap_us = 0.0;
  double snapshot_capture_ms = 0.0;  ///< median delta capture
  double snapshot_delta_bytes = 0.0;
  double snapshot_base_ms = 0.0;
  double snapshot_base_bytes = 0.0;
  std::size_t snapshot_open_streams = 0;
  // core
  double score_us_per_verdict = 0.0;
  double lookup_ns_per_key_a = 0.0;
  double lookup_ns_per_key_b1 = 0.0;
  double index_build_ms = 0.0;      ///< the dictionary this workload serves
  double round_ns_per_value = 0.0;
  // sanity: in-process verdicts of fully replayed jobs vs the reference
  std::size_t samples = 0;
  std::size_t verdicts_checked = 0;
  std::size_t verdict_mismatches = 0;
};

/// Replays up to \p sample_cap samples of lane 0's schedule in process.
LayerTimings run_layer_pass(const WorkloadSpec& spec, const Inputs& inputs,
                            const Schedule& schedule, std::size_t sample_cap);

}  // namespace e2ebench
