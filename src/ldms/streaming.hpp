#pragma once
/// \file streaming.hpp
/// \brief End-to-end concurrent monitoring of a simulated cluster.
///
/// Glues the layers together: for every execution plan, simulated node
/// sources (sim_adapter) are driven by the LDMS sampling loop
/// (collector), and every sample is published as it is taken — either
/// straight into a RecognitionService (ServiceFeed, the in-process
/// deployment) or to any JobSink a factory provides, e.g. an
/// ingest::TransportFeed that frames the samples onto a TCP socket or
/// in-process ring toward a remote service. Many jobs are in flight at
/// once across a thread pool — the deployment mode the paper motivates
/// but never builds.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/online/recognition_service.hpp"
#include "ldms/collector.hpp"
#include "ldms/sampler.hpp"
#include "sim/cluster_sim.hpp"
#include "telemetry/metric_registry.hpp"

namespace efd::util {
class ThreadPool;
}

namespace efd::ldms {

/// SampleSink with job lifecycle hooks: a sink learns when its job's
/// stream opens and closes, so transport-backed sinks can frame the
/// lifecycle onto the wire. Lifecycle calls happen on the job's own
/// sampling thread, before the first and after the last publish().
class JobSink : public SampleSink {
 public:
  virtual void job_opened(std::uint64_t job_id, std::uint32_t node_count) {
    (void)job_id;
    (void)node_count;
  }
  virtual void job_closed(std::uint64_t job_id) { (void)job_id; }
};

/// JobSink that forwards every collected sample into a service under a
/// fixed job id (one instance per concurrently monitored job). A service
/// has one owner at a time, so every feed of one service shares
/// \p feed_mutex and holds it for each call into the service.
class ServiceFeed final : public JobSink {
 public:
  ServiceFeed(core::RecognitionService& service, std::mutex& feed_mutex,
              std::uint64_t job_id)
      : service_(&service), feed_mutex_(&feed_mutex), job_id_(job_id) {}

  void job_opened(std::uint64_t job_id, std::uint32_t node_count) override;

  void publish(std::uint32_t node_id, std::string_view metric_name, int t,
               double value) override {
    const std::lock_guard lock(*feed_mutex_);
    service_->push(job_id_, node_id, metric_name, t, value);
  }

  void job_closed(std::uint64_t job_id) override;

 private:
  core::RecognitionService* service_;
  std::mutex* feed_mutex_;
  std::uint64_t job_id_;
};

/// Builds the per-job sink a streamed plan publishes into. Called on the
/// job's sampling thread; the returned sink is used by that thread only.
using JobSinkFactory = std::function<std::unique_ptr<JobSink>(
    const sim::ExecutionPlan& plan)>;

/// Outcome summary of a concurrent monitoring run.
struct StreamingRunReport {
  std::size_t jobs_run = 0;       ///< plans executed
  std::size_t verdicts = 0;       ///< verdicts produced (fired + flushed)
  std::size_t recognized = 0;     ///< verdicts with a matched application
  std::vector<core::JobVerdict> job_verdicts;  ///< ordered by completion
};

/// Streams every plan as a concurrent job into sinks from \p factory:
/// job_opened -> full LDMS sampling loop publishing each sample ->
/// job_closed, fanned out across \p pool (global pool when null); each
/// job's own sampling loop is sequential, exactly like a real per-job
/// daemon. Verdict collection is the sink's business (in-process sinks
/// complete synchronously; transport sinks' verdicts return over the
/// transport).
///
/// \param duration_seconds 0 means each plan's app-typical duration.
/// Must be called from outside the pool's own workers.
void stream_jobs(const telemetry::MetricRegistry& registry,
                 const std::vector<sim::ExecutionPlan>& plans,
                 const std::vector<std::unique_ptr<Sampler>>& samplers,
                 std::uint64_t seed, double duration_seconds,
                 const JobSinkFactory& factory,
                 util::ThreadPool* pool = nullptr);

/// Monitors every plan as a concurrent job directly against \p service
/// (job id = plan.execution_id) and drains the verdicts — stream_jobs
/// with a ServiceFeed factory whose feeds share one mutex, so the
/// sampling loops run in parallel while service calls take turns. Jobs
/// still open at the end (too short to fill every window) are
/// force-closed so every plan yields a verdict.
StreamingRunReport run_concurrent_jobs(
    core::RecognitionService& service,
    const telemetry::MetricRegistry& registry,
    const std::vector<sim::ExecutionPlan>& plans,
    const std::vector<std::unique_ptr<Sampler>>& samplers, std::uint64_t seed,
    double duration_seconds = 0.0, util::ThreadPool* pool = nullptr);

}  // namespace efd::ldms
