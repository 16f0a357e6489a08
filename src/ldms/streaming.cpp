#include "ldms/streaming.hpp"

#include <stdexcept>

#include "ldms/sim_adapter.hpp"
#include "util/thread_pool.hpp"

namespace efd::ldms {

void ServiceFeed::job_opened(std::uint64_t job_id, std::uint32_t node_count) {
  const std::lock_guard lock(*feed_mutex_);
  if (!service_->open_job(job_id, node_count)) {
    throw std::invalid_argument("duplicate job id in plans");
  }
}

void ServiceFeed::job_closed(std::uint64_t job_id) {
  // Short executions never fill the last window; flush them so every
  // job resolves (to "unknown", the paper's safeguard).
  const std::lock_guard lock(*feed_mutex_);
  service_->close_job(job_id);
}

void stream_jobs(const telemetry::MetricRegistry& registry,
                 const std::vector<sim::ExecutionPlan>& plans,
                 const std::vector<std::unique_ptr<Sampler>>& samplers,
                 std::uint64_t seed, double duration_seconds,
                 const JobSinkFactory& factory, util::ThreadPool* pool) {
  util::ThreadPool& workers = pool != nullptr ? *pool : util::global_pool();

  util::parallel_for(workers, 0, plans.size(), [&](std::size_t i) {
    const sim::ExecutionPlan& plan = plans[i];
    if (plan.app == nullptr) throw std::invalid_argument("plan.app is null");
    const std::uint64_t job_id = plan.execution_id;

    std::unique_ptr<JobSink> sink = factory(plan);
    if (sink == nullptr) throw std::invalid_argument("factory returned null");
    sink->job_opened(job_id, plan.node_count);

    double duration = duration_seconds;
    if (duration <= 0.0) duration = plan.app->typical_duration(plan.input_size);

    auto sources = make_node_sources(registry, plan, seed);
    SamplingLoop loop(samplers);
    loop.run(job_id, {plan.app->name(), plan.input_size}, sources, duration,
             sink.get());
    sink->job_closed(job_id);
  });
}

StreamingRunReport run_concurrent_jobs(
    core::RecognitionService& service,
    const telemetry::MetricRegistry& registry,
    const std::vector<sim::ExecutionPlan>& plans,
    const std::vector<std::unique_ptr<Sampler>>& samplers, std::uint64_t seed,
    double duration_seconds, util::ThreadPool* pool) {
  std::mutex feed_mutex;
  stream_jobs(
      registry, plans, samplers, seed, duration_seconds,
      [&service, &feed_mutex](const sim::ExecutionPlan& plan) {
        return std::make_unique<ServiceFeed>(service, feed_mutex,
                                             plan.execution_id);
      },
      pool);

  StreamingRunReport report;
  report.jobs_run = plans.size();
  report.job_verdicts = service.drain_verdicts();
  report.verdicts = report.job_verdicts.size();
  for (const core::JobVerdict& verdict : report.job_verdicts) {
    if (verdict.result.recognized) ++report.recognized;
  }
  return report;
}

}  // namespace efd::ldms
