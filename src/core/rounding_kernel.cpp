#include "core/rounding_kernel.hpp"

#include <cstdlib>
#include <string>

namespace efd::core {

namespace detail {

// Built with the same std::pow the legacy path called at runtime, so the
// scale bits (including the inf/0 entries past the double range) match
// exactly. Dynamic init is fine: nothing in this project rounds during
// static initialization.
const std::array<double, 2 * kPow10Bias + 1> kPow10 = [] {
  std::array<double, 2 * kPow10Bias + 1> table{};
  for (int k = -kPow10Bias; k <= kPow10Bias; ++k) {
    table[static_cast<std::size_t>(k + kPow10Bias)] =
        std::pow(10.0, static_cast<double>(k));
  }
  return table;
}();

// floor((e-1023)*log10(2)). The product is never within ~1e-3 of an
// integer for |e-1023| <= 1023 (continued-fraction bound on log10(2)),
// so double arithmetic computes the floor exactly.
const std::array<std::int16_t, 2048> kDecadeEstimate = [] {
  std::array<std::int16_t, 2048> table{};
  for (int e = 1; e < 2047; ++e) {
    table[static_cast<std::size_t>(e)] = static_cast<std::int16_t>(
        std::floor(static_cast<double>(e - 1023) * std::log10(2.0)));
  }
  return table;
}();

}  // namespace detail

namespace {

// Shared loop body for every target build. round_value screens specials
// and clamps depth per element; the compiler hoists the table bases and
// vectorizes the arithmetic under the wider target.
inline void round_lanes_body(std::span<double> values, int depth) noexcept {
  if (depth < 1) depth = 1;
  if (depth > kKernelMaxDepth) depth = kKernelMaxDepth;
  for (double& value : values) {
    value = round_value(value, depth);
  }
}

}  // namespace

namespace {

// Shared loop body of accumulate_lanes for every target build. The
// per-lane work is branchless (masked selects over parallel arrays), so
// the wider target vectorizes it; the sum update uses the blend form
// `in ? sum + value : sum` — NOT `sum += in ? value : 0.0`, because
// adding a signed zero is not an IEEE identity (-0.0 + 0.0 == +0.0) and
// would break scalar/AVX2 bit parity.
inline std::size_t accumulate_lanes_body(const AccumulatorLanes& lanes,
                                         std::int32_t t,
                                         double value) noexcept {
  std::size_t completed = 0;
  for (std::size_t i = 0; i < lanes.size; ++i) {
    const std::int32_t last = lanes.last_ts[i];
    const std::int32_t end = lanes.ends[i];
    const std::uint64_t count = lanes.counts[i];
    const bool fresh = t > last;  // dup/out-of-order ticks change nothing
    const bool in_window = fresh & (t >= lanes.begins[i]) & (t < end);
    const bool was_complete = (last >= end - 1) & (count > 0);
    const double sum = lanes.sums[i];
    lanes.sums[i] = in_window ? sum + value : sum;
    const std::uint64_t next_count = count + (in_window ? 1u : 0u);
    lanes.counts[i] = next_count;
    // last_t advances on every fresh tick, in-window or not — the same
    // monotone clock WindowAccumulator::push keeps.
    const std::int32_t next_last = fresh ? t : last;
    lanes.last_ts[i] = next_last;
    const bool now_complete = (next_last >= end - 1) & (next_count > 0);
    completed += static_cast<std::size_t>(now_complete & !was_complete);
  }
  return completed;
}

}  // namespace

void round_lanes_scalar(std::span<double> values, int depth) noexcept {
  round_lanes_body(values, depth);
}

std::size_t accumulate_lanes_scalar(const AccumulatorLanes& lanes,
                                    std::int32_t t, double value) noexcept {
  return accumulate_lanes_body(lanes, t, value);
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2,fma"))) void round_lanes_avx2(
    std::span<double> values, int depth) noexcept {
  // Same body, compiled for AVX2. No a*b+c shapes exist in round_normal
  // (fabs/floor/copysign separate every multiply from every add), so
  // enabling FMA here cannot contract anything and the results stay
  // bit-identical to the scalar build — test_hot_path asserts this.
  round_lanes_body(values, depth);
}

__attribute__((target("avx2,fma"))) std::size_t accumulate_lanes_avx2(
    const AccumulatorLanes& lanes, std::int32_t t, double value) noexcept {
  // One add and three compares per lane — nothing FMA-contractible, so
  // this build is bit-identical to the scalar one by construction.
  return accumulate_lanes_body(lanes, t, value);
}
#else
void round_lanes_avx2(std::span<double> values, int depth) noexcept {
  round_lanes_body(values, depth);
}

std::size_t accumulate_lanes_avx2(const AccumulatorLanes& lanes,
                                  std::int32_t t, double value) noexcept {
  return accumulate_lanes_body(lanes, t, value);
}
#endif

namespace {

using LanesFn = void (*)(std::span<double>, int) noexcept;
using AccumFn = std::size_t (*)(const AccumulatorLanes&, std::int32_t,
                                double) noexcept;

bool simd_disabled_by_env() {
  const char* env = std::getenv("EFD_SIMD");
  if (env == nullptr) return false;
  const std::string value(env);
  return value == "off" || value == "OFF" || value == "0" ||
         value == "scalar";
}

LanesFn pick_kernel(const char** name, AccumFn* accumulate) {
#if defined(__x86_64__) || defined(__i386__)
  if (!simd_disabled_by_env() && __builtin_cpu_supports("avx2")) {
    *name = "avx2";
    *accumulate = &accumulate_lanes_avx2;
    return &round_lanes_avx2;
  }
#else
  (void)simd_disabled_by_env;
#endif
  *name = "scalar";
  *accumulate = &accumulate_lanes_scalar;
  return &round_lanes_scalar;
}

struct Dispatch {
  const char* name = "scalar";
  LanesFn fn = &round_lanes_scalar;
  AccumFn accumulate = &accumulate_lanes_scalar;
  Dispatch() { fn = pick_kernel(&name, &accumulate); }
};

const Dispatch& dispatch() {
  static const Dispatch chosen;
  return chosen;
}

}  // namespace

void round_lanes(std::span<double> values, int depth) noexcept {
  dispatch().fn(values, depth);
}

std::size_t accumulate_lanes(const AccumulatorLanes& lanes, std::int32_t t,
                             double value) noexcept {
  return dispatch().accumulate(lanes, t, value);
}

bool simd_active() noexcept { return dispatch().fn != &round_lanes_scalar; }

const char* kernel_name() noexcept { return dispatch().name; }

}  // namespace efd::core
