#include "serve/chaos.h"

#include "common/env.h"
#include "common/errors.h"
#include "common/random.h"

namespace bcclb {

ServeFaultPlan parse_serve_fault_spec(std::string_view spec) {
  ServeFaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view token = spec.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) {
      // "a=1,,b=2" is a typo, not an empty field — reject like any other
      // malformed token rather than silently skipping it.
      throw ServeError("serve faults: empty field in spec '" + std::string(spec) + "'");
    }

    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      throw ServeError("serve faults: token '" + std::string(token) + "' is not key=value");
    }
    const std::string_view key = token.substr(0, eq);
    const auto value = parse_env_u64(token.substr(eq + 1));
    if (!value) {
      throw ServeError("serve faults: '" + std::string(token) +
                       "' needs a whole non-negative number");
    }
    if (key == "seed") {
      plan.seed = *value;
    } else if (key == "crash-after") {
      plan.crash_after = *value;
    } else if (key == "stall-every") {
      plan.stall_every = *value;
    } else if (key == "stall-ms") {
      plan.stall_ms = *value;
    } else if (key == "corrupt-response-every") {
      plan.corrupt_response_every = *value;
    } else if (key == "corrupt-disk-every") {
      plan.corrupt_disk_every = *value;
    } else {
      throw ServeError("serve faults: unknown key '" + std::string(key) + "'");
    }
  }
  if (plan.stall_ms != 0 && plan.stall_every == 0) {
    throw ServeError("serve faults: stall-ms without stall-every never fires");
  }
  return plan;
}

std::optional<ServeFaultPlan> serve_fault_plan_from_env() {
  const auto spec = env_string("BCCLB_SERVE_FAULTS");
  if (!spec) return std::nullopt;
  return parse_serve_fault_spec(*spec);
}

bool ServeFaultInjector::should_crash_before_reply() {
  if (plan_.crash_after == 0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  return ++responses_ == plan_.crash_after;
}

std::uint64_t ServeFaultInjector::stall_for_response() {
  if (plan_.stall_every == 0 || plan_.stall_ms == 0) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  if (++scheduled_responses_ % plan_.stall_every != 0) return 0;
  ++stalls_injected_;
  return plan_.stall_ms;
}

bool ServeFaultInjector::corrupt_response(std::size_t artifact_size, std::size_t& byte_index,
                                          unsigned char& mask) {
  if (plan_.corrupt_response_every == 0 || artifact_size == 0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t ordinal = ++ok_responses_;
  if (ordinal % plan_.corrupt_response_every != 0) return false;
  const std::uint64_t h = splitmix64_mix(plan_.seed ^ ordinal);
  byte_index = static_cast<std::size_t>(h % artifact_size);
  mask = static_cast<unsigned char>(1u << ((h >> 32) % 8));
  ++responses_corrupted_;
  return true;
}

bool ServeFaultInjector::should_corrupt_disk_entry() {
  if (plan_.corrupt_disk_every == 0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (++disk_writes_ % plan_.corrupt_disk_every != 0) return false;
  ++disk_corrupted_;
  return true;
}

std::uint64_t ServeFaultInjector::stalls_injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stalls_injected_;
}

std::uint64_t ServeFaultInjector::responses_corrupted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return responses_corrupted_;
}

std::uint64_t ServeFaultInjector::disk_entries_corrupted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return disk_corrupted_;
}

}  // namespace bcclb
