// The single machine-readable registry of structured-log event names.
//
// Every MMJOIN_LOG(LEVEL, "...") literal in src/ must name an entry here,
// and every entry must appear in the event table of docs/OBSERVABILITY.md --
// the `registry-drift` rule of scripts/mmjoin_lint parses this X-macro and
// cross-checks all three sets on every CI run. Event names are stable
// identifiers: dashboards and log pipelines key on them, so renaming one is
// a breaking change that must show up in review as a registry + doc edit.
//
// Format rule for the lint parser: one `X("name")` per line, nothing else on
// the line except an optional trailing comment and the macro continuation.

#ifndef MMJOIN_UTIL_LOG_EVENTS_H_
#define MMJOIN_UTIL_LOG_EVENTS_H_

#include <string_view>

#define MMJOIN_LOG_EVENT_REGISTRY(X)  \
  X("budget.replan")                  \
  X("budget.wave")                    \
  X("budget.reject")                  \
  X("mem.huge_fallback")              \
  X("numa.home_clamp")                \
  X("executor.watchdog")              \
  X("failpoint.hit")                  \
  X("failpoint.bad_spec")             \
  X("failpoint.unknown_name")         \
  X("joiner.invalid_options")         \
  X("stats_server.start")             \
  X("stats_server.stop")              \
  X("metrics.sigusr1_dump")           \
  X("metrics.sigusr1_dump_failed")    \
  X("metrics.sigusr1_dump_armed")     \
  X("service.admit")                  \
  X("service.reject")                 \
  X("service.complete")

namespace mmjoin::logging {

inline constexpr std::string_view kRegisteredEventNames[] = {
#define MMJOIN_LOG_EVENT_REGISTRY_ENTRY(name) name,
    MMJOIN_LOG_EVENT_REGISTRY(MMJOIN_LOG_EVENT_REGISTRY_ENTRY)
#undef MMJOIN_LOG_EVENT_REGISTRY_ENTRY
};

constexpr bool IsRegisteredEventName(std::string_view name) {
  for (const std::string_view registered : kRegisteredEventNames) {
    if (registered == name) return true;
  }
  return false;
}

}  // namespace mmjoin::logging

#endif  // MMJOIN_UTIL_LOG_EVENTS_H_
