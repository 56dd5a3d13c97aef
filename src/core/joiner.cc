#include "core/joiner.h"

#include <string>

#include "obs/trace.h"
#include "util/log.h"

namespace mmjoin::core {

Status JoinerOptions::Validate() const {
  if (num_nodes < 1) {
    return InvalidArgumentError("num_nodes=" + std::to_string(num_nodes) +
                                " must be >= 1");
  }
  if (num_threads < 1 || num_threads > join::JoinConfig::kMaxThreads) {
    return InvalidArgumentError(
        "num_threads=" + std::to_string(num_threads) + " outside [1, " +
        std::to_string(join::JoinConfig::kMaxThreads) + "]");
  }
  return OkStatus();
}

Joiner::Joiner(const JoinerOptions& options)
    : system_(options.num_nodes, options.page_policy),
      num_threads_(options.num_threads),
      executor_(std::make_unique<thread::Executor>(options.num_threads,
                                                   options.num_nodes)) {
  const Status status = options.Validate();
  if (!status.ok()) {
    MMJOIN_LOG(kError, "joiner.invalid_options")
        .Field("status", status.ToString());
  }
  MMJOIN_CHECK(status.ok());
}

StatusOr<std::unique_ptr<Joiner>> Joiner::Create(const JoinerOptions& options) {
  MMJOIN_RETURN_IF_ERROR(options.Validate());
  return std::make_unique<Joiner>(options);
}

StatusOr<join::JoinResult> Joiner::Run(join::Algorithm algorithm,
                                       const workload::Relation& build,
                                       const workload::Relation& probe) {
  return Run(algorithm, join::JoinConfig{}, build, probe);
}

StatusOr<join::JoinResult> Joiner::Run(join::Algorithm algorithm,
                                       const join::JoinConfig& base_config,
                                       const workload::Relation& build,
                                       const workload::Relation& probe) {
  join::JoinConfig config = base_config;
  config.num_threads = num_threads_;
  config.executor = executor_.get();
  obs::ObsScope scope(join::NameOf(algorithm), obs::SpanKind::kRun);
  return join::RunJoin(algorithm, &system_, config, build, probe);
}

StatusOr<std::vector<join::MatchedPair>> Joiner::RunMaterialized(
    join::Algorithm algorithm, const workload::Relation& build,
    const workload::Relation& probe) {
  join::JoinIndexSink sink(num_threads_);
  sink.Reserve(probe.size());  // FK joins: ~one match per probe tuple
  join::JoinConfig config;
  config.sink = &sink;
  MMJOIN_RETURN_IF_ERROR(Run(algorithm, config, build, probe).status());
  return sink.Gather();
}

}  // namespace mmjoin::core
