// Figure 17 / Appendix C: holes in the key domain -- build keys stratified
// over a domain k x |R| for k = 1..20.
//
// Paper result: NOPA barely cares (its global array grows but accesses were
// random anyway); the partition-based ARRAY joins (PRAiS/CPRA) degrade as
// the per-partition array outgrows the caches -- UNLESS the partition count
// is adapted to the domain (dashed lines), which restores them; hash-table
// variants take only a small collision hit.

#include "bench_common.h"
#include "partition/model.h"
#include "util/bits.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, bench::BenchFlags());
  const bench::BenchEnv env =
      bench::BenchEnv::FromCli(cli, 1u << 20, 10u << 20);

  bench::PrintBanner(
      "Figure 17 (holes in the key domain)",
      "Throughput vs domain-size factor k (domain = k x |R|). 'adapted' "
      "columns re-derive the radix bits from the DOMAIN instead of |R| so "
      "per-partition arrays keep fitting L2 (the paper's dashed lines).",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  const partition::CacheSpec cache = partition::DetectHostCacheSpec();
  const std::vector<join::Algorithm> algorithms = {
      join::Algorithm::kNOP,   join::Algorithm::kNOPA,
      join::Algorithm::kCPRL,  join::Algorithm::kCPRA,
      join::Algorithm::kPROiS, join::Algorithm::kPRLiS,
      join::Algorithm::kPRAiS};

  TablePrinter table([&] {
    std::vector<std::string> headers{"k"};
    for (const auto algorithm : algorithms) {
      headers.push_back(join::NameOf(algorithm));
    }
    headers.push_back("CPRA_adapted");
    headers.push_back("PRAiS_adapted");
    return headers;
  }());

  for (const uint64_t k : {1ull, 2ull, 4ull, 8ull, 12ull, 16ull, 20ull}) {
    workload::Relation build =
        workload::MakeSparseBuild(&system, env.build_size, k, env.seed).value();
    workload::Relation probe = workload::MakeProbeFromBuild(
        &system, env.probe_size, build, env.seed + 1).value();
    std::vector<std::string> row{std::to_string(k)};

    join::JoinConfig config;
    config.num_threads = env.threads;
    for (const auto algorithm : algorithms) {
      const join::JoinResult result = bench::RunMedian(
          algorithm, &system, config, build, probe, env.repeat);
      row.push_back(TablePrinter::FormatDouble(
          result.ThroughputMtps(env.build_size, env.probe_size), 1));
    }

    // Domain-adapted bits: per-partition array (4 B/entry) must fit L2.
    const uint64_t domain = build.key_domain();
    join::JoinConfig adapted = config;
    adapted.radix_bits = std::max<uint32_t>(
        1, CeilLog2(std::max<uint64_t>(domain * 4 / cache.l2_bytes, 2)));
    for (const auto algorithm :
         {join::Algorithm::kCPRA, join::Algorithm::kPRAiS}) {
      const join::JoinResult result = bench::RunMedian(
          algorithm, &system, adapted, build, probe, env.repeat);
      row.push_back(TablePrinter::FormatDouble(
          result.ThroughputMtps(env.build_size, env.probe_size), 1));
    }
    table.AddRow(row);
  }
  table.Print();
  bench::PrintExecutorStats();
  return 0;
}
