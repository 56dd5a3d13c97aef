// Bushy two-join plan on the vectorized exec:: pipeline (docs/PIPELINE.md).
//
// Builds the plan
//
//        Agg
//         |
//        |><|   (top join, non-unique build side)
//       .    .
//    |><|    |><|        J1 = A |><| B,  J2 = C |><| D
//    .   .   .   .
//   A    B  C    D
//
// as three pipelines: the two lower joins each run scan -> HashJoinProbe ->
// JoinIndexMaterialize; their indexes are re-keyed into <key, position>
// columns; the top pipeline scans one index, filters it, probes a hash
// table built over the other, and counts the surviving pairs. A scalar
// histogram reference verifies the match count.
//
//   ./bushy_join [--dim=4096] [--fact1=200000] [--fact2=150000] [--threads=4]
//                [--threshold=0.25]

#include <cstdio>
#include <vector>

#include "core/mmjoin.h"
#include "exec/operators.h"
#include "exec/pipeline.h"
#include "util/cli.h"

namespace {

using namespace mmjoin;

// Keeps keys in [0, bound) -- makes the top pipeline's chunks sparse so the
// compactor has work to do.
class KeyRangeFilter final : public exec::Operator {
 public:
  explicit KeyRangeFilter(uint32_t bound) : bound_(bound) {}
  const char* name() const override { return "bushy.key_filter"; }
  int output_columns() const override { return 2; }
  bool is_filter() const override { return true; }
  void Apply(int tid, exec::DataChunk* chunk) override {
    (void)tid;
    const uint32_t* keys = chunk->column(exec::kScanKeyCol);
    exec::RefineSelection(chunk, [&](const exec::DataChunk&, uint32_t row) {
      return keys[row] < bound_;
    });
  }

 private:
  uint32_t bound_;
};

// Runs scan(probe) -> HashJoinProbe(build) -> JoinIndexMaterialize and
// returns the gathered join index.
std::vector<join::MatchedPair> JoinToIndex(numa::NumaSystem* system,
                                           const exec::PipelineConfig& config,
                                           ConstTupleSpan build,
                                           uint64_t key_domain,
                                           ConstTupleSpan probe,
                                           const char* label) {
  exec::TupleScan scan(probe);
  exec::HashJoinProbe::Spec spec;
  spec.algorithm = join::Algorithm::kCPRL;
  spec.build = build;
  spec.key_domain = key_domain;
  exec::HashJoinProbe join_probe(spec);
  exec::JoinIndexMaterialize index;
  exec::Pipeline pipeline(&scan, {&join_probe}, &index);
  const exec::PipelineStats stats = pipeline.Run(system, config).value();
  std::printf("%s: %llu probe rows -> %llu matches in %.2f ms\n", label,
              static_cast<unsigned long long>(stats.pre_join_rows),
              static_cast<unsigned long long>(stats.join_matches),
              stats.total_ns / 1e6);
  return index.Gather();
}

// <key, position-in-index> column over a join index, feeding the top join.
std::vector<Tuple> Rekey(const std::vector<join::MatchedPair>& index) {
  std::vector<Tuple> tuples(index.size());
  for (std::size_t i = 0; i < index.size(); ++i) {
    tuples[i] = Tuple{index[i].key, static_cast<uint32_t>(i)};
  }
  return tuples;
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli(argc, argv,
                        {"dim", "fact1", "fact2", "threshold", "threads"});
  const uint64_t dim = cli.GetInt("dim", 4096);
  const uint64_t fact1 = cli.GetInt("fact1", 200'000);
  const uint64_t fact2 = cli.GetInt("fact2", 150'000);
  const int threads = static_cast<int>(cli.GetInt("threads", 4));
  const double threshold = cli.GetDouble("threshold", 0.25);

  numa::NumaSystem system(/*num_nodes=*/4);
  workload::Relation a = workload::MakeDenseBuild(&system, dim, 1).value();
  workload::Relation b =
      workload::MakeUniformProbe(&system, fact1, dim, 2).value();
  workload::Relation c = workload::MakeDenseBuild(&system, dim, 3).value();
  workload::Relation d =
      workload::MakeUniformProbe(&system, fact2, dim, 4).value();

  exec::PipelineConfig config;
  config.num_threads = threads;
  config.compaction_threshold = threshold;

  // Lower joins (independent subtrees of the bushy plan).
  const std::vector<join::MatchedPair> j1 =
      JoinToIndex(&system, config, a.cspan(), dim, b.cspan(), "J1 = A |><| B");
  const std::vector<join::MatchedPair> j2 =
      JoinToIndex(&system, config, c.cspan(), dim, d.cspan(), "J2 = C |><| D");

  // Top join: J1 (non-unique keys!) as build, J2 as the scanned probe side.
  const std::vector<Tuple> j1_tuples = Rekey(j1);
  const std::vector<Tuple> j2_tuples = Rekey(j2);
  const uint32_t key_bound = static_cast<uint32_t>(dim / 8);

  exec::TupleScan scan(ConstTupleSpan(j2_tuples.data(), j2_tuples.size()));
  KeyRangeFilter filter(key_bound);
  exec::HashJoinProbe::Spec top_spec;
  top_spec.algorithm = join::Algorithm::kNOP;
  top_spec.build = ConstTupleSpan(j1_tuples.data(), j1_tuples.size());
  top_spec.key_domain = dim;
  top_spec.config.build_unique = false;
  exec::HashJoinProbe top_join(top_spec);
  exec::CountAggregate agg;
  exec::Pipeline top(&scan, {&filter, &top_join}, &agg);
  const exec::PipelineStats stats = top.Run(&system, config).value();

  std::printf(
      "top join: %llu filtered probe rows -> %llu pairs "
      "(compaction: %llu rows gathered, %llu flushes, %llu chunks emitted)\n",
      static_cast<unsigned long long>(stats.pre_join_rows),
      static_cast<unsigned long long>(agg.rows()),
      static_cast<unsigned long long>(stats.rows_compacted),
      static_cast<unsigned long long>(stats.compaction_flushes),
      static_cast<unsigned long long>(stats.chunks_emitted));

  // Scalar reference: per-key histogram product under the key filter.
  std::vector<uint64_t> hist_b(dim, 0), hist_d(dim, 0);
  for (const join::MatchedPair& m : j1) ++hist_b[m.key];
  for (const join::MatchedPair& m : j2) ++hist_d[m.key];
  uint64_t expected = 0;
  for (uint32_t k = 0; k < key_bound; ++k) expected += hist_b[k] * hist_d[k];

  const bool match = expected == agg.rows();
  std::printf("reference count: %llu -> %s\n",
              static_cast<unsigned long long>(expected),
              match ? "MATCH" : "MISMATCH");
  return match ? 0 : 1;
}
