// google-benchmark micro-benchmarks for the sort substrate: the SIMD merge
// kernel vs std::merge, MergeSortPacked vs std::sort, and the multiway
// merge.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "sort/bitonic.h"
#include "sort/multiway_merge.h"
#include "util/rng.h"

namespace {

using namespace mmjoin;

std::vector<uint64_t> RandomPacked(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> data(n);
  for (auto& v : data) v = rng.Next() >> 1;  // positive as signed
  return data;
}

void BM_SimdMerge(benchmark::State& state) {
  const std::size_t n = state.range(0);
  auto a = RandomPacked(n, 1);
  auto b = RandomPacked(n, 2);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<uint64_t> out(2 * n);
  for (auto _ : state) {
    sort::MergeSignedRuns(reinterpret_cast<const int64_t*>(a.data()),
                          a.size(),
                          reinterpret_cast<const int64_t*>(b.data()),
                          b.size(), reinterpret_cast<int64_t*>(out.data()));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_SimdMerge)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_StdMerge(benchmark::State& state) {
  const std::size_t n = state.range(0);
  auto a = RandomPacked(n, 1);
  auto b = RandomPacked(n, 2);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<uint64_t> out(2 * n);
  for (auto _ : state) {
    std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_StdMerge)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_MergeSortPacked(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const auto original = RandomPacked(n, 3);
  std::vector<uint64_t> data(n), scratch(n);
  for (auto _ : state) {
    std::copy(original.begin(), original.end(), data.begin());
    sort::MergeSortPacked(data.data(), n, scratch.data());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MergeSortPacked)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_StdSortPacked(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const auto original = RandomPacked(n, 3);
  std::vector<uint64_t> data(n);
  for (auto _ : state) {
    std::copy(original.begin(), original.end(), data.begin());
    std::sort(data.begin(), data.end());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StdSortPacked)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_MultiwayMerge(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const std::size_t per_run = 1 << 16;
  std::vector<std::vector<uint64_t>> storage(k);
  std::vector<sort::SortedRun> runs;
  for (int r = 0; r < k; ++r) {
    storage[r] = RandomPacked(per_run, 10 + r);
    std::sort(storage[r].begin(), storage[r].end());
    runs.push_back(sort::SortedRun{storage[r].data(), storage[r].size()});
  }
  std::vector<uint64_t> out(per_run * k);
  for (auto _ : state) {
    sort::MultiwayMerge(runs, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * per_run * k);
}
BENCHMARK(BM_MultiwayMerge)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64)->Arg(128);

}  // namespace
