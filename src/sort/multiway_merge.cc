#include "sort/multiway_merge.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "sort/bitonic.h"
#include "sort/sort_key.h"
#include "util/bits.h"
#include "util/macros.h"

namespace mmjoin::sort {
namespace {

using internal::CountNotAbove;
using internal::Key;
using internal::kSignBias;
using internal::SplitSmallest;

// The paper machine's per-thread LLC share (partition::CacheSpec's
// defaults: 30 MB over 60 threads), for the convenience MultiwayMerge,
// which cannot see the host's caches.
constexpr uint64_t kDefaultCacheBytes = 512 * 1024;

template <uint64_t kBias>
void MergePair(const uint64_t* a, std::size_t na, const uint64_t* b,
               std::size_t nb, uint64_t* out) {
  if constexpr (kBias == 0) {
    MergeSignedRuns(reinterpret_cast<const int64_t*>(a), na,
                    reinterpret_cast<const int64_t*>(b), nb,
                    reinterpret_cast<int64_t*>(out));
  } else {
    MergePackedRuns(a, na, b, nb, out);
  }
}

// A node's buffered, not yet consumed output; `done` once no more follows.
struct Stream {
  const uint64_t* data;
  std::size_t size;
  bool done;
};

// The merge tree (see the header comment). The node over runs [lo, hi)
// splits them at mid = lo + (hi - lo) / 2; a single run is a leaf. Internal
// node ids are mid - 1, so the K - 1 internal nodes are numbered 0..K-2,
// and every one but the root owns FIFO slot id (id - 1 above the root).
// `RunAt(r)` returns run r as a SortedRun.
template <uint64_t kBias, typename RunAt>
class MergeTree {
 public:
  MergeTree(RunAt run_at, std::size_t num_runs, std::size_t fifo_words,
            std::span<uint64_t> workspace)
      : run_at_(run_at),
        num_runs_(num_runs),
        root_id_(num_runs / 2 - 1),
        fifo_words_(fifo_words),
        fifos_(workspace.data()) {
    MMJOIN_CHECK(num_runs >= 2 && fifo_words >= 1);
    MMJOIN_CHECK(workspace.size() >=
                 MergeWorkspaceWords(num_runs, fifo_words));
    uint64_t* cursors = fifos_ + (num_runs - 2) * fifo_words;
    head_ = cursors;
    tail_ = head_ + (num_runs - 1);
    done_ = tail_ + (num_runs - 1);
    pos_ = done_ + (num_runs - 1);
    std::fill(cursors, pos_ + num_runs, uint64_t{0});
  }

  void MergeInto(uint64_t* out) {
    Fill(0, num_runs_, out, std::numeric_limits<std::size_t>::max());
  }

 private:
  static std::size_t NodeId(std::size_t lo, std::size_t hi) {
    return lo + (hi - lo) / 2 - 1;
  }

  uint64_t* Fifo(std::size_t id) const {
    return fifos_ + (id < root_id_ ? id : id - 1) * fifo_words_;
  }

  // The node's buffered output, refilling its FIFO first if it is empty
  // and more may follow.
  Stream Pull(std::size_t lo, std::size_t hi) {
    if (hi - lo == 1) {
      const SortedRun run = run_at_(lo);
      return {run.data + pos_[lo], run.size - pos_[lo], true};
    }
    const std::size_t id = NodeId(lo, hi);
    if (head_[id] == tail_[id] && done_[id] == 0) {
      const std::size_t produced = Fill(lo, hi, Fifo(id), fifo_words_);
      head_[id] = 0;
      tail_[id] = produced;
      done_[id] = produced < fifo_words_ ? 1 : 0;
    }
    return {Fifo(id) + head_[id], tail_[id] - head_[id], done_[id] != 0};
  }

  void Consume(std::size_t lo, std::size_t hi, std::size_t n) {
    if (hi - lo == 1) {
      pos_[lo] += n;
    } else {
      head_[NodeId(lo, hi)] += n;
    }
  }

  // Merges the children of node [lo, hi) into `dst` until `room` words are
  // written or both children are exhausted; returns the words written.
  std::size_t Fill(std::size_t lo, std::size_t hi, uint64_t* dst,
                   std::size_t room) {
    const std::size_t mid = lo + (hi - lo) / 2;
    std::size_t produced = 0;
    while (produced < room) {
      const Stream a = Pull(lo, mid);
      const Stream b = Pull(mid, hi);
      if (a.size == 0 && b.size == 0) break;  // both exhausted
      // A child that may still produce more is non-empty here. Words up to
      // the smaller of such children's last buffered words are safe: what
      // follows in that child is no smaller.
      std::size_t na = a.size;
      std::size_t nb = b.size;
      if (!a.done && (b.done || Key<kBias>(a.data[a.size - 1]) <=
                                    Key<kBias>(b.data[b.size - 1]))) {
        nb = CountNotAbove<kBias>(b.data, b.size,
                                  Key<kBias>(a.data[a.size - 1]));
      } else if (!b.done) {
        na = CountNotAbove<kBias>(a.data, a.size,
                                  Key<kBias>(b.data[b.size - 1]));
      }
      if (na + nb > room - produced) {
        const std::size_t n = room - produced;
        na = SplitSmallest<kBias>(a.data, na, b.data, nb, n);
        nb = n - na;
      }
      MergePair<kBias>(a.data, na, b.data, nb, dst + produced);
      Consume(lo, mid, na);
      Consume(mid, hi, nb);
      produced += na + nb;
    }
    return produced;
  }

  RunAt run_at_;
  std::size_t num_runs_;
  std::size_t root_id_;
  std::size_t fifo_words_;
  uint64_t* fifos_;
  uint64_t* head_ = nullptr;  // per internal node: first unconsumed word
  uint64_t* tail_ = nullptr;  // per internal node: end of buffered words
  uint64_t* done_ = nullptr;  // per internal node: 1 once exhausted
  uint64_t* pos_ = nullptr;   // per run: words consumed
};

template <uint64_t kBias, typename RunAt>
void MergeWithTree(RunAt run_at, std::size_t num_runs, uint64_t* out,
                   std::span<uint64_t> workspace, std::size_t fifo_words) {
  if (num_runs == 0) return;
  if (num_runs == 1) {
    const SortedRun run = run_at(0);
    std::copy_n(run.data, run.size, out);
    return;
  }
  MergeTree<kBias, RunAt>(run_at, num_runs, fifo_words, workspace)
      .MergeInto(out);
}

}  // namespace

std::size_t MergeFifoWords(std::size_t num_runs, std::size_t run_size,
                           uint64_t cache_bytes) {
  const std::size_t fifos = num_runs > 2 ? num_runs - 2 : 1;
  std::size_t words =
      static_cast<std::size_t>(cache_bytes / sizeof(uint64_t)) / fifos;
  words = std::max(std::min(words, run_size / 2), kMinFifoWords);
  return std::size_t{1} << FloorLog2(words);
}

std::size_t MergeWorkspaceWords(std::size_t num_runs,
                                std::size_t fifo_words) {
  if (num_runs < 2) return 0;
  return (num_runs - 2) * fifo_words + 3 * (num_runs - 1) + num_runs;
}

void MultiwayMerge(std::span<const SortedRun> runs, uint64_t* out) {
  std::size_t total = 0;
  for (const SortedRun& run : runs) total += run.size;
  const std::size_t fifo_words =
      runs.empty() ? 0
                   : MergeFifoWords(runs.size(), total / runs.size(),
                                    kDefaultCacheBytes);
  std::vector<uint64_t> workspace(
      MergeWorkspaceWords(runs.size(), fifo_words));
  MergeWithTree<kSignBias>(
      [runs](std::size_t r) { return runs[r]; }, runs.size(), out,
      workspace, fifo_words);
}

void MultiwayMergeSigned(const int64_t* data, std::size_t n,
                         std::size_t run_size, int64_t* out,
                         std::span<uint64_t> workspace,
                         std::size_t fifo_words) {
  MMJOIN_CHECK(run_size >= 1);
  const auto* words = reinterpret_cast<const uint64_t*>(data);
  const std::size_t num_runs = (n + run_size - 1) / run_size;
  MergeWithTree<0>(
      [words, n, run_size](std::size_t r) {
        const std::size_t begin = r * run_size;
        return SortedRun{words + begin, std::min(run_size, n - begin)};
      },
      num_runs, reinterpret_cast<uint64_t*>(out), workspace, fifo_words);
}

}  // namespace mmjoin::sort
