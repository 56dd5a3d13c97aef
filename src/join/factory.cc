#include "join/internal.h"
#include "join/join_algorithm.h"

namespace mmjoin::join {

std::unique_ptr<JoinAlgorithm> CreateJoin(Algorithm algorithm) {
  using internal::MakeChtJoin;
  using internal::MakeMwayJoin;
  using internal::MakeNopJoin;
  using internal::MakeRadixJoin;
  switch (algorithm) {
    case Algorithm::kNOP:
      return MakeNopJoin(/*array_table=*/false);
    case Algorithm::kNOPA:
      return MakeNopJoin(/*array_table=*/true);
    case Algorithm::kCHTJ:
      return MakeChtJoin();
    case Algorithm::kMWAY:
      return MakeMwayJoin();
    case Algorithm::kPRB:
    case Algorithm::kPRO:
    case Algorithm::kPRL:
    case Algorithm::kPRA:
    case Algorithm::kPROiS:
    case Algorithm::kPRLiS:
    case Algorithm::kPRAiS:
    case Algorithm::kCPRL:
    case Algorithm::kCPRA:
      return MakeRadixJoin(algorithm);
  }
  MMJOIN_CHECK(false && "unknown algorithm");
  return nullptr;
}

namespace internal {

uint64_t InferKeyDomain(ConstTupleSpan build, uint64_t provided) {
  if (provided != 0) return provided;
  uint64_t max_key = 0;
  for (const Tuple& t : build) {
    if (t.key > max_key) max_key = t.key;
  }
  return max_key + 1;
}

}  // namespace internal
}  // namespace mmjoin::join
