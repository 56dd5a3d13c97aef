// lint-path: src/tpch/fixture_check_ok.cc
// Fixture: library code that aborts on a failed dispatch must be flagged.
#include "thread/executor.h"
#include "util/status.h"

namespace mmjoin {

void Bad(thread::Executor& executor) {
  MMJOIN_CHECK_OK(executor.Dispatch(  // BAD: return the Status instead
      2, [](const thread::WorkerContext&) {}));
}

}  // namespace mmjoin
