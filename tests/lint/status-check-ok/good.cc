// lint-path: src/tpch/fixture_check_ok_ok.cc
// Fixture: library code propagates the Status; a comment or string that
// names MMJOIN_CHECK_OK( is not a use.
#include "thread/executor.h"
#include "util/status.h"

namespace mmjoin {

Status Good(thread::Executor& executor) {
  MMJOIN_RETURN_IF_ERROR(
      executor.Dispatch(2, [](const thread::WorkerContext&) {}));
  const char* note = "MMJOIN_CHECK_OK(x) belongs in harnesses";
  (void)note;
  return OkStatus();
}

}  // namespace mmjoin
