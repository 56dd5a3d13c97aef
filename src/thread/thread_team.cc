#include "thread/thread_team.h"

namespace mmjoin::thread {

std::atomic<uint64_t>& ProcessBarrierWaitNs() {
  // Leaked so barriers inside static-destruction-time teams stay safe.
  static std::atomic<uint64_t>* wait_ns = new std::atomic<uint64_t>(0);
  return *wait_ns;
}

}  // namespace mmjoin::thread
