// lint-path: src/join/fixture_barrier_member.cc
// Fixture: the abort flag is a member (`abort_`); a worker publishes it at
// the barrier but nobody tests it afterwards.

namespace mmjoin {

struct Barrier { void ArriveAndWait(); };
struct JoinAbort { void Set(int); bool IsSet(); };
struct WorkerContext { int thread_id; Barrier* barrier; };

class Run {
 public:
  void Worker(const WorkerContext& ctx) {
    Barrier& barrier = *ctx.barrier;
    if (ctx.thread_id == 0) {
      abort_.Set(1);
    }
    barrier.ArriveAndWait();
    int phase_work = 0;
    phase_work += ctx.thread_id;
    phase_work *= 2;
    phase_work -= 1;
  }

 private:
  JoinAbort abort_;
};

}  // namespace mmjoin
