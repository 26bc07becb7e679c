//===- net/ReactorPool.h - Multi-core reactors + update barrier -*- C++ -*-//
///
/// \file
/// The multi-core serving plane: N Reactors, each pinned to its own
/// thread with its own SO_REUSEPORT listener on one shared port (the
/// kernel spreads accepted connections across workers), plus the
/// **cross-worker update barrier** that preserves the paper's guarantee
/// — dynamic updates commit only at quiescent update points — across
/// all workers at once.
///
/// Per-worker quiescence is the reactor's idle point: the instant
/// between poll iterations when no request is mid-handler on that
/// worker (a fully generated but still-flushing response does not make
/// a worker non-quiescent; no updateable code runs during a flush).
///
/// Barrier protocol:
///
///   1. *Arm.*  At its idle point a worker calls the runtime's update
///      point as a lone quiescent worker: code-only updates commit
///      there as rolling updates, with nobody parking.  When the runtime
///      reports that the front needs every worker quiescent — or when
///      any thread calls runQuiescent() — the barrier is armed and every
///      reactor's eventfd woken, so workers blocked in epoll_wait reach
///      their update point promptly.
///   2. *Park.*  Each worker, at its next idle point, parks: it
///      increments the arrival count and blocks.  A worker stuck inside
///      a long request cannot park, so the barrier *waits* for it —
///      updates are delayed, never applied under a non-quiescent
///      worker (the paper's activeness rule, per worker).
///   3. *Commit.*  The last worker to arrive is the designated
///      committer: alone, with every worker quiescent, it runs the
///      queued runQuiescent() operations and the runtime's
///      updatePoint() with global quiescence — the generation-validated
///      commit — exactly once.  Rollback and EC_Busy semantics are
///      unchanged: the committer thread is quiescent by construction, so
///      the single-updater discipline holds trivially.
///   4. *Release.*  The committer bumps the barrier generation and
///      wakes the parked workers; each records its park duration in
///      its pause histogram and resumes serving.
///
/// The park duration is the *entire* per-worker cost of an update —
/// the number the acceptance bar bounds at microseconds per worker.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_NET_REACTORPOOL_H
#define DSU_NET_REACTORPOOL_H

#include "epoch/Epoch.h"
#include "net/Reactor.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dsu {

class Runtime;

namespace net {

/// Pool configuration.
struct PoolOptions {
  unsigned Workers = 1; ///< 0 = std::thread::hardware_concurrency()
  uint16_t Port = 0;    ///< 0 picks an ephemeral port (shared by all)
  size_t MaxRequestBytes = 1 << 20;
  int PollTimeoutMs = 5; ///< per-iteration epoll timeout
  /// Pin worker I to CPU (I mod cores) via pthread_setaffinity_np;
  /// skipped gracefully (reported as cpu -1) on 1-core hosts.
  bool PinWorkers = false;
};

/// N reactor workers behind one port, with the cross-worker update
/// barrier.
class ReactorPool {
public:
  using FastHandler = Reactor::FastHandler;

  /// Worker lifecycle as reported by /admin/status.
  enum class WorkerState : int { Idle, Serving, Parked, Stopped };
  static const char *workerStateName(WorkerState S);

  explicit ReactorPool(FastHandler H, PoolOptions O = {});
  ~ReactorPool();
  ReactorPool(const ReactorPool &) = delete;
  ReactorPool &operator=(const ReactorPool &) = delete;

  /// Wires the pool to \p RT: each worker runs RT.updatePoint() as a
  /// lone quiescent worker at its idle point and arms the barrier when
  /// the runtime says the front needs it; the barrier's committer runs
  /// RT.updatePoint() with global quiescence.  Call before start().
  void setUpdateRuntime(Runtime &RT) { TheRuntime = &RT; }

  /// Binds all listeners (the first picks the shared port when
  /// Options.Port is 0) and spawns the worker threads.
  Error start();

  /// Graceful stop: every reactor drains in-flight pipelined requests
  /// and closes idle keep-alive connections, then the threads join.
  /// Queued runQuiescent() operations that never ran fail with EC_Busy.
  /// Idempotent.
  void stop();

  bool running() const { return !Threads.empty(); }
  uint16_t port() const { return BoundPort; }
  unsigned workers() const {
    return static_cast<unsigned>(Reactors.size());
  }

  /// Runs \p Fn exactly once while every worker is parked at its update
  /// point.  Callable from any thread — including a worker's own
  /// handler, which then contributes its own arrival (an admin request
  /// is not updateable code, so the worker is quiescent by the barrier's
  /// definition).  Returns Fn's error, or EC_Busy when the pool stopped
  /// before quiescence was reached.
  Error runQuiescent(std::function<Error()> Fn);

  /// Wakes every reactor (e.g. when a staged update becomes ready, so
  /// the next barrier forms without waiting out a poll timeout).
  /// Thread-safe against stop()/start().
  void wake();

  /// A wake() thunk that is safe to invoke even after this pool has
  /// been destroyed (it degrades to a no-op).  Use for callbacks whose
  /// holder may outlive the pool — e.g. UpdateController::setOnStaged,
  /// where the controller's worker lives as long as the Runtime.
  std::function<void()> wakeCallback();

  // -- Introspection ------------------------------------------------------

  WorkerState workerState(unsigned I) const {
    return static_cast<WorkerState>(
        States[I]->load(std::memory_order_relaxed));
  }
  const WorkerStats &workerStats(unsigned I) const {
    return Reactors[I]->stats();
  }

  /// Completed barrier rounds (each committed queued work exactly once).
  uint64_t barrierRounds() const {
    return Rounds.load(std::memory_order_relaxed);
  }

  /// The epoch worker \p I last announced at its quiescent point (0
  /// before the worker registered / after it stopped).  Together with
  /// epoch::domain().globalEpoch() this is the per-worker epoch lag the
  /// admin plane reports.
  uint64_t workerEpoch(unsigned I) const;

  /// CPU worker \p I is pinned to, or -1 when unpinned (PinWorkers off,
  /// 1-core host, or affinity call failed).
  int workerCpu(unsigned I) const {
    return Cpus[I]->load(std::memory_order_relaxed);
  }

  uint64_t requestsServed() const;
  uint64_t bytesSent() const;
  uint64_t connectionsAccepted() const;

private:
  /// One queued quiescent operation (runQuiescent) with its completion
  /// handshake.  Guarded by BarrierMu.
  struct OpState {
    std::function<Error()> Fn;
    Error Result;
    bool Done = false;
  };

  void workerMain(unsigned Idx);
  /// The per-worker update point: lets the runtime commit what it can
  /// without parking, and arms the barrier and parks when it reports
  /// that the front needs every worker quiescent.
  void maybeEnterBarrier(unsigned Idx);
  /// Parks worker \p Idx until the current round is committed.  Caller
  /// must not hold BarrierMu.
  void park(unsigned Idx);
  /// Runs queued ops + the runtime update point; caller holds BarrierMu
  /// and is the last arrival.
  void commitRound();
  void setState(unsigned Idx, WorkerState S) {
    States[Idx]->store(static_cast<int>(S), std::memory_order_relaxed);
  }

  /// Shared liveness gate behind wakeCallback(): the callback locks M
  /// and wakes only while P still points at a live pool.
  struct WakeGate {
    std::mutex M;
    ReactorPool *P = nullptr;
  };

  PoolOptions Options;
  FastHandler Handler;
  Runtime *TheRuntime = nullptr;
  uint16_t BoundPort = 0;

  /// Serializes wake()'s reactor iteration against start()/stop()
  /// rebuilding or closing the reactors.
  mutable std::mutex WakeMu;
  std::vector<std::unique_ptr<Reactor>> Reactors;
  std::vector<std::thread> Threads;
  /// unique_ptr so the atomics have stable addresses across vector
  /// growth during setup.
  std::vector<std::unique_ptr<std::atomic<int>>> States;
  /// Each worker's epoch announcement cell (set by the worker thread
  /// after it registers with the default domain; null when stopped).
  std::vector<std::unique_ptr<std::atomic<epoch::Domain::Slot *>>>
      EpochSlots;
  /// Pinned CPU per worker (-1 = unpinned), written by start().
  std::vector<std::unique_ptr<std::atomic<int>>> Cpus;
  std::shared_ptr<WakeGate> Gate;

  // Barrier state (all guarded by BarrierMu unless noted).
  mutable std::mutex BarrierMu;
  std::condition_variable BarrierCV;
  std::atomic<bool> ArmedHint{false}; ///< lock-free fast-path check
  bool Armed = false;
  bool Stopping = false;
  uint64_t Generation = 0;
  unsigned ParkedCount = 0;
  unsigned Active = 0; ///< workers currently running their loop
  std::vector<std::shared_ptr<OpState>> Ops;
  std::atomic<uint64_t> Rounds{0};
};

} // namespace net
} // namespace dsu

#endif // DSU_NET_REACTORPOOL_H
