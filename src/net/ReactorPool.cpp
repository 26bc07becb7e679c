//===- net/ReactorPool.cpp ------------------------------------*- C++ -*-===//

#include "net/ReactorPool.h"

#include "core/Runtime.h"
#include "support/Logging.h"
#include "support/WorkerId.h"
#include "trace/Trace.h"

#include <chrono>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

using namespace dsu;
using namespace dsu::net;

namespace {

/// Identifies the pool worker running on this thread, so runQuiescent()
/// can tell a worker's own handler (which must contribute its arrival)
/// from an external caller (which waits for the round).
thread_local ReactorPool *CurrentPool = nullptr;
thread_local int CurrentWorkerIdx = -1;

uint64_t elapsedUs(std::chrono::steady_clock::time_point Since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Since)
          .count());
}

/// Pins \p T to CPU (Idx mod cores).  Returns the CPU, or -1 when the
/// host has one core (nothing to spread) or the affinity call failed.
int pinWorkerThread(std::thread &T, unsigned Idx) {
#if defined(__linux__)
  unsigned Cores = std::thread::hardware_concurrency();
  if (Cores <= 1)
    return -1;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  int Cpu = static_cast<int>(Idx % Cores);
  CPU_SET(Cpu, &Set);
  if (pthread_setaffinity_np(T.native_handle(), sizeof(Set), &Set) != 0)
    return -1;
  return Cpu;
#else
  (void)T;
  (void)Idx;
  return -1;
#endif
}

} // namespace

const char *ReactorPool::workerStateName(WorkerState S) {
  switch (S) {
  case WorkerState::Idle:
    return "idle";
  case WorkerState::Serving:
    return "serving";
  case WorkerState::Parked:
    return "parked";
  case WorkerState::Stopped:
    return "stopped";
  }
  return "?";
}

ReactorPool::ReactorPool(FastHandler H, PoolOptions O)
    : Options(O), Handler(std::move(H)),
      Gate(std::make_shared<WakeGate>()) {
  Gate->P = this;
  if (Options.Workers == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    Options.Workers = HW ? HW : 1;
  }
}

ReactorPool::~ReactorPool() {
  stop();
  // Sever outstanding wakeCallback() thunks: from here they no-op.
  std::lock_guard<std::mutex> G(Gate->M);
  Gate->P = nullptr;
}

Error ReactorPool::start() {
  if (running())
    return Error::make(ErrorCode::EC_IO, "reactor pool already running");
  std::vector<std::unique_ptr<Reactor>> NewReactors;
  std::vector<std::unique_ptr<std::atomic<int>>> NewStates;
  std::vector<std::unique_ptr<std::atomic<epoch::Domain::Slot *>>>
      NewEpochSlots;
  std::vector<std::unique_ptr<std::atomic<int>>> NewCpus;
  BoundPort = Options.Port;
  for (unsigned I = 0; I != Options.Workers; ++I) {
    auto R = std::make_unique<Reactor>(Handler);
    ReactorOptions RO;
    // Worker 0 picks the shared port when an ephemeral one was asked
    // for; the rest bind the same port via SO_REUSEPORT.
    RO.Port = BoundPort;
    RO.ReusePort = Options.Workers > 1;
    RO.MaxRequestBytes = Options.MaxRequestBytes;
    if (Error E = R->open(RO))
      return E.withContext("reactor pool worker " + std::to_string(I));
    BoundPort = R->port();
    NewReactors.push_back(std::move(R));
    NewStates.push_back(std::make_unique<std::atomic<int>>(
        static_cast<int>(WorkerState::Idle)));
    NewEpochSlots.push_back(
        std::make_unique<std::atomic<epoch::Domain::Slot *>>(nullptr));
    NewCpus.push_back(std::make_unique<std::atomic<int>>(-1));
  }
  {
    std::lock_guard<std::mutex> G(WakeMu);
    Reactors = std::move(NewReactors);
    States = std::move(NewStates);
    EpochSlots = std::move(NewEpochSlots);
    Cpus = std::move(NewCpus);
  }
  {
    std::lock_guard<std::mutex> L(BarrierMu);
    Stopping = false;
    Armed = false;
    ArmedHint.store(false, std::memory_order_relaxed);
    ParkedCount = 0;
    Active = Options.Workers;
  }
  for (unsigned I = 0; I != Options.Workers; ++I) {
    Threads.emplace_back([this, I] { workerMain(I); });
    if (Options.PinWorkers)
      Cpus[I]->store(pinWorkerThread(Threads.back(), I),
                     std::memory_order_relaxed);
  }
  if (Options.PinWorkers && Cpus[0]->load(std::memory_order_relaxed) < 0)
    DSU_LOG_INFO("worker pinning requested but skipped "
                 "(single-core host or setaffinity failed)");
  DSU_LOG_INFO("reactor pool serving on 127.0.0.1:%u with %u worker(s)",
               BoundPort, Options.Workers);
  return Error::success();
}

uint64_t ReactorPool::workerEpoch(unsigned I) const {
  epoch::Domain::Slot *S =
      EpochSlots[I]->load(std::memory_order_acquire);
  return S ? epoch::domain().slotEpoch(S) : 0;
}

void ReactorPool::stop() {
  {
    std::lock_guard<std::mutex> L(BarrierMu);
    if (Threads.empty())
      return;
    Stopping = true;
  }
  BarrierCV.notify_all();
  {
    std::lock_guard<std::mutex> G(WakeMu);
    for (const std::unique_ptr<Reactor> &R : Reactors)
      R->requestStop();
  }
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  Threads.clear();
  {
    // Fail any quiescent operation the barrier never got to run.
    std::lock_guard<std::mutex> L(BarrierMu);
    for (const std::shared_ptr<OpState> &Op : Ops)
      if (!Op->Done) {
        Op->Result = Error::make(
            ErrorCode::EC_Busy,
            "quiescent operation abandoned: reactor pool stopped before "
            "the update barrier formed; retry after restart");
        Op->Done = true;
      }
    Ops.clear();
    Armed = false;
    ArmedHint.store(false, std::memory_order_relaxed);
  }
  BarrierCV.notify_all();
  // Close the sockets but keep the (now quiescent) reactors: their
  // per-worker stats stay readable after stop — metrics scrapes and the
  // benches read final pause histograms once the threads have joined —
  // and start() builds a fresh set anyway.
  std::lock_guard<std::mutex> G(WakeMu);
  for (const std::unique_ptr<Reactor> &R : Reactors)
    R->close();
}

void ReactorPool::wake() {
  std::lock_guard<std::mutex> G(WakeMu);
  for (const std::unique_ptr<Reactor> &R : Reactors)
    R->wake();
}

std::function<void()> ReactorPool::wakeCallback() {
  return [G = Gate] {
    std::lock_guard<std::mutex> L(G->M);
    if (G->P)
      G->P->wake();
  };
}

uint64_t ReactorPool::requestsServed() const {
  uint64_t N = 0;
  for (const std::unique_ptr<Reactor> &R : Reactors)
    N += R->requestsServed();
  return N;
}

uint64_t ReactorPool::bytesSent() const {
  uint64_t N = 0;
  for (const std::unique_ptr<Reactor> &R : Reactors)
    N += R->bytesSent();
  return N;
}

uint64_t ReactorPool::connectionsAccepted() const {
  uint64_t N = 0;
  for (const std::unique_ptr<Reactor> &R : Reactors)
    N += R->connectionsAccepted();
  return N;
}

void ReactorPool::workerMain(unsigned Idx) {
  CurrentPool = this;
  CurrentWorkerIdx = static_cast<int>(Idx);
  // Publish the worker's identity to the runtime layer: canary-gated
  // RollEntries resolve their mask against it on every slot read.
  setCurrentWorkerId(static_cast<int>(Idx));
  // Register with the epoch domain: this worker's quiesce() at each
  // idle point is what retires grace periods and what lets rolling
  // updates swing this worker's bindings without parking it.
  epoch::WorkerReg Epoch;
  EpochSlots[Idx]->store(Epoch.slot(), std::memory_order_release);
  // Seed the adoption watermark so only rolling commits that land while
  // this worker is serving produce adoption evidence.
  uint64_t SeenRollingTx = TheRuntime ? TheRuntime->lastRollingTxId() : 0;
  Reactor &R = *Reactors[Idx];
  while (!R.drainComplete()) {
    setState(Idx, WorkerState::Serving);
    Expected<int> N = R.pollOnce(Options.PollTimeoutMs);
    if (!N) {
      DSU_LOG_WARN("reactor worker %u: %s", Idx,
                   N.takeError().str().c_str());
      break;
    }
    // The idle point: no request is mid-handler on this worker.  Commit
    // (or park for) an actionable update first, then tick the epoch:
    // the tick publishes the quiescence, and every rolling update
    // committed before it — including one this worker just committed —
    // takes effect for this worker's next request.
    maybeEnterBarrier(Idx);
    Epoch.quiesce();
    // A rolling commit landed since this worker's last quiescent point:
    // the worker serves the new bindings from here on.  One span per
    // worker per rolling update, stretching from the commit instant to
    // this adoption point — the per-worker rollout lag, made visible.
    if (TheRuntime) {
      uint64_t RollTx = TheRuntime->lastRollingTxId();
      if (RollTx != SeenRollingTx) {
        SeenRollingTx = RollTx;
        trace::Recorder &Rec = trace::Recorder::instance();
        uint64_t CommitUs = TheRuntime->lastRollingCommitUs();
        uint64_t Now = Rec.nowUs();
        uint64_t LagUs = Now > CommitUs ? Now - CommitUs : 0;
        trace::ScopedUpdateId TraceId(RollTx);
        Rec.complete("rolling", "adopt", CommitUs, LagUs, Idx);
        trace::notePhase(trace::Phase::RollingAdopt, LagUs);
      }
    }
    // Idle-time hygiene: drain graced redirection chains even when no
    // further commit ever arrives (try-lock inside; never blocks).
    if (TheRuntime)
      TheRuntime->maybeFlushRetiredBindings();
  }
  setState(Idx, WorkerState::Stopped);
  EpochSlots[Idx]->store(nullptr, std::memory_order_release);
  {
    std::lock_guard<std::mutex> L(BarrierMu);
    --Active;
    if (Active == 0) {
      // Last worker out: no barrier can form any more, so any queued
      // quiescent operation would wait forever — fail it now.
      for (const std::shared_ptr<OpState> &Op : Ops)
        if (!Op->Done) {
          Op->Result = Error::make(
              ErrorCode::EC_Busy,
              "quiescent operation abandoned: all pool workers exited "
              "before the update barrier formed");
          Op->Done = true;
        }
      Ops.clear();
      Armed = false;
      ArmedHint.store(false, std::memory_order_relaxed);
    }
  }
  // A barrier waiting on this worker may now be satisfiable by the
  // remaining arrivals.
  BarrierCV.notify_all();
  CurrentPool = nullptr;
  CurrentWorkerIdx = -1;
  setCurrentWorkerId(-1);
}

void ReactorPool::maybeEnterBarrier(unsigned Idx) {
  if (!ArmedHint.load(std::memory_order_relaxed)) {
    // Nothing armed: act only when a staged update is actionable.  The
    // pending flag is a relaxed atomic load — the hot-path cost of
    // updateability at each worker's update point.
    if (!TheRuntime || !TheRuntime->updatePending())
      return;
    // The runtime decides.  A code-only front commits right here, on
    // whichever worker noticed it first, with *zero* parking: bindings
    // swing behind epoch redirection and every worker (this one
    // included) adopts them at its own next quiescent point.  Only a
    // front that migrates state comes back as NeedsBarrier.
    bool NeedsBarrier = false;
    TheRuntime->updatePoint(Runtime::Quiescence::Worker, &NeedsBarrier);
    if (!NeedsBarrier)
      return;
    {
      std::lock_guard<std::mutex> L(BarrierMu);
      if (Stopping)
        return;
      Armed = true;
      ArmedHint.store(true, std::memory_order_relaxed);
    }
    {
      // One arm event per barrier round, tagged with the update whose
      // commit the round is for, from the worker that armed it.
      trace::ScopedUpdateId TraceId(TheRuntime ? TheRuntime->frontTxId()
                                               : 0);
      trace::Recorder::instance().instant("barrier", "arm", Idx);
    }
    wake(); // get workers out of epoll_wait and to their update points
  }
  park(Idx);
}

void ReactorPool::park(unsigned Idx) {
  // Capture the update this park is for *before* blocking: by release
  // time the committer has already popped it from the queue front.
  uint64_t FrontTx = TheRuntime ? TheRuntime->frontTxId() : 0;
  std::unique_lock<std::mutex> L(BarrierMu);
  if (!Armed || Stopping)
    return;
  uint64_t ParkStartUs = trace::Recorder::instance().nowUs();
  auto Start = std::chrono::steady_clock::now();
  uint64_t MyGen = Generation;
  ++ParkedCount;
  setState(Idx, WorkerState::Parked);
  while (true) {
    if (Stopping) {
      if (Generation == MyGen)
        --ParkedCount;
      break;
    }
    if (Generation != MyGen)
      break; // round committed; we were released
    if (ParkedCount == Active) {
      // Last arrival: every worker is quiescent — commit, alone.
      Reactors[Idx]->mutableStats().Commits.fetch_add(
          1, std::memory_order_relaxed);
      commitRound();
      break;
    }
    BarrierCV.wait(L);
  }
  setState(Idx, WorkerState::Serving);
  uint64_t PauseUs = elapsedUs(Start);
  {
    // One park span per worker per barrier round — the per-worker
    // service pause this update cost, in the update's own span tree.
    trace::ScopedUpdateId TraceId(FrontTx);
    trace::Recorder::instance().complete("barrier", "park", ParkStartUs,
                                         PauseUs, Idx);
  }
  trace::notePhase(trace::Phase::BarrierPark, PauseUs);
  Reactors[Idx]->mutableStats().notePause(PauseUs);
}

void ReactorPool::commitRound() {
  // Caller holds BarrierMu and is the designated committer; parked
  // workers stay blocked on the condition variable throughout.
  std::vector<std::shared_ptr<OpState>> Pending = std::move(Ops);
  Ops.clear();
  for (const std::shared_ptr<OpState> &Op : Pending) {
    Op->Result = Op->Fn();
    Op->Done = true;
  }
  if (TheRuntime)
    TheRuntime->updatePoint(Runtime::Quiescence::Global);
  Armed = false;
  ArmedHint.store(false, std::memory_order_relaxed);
  ++Generation;
  ParkedCount = 0;
  Rounds.fetch_add(1, std::memory_order_relaxed);
  BarrierCV.notify_all();
}

Error ReactorPool::runQuiescent(std::function<Error()> Fn) {
  auto Op = std::make_shared<OpState>();
  Op->Fn = std::move(Fn);
  bool SelfPark = CurrentPool == this && CurrentWorkerIdx >= 0;
  {
    std::unique_lock<std::mutex> L(BarrierMu);
    if (Stopping)
      return Error::make(ErrorCode::EC_Busy,
                         "reactor pool is stopping; retry after restart");
    if (Active == 0) {
      // No workers running: the caller is exclusive by definition.
      return Op->Fn();
    }
    Ops.push_back(Op);
    Armed = true;
    ArmedHint.store(true, std::memory_order_relaxed);
  }
  wake();
  if (SelfPark) {
    // A worker's own handler: contribute this worker's arrival (the
    // handler is control-plane code, not an updateable call, so this
    // worker is quiescent).  The op runs when the round commits —
    // possibly on this very thread if it is the last arrival.
    park(static_cast<unsigned>(CurrentWorkerIdx));
    std::lock_guard<std::mutex> L(BarrierMu);
    if (!Op->Done)
      return Error::make(ErrorCode::EC_Busy,
                         "quiescent operation abandoned: pool stopped "
                         "before the update barrier formed");
    return Op->Result;
  }
  std::unique_lock<std::mutex> L(BarrierMu);
  BarrierCV.wait(L, [&] { return Op->Done || Stopping; });
  if (!Op->Done)
    return Error::make(ErrorCode::EC_Busy,
                       "quiescent operation abandoned: pool stopped "
                       "before the update barrier formed");
  return Op->Result;
}
