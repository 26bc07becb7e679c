//===- runtime/RolloutController.cpp --------------------------*- C++ -*-===//

#include "runtime/RolloutController.h"

#include "core/Runtime.h"
#include "epoch/Epoch.h"
#include "runtime/UpdateController.h"
#include "support/Logging.h"
#include "support/StringUtil.h"
#include "trace/Trace.h"

#include <algorithm>
#include <chrono>

using namespace dsu;

namespace {

double elapsedMsSince(std::chrono::steady_clock::time_point Since) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - Since)
      .count();
}

/// Lowers every gate in \p Gated inside one epoch advance: each worker
/// sees the outcome (promoted or reverted) at its own next quiescent
/// point, for all entries at once — exactly like an ungated rolling
/// commit.
void resolveGates(std::vector<RollEntry *> &Gated) {
  epoch::domain().advanceWith(
      [](uint64_t E, void *Raw) {
        for (RollEntry *R : *static_cast<std::vector<RollEntry *> *>(Raw))
          R->PromoteEpoch.store(E, std::memory_order_release);
      },
      &Gated);
}

} // namespace

RolloutController::RolloutController(Runtime &RT, Hooks H)
    : RT(RT), H(std::move(H)) {}

RolloutController::~RolloutController() {
  std::thread T;
  {
    std::lock_guard<std::mutex> G(Lock);
    T = std::move(Thread);
  }
  if (T.joinable())
    T.join();
}

Expected<uint64_t> RolloutController::startArtifactText(std::string Text,
                                                        std::string SourceName,
                                                        RolloutOptions Opts) {
  bool Idle = false;
  if (!Busy.compare_exchange_strong(Idle, true, std::memory_order_acq_rel))
    return Error::make(ErrorCode::EC_Busy,
                       "a rollout is already in flight; its health gates "
                       "compare counters a concurrent rollout would "
                       "pollute — retry after it resolves");

  std::lock_guard<std::mutex> G(Lock);
  if (Thread.joinable())
    Thread.join(); // the previous (resolved) rollout's thread

  // Stage held-for-rollout *before* the transaction is enqueued: no
  // pool worker may ever commit it at an ordinary update point.
  StagedUpdate U = RT.controller().stageArtifactText(
      std::move(Text), SourceName, /*HoldForRollout=*/true);
  std::shared_ptr<UpdateTransaction> Tx = U.Tx;

  RolloutRecord R;
  R.Id = NextId++;
  R.TxId = Tx->id();
  R.PatchId = Tx->patchId();
  R.State = "staged";
  R.WindowMs = Opts.WindowMs;
  Records.push_back(std::move(R));
  size_t RecIdx = Records.size() - 1;

  Thread = std::thread([this, Tx = std::move(Tx), Opts, RecIdx] {
    runOne(Tx, Opts, RecIdx);
  });
  return Records[RecIdx].Id;
}

std::vector<RolloutRecord> RolloutController::rollouts() const {
  std::lock_guard<std::mutex> G(Lock);
  return Records;
}

Expected<RolloutRecord> RolloutController::rollout(uint64_t Id) const {
  std::lock_guard<std::mutex> G(Lock);
  for (const RolloutRecord &R : Records)
    if (R.Id == Id)
      return R;
  return Error::make(ErrorCode::EC_Invalid, "no rollout with id %llu",
                     static_cast<unsigned long long>(Id));
}

void RolloutController::waitIdle() {
  while (Busy.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

void RolloutController::setRecord(
    size_t RecIdx, const std::function<void(RolloutRecord &)> &Fn) {
  std::lock_guard<std::mutex> G(Lock);
  Fn(Records[RecIdx]);
}

void RolloutController::sampleGroups(uint64_t Mask, GroupSample &Canary,
                                     GroupSample &Control) const {
  size_t N = H.WorkerCount ? H.WorkerCount() : 0;
  for (size_t I = 0; I != N; ++I) {
    const net::WorkerStats *S = H.Stats ? H.Stats(I) : nullptr;
    if (!S)
      continue;
    bool IsCanary = I < 64 && ((Mask >> I) & 1);
    GroupSample &G = IsCanary ? Canary : Control;
    G.Requests += S->Requests.load(std::memory_order_relaxed);
    G.Serves += S->Serves.load(std::memory_order_relaxed);
    G.Errors += S->Errors5xx.load(std::memory_order_relaxed);
    G.ServeUs += S->ServeTotalUs.load(std::memory_order_relaxed);
  }
}

uint64_t RolloutController::trapsInNewBindings(
    const std::vector<std::string> &Names) const {
  // The bindings this patch installed were created with zeroed trap
  // counters at prepare time, so their absolute counts are exactly the
  // traps attributable to the rollout.
  uint64_t Traps = 0;
  for (const std::string &Name : Names)
    if (const UpdateableSlot *Slot = RT.updateables().lookup(Name))
      if (const Binding *B = Slot->newest())
        Traps += B->trapCount();
  return Traps;
}

Error RolloutController::revertProvides(const std::vector<std::string> &Names) {
  Error First = Error::success();
  for (const std::string &Name : Names)
    if (Error E = RT.rollbackUpdateable(Name)) {
      DSU_LOG_WARN("rollout rollback of '%s' failed: %s", Name.c_str(),
                   E.str().c_str());
      if (!First)
        First = std::move(E);
    }
  return First;
}

void RolloutController::runOne(std::shared_ptr<UpdateTransaction> Tx,
                               RolloutOptions Opts, size_t RecIdx) {
  // Every event the rollout thread records below lands in this
  // update's span tree.
  trace::ScopedUpdateId TraceId(Tx->id());
  auto Finish = [&] {
    Tx->HeldForRollout.store(false, std::memory_order_release);
    RT.setRolloutActive(false);
    if (H.Wake)
      H.Wake(); // collect the terminal front tx promptly
    Busy.store(false, std::memory_order_release);
  };
  auto Fail = [&](std::string Reason) {
    DSU_LOG_WARN("rollout of tx %llu failed: %s",
                 static_cast<unsigned long long>(Tx->id()), Reason.c_str());
    setRecord(RecIdx, [&](RolloutRecord &R) {
      R.State = "failed";
      R.Reason = std::move(Reason);
      R.PatchId = Tx->patchId();
    });
    Finish();
  };

  // --- Staged: wait for the staging pipeline, bounded. -------------------
  trace::Span StageWaitSp("rollout", "stage.wait");
  auto StageStart = std::chrono::steady_clock::now();
  auto StageOverdue = [&] {
    return Opts.StageTimeoutMs != 0 &&
           elapsedMsSince(StageStart) > static_cast<double>(Opts.StageTimeoutMs);
  };
  while (true) {
    UpdatePhase P = Tx->phase();
    if (P == UpdatePhase::Ready)
      break;
    if (P != UpdatePhase::Staging)
      return Fail(formatString("staging ended in phase '%s': %s",
                               updatePhaseName(P),
                               Tx->record().FailureReason.c_str()));
    if (StageOverdue()) {
      (void)RT.abortStagedTx(Tx);
      return Fail("staging exceeded the rollout's stage deadline; "
                  "transaction aborted");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  StageWaitSp.finish();

  // Wait until this transaction reaches the front of the FIFO queue:
  // updates ahead of it must commit first (in submission order), and
  // the rollout must not freeze the pipeline while they wait.
  trace::Span QueueWaitSp("rollout", "queue.wait");
  while (RT.Queue.front().get() != Tx.get()) {
    if (StageOverdue()) {
      (void)RT.abortStagedTx(Tx);
      return Fail("queued updates ahead of the rollout did not drain in "
                  "time; transaction aborted");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  QueueWaitSp.finish();

  // --- Canary: freeze the commit pipeline and commit gated. --------------
  // The latch keeps any later submission from committing during the
  // observation window: a stacked commit would make the registry's
  // rollback history point at the canary binding instead of the
  // pre-rollout one, breaking auto-revert.
  RT.setRolloutActive(true);

  // Snapshot the provide lists while the plan is still intact (commit
  // consumes it): replacements are what rollback reverts; all provides
  // carry trap counters the trap gate reads.
  std::vector<std::string> AllNames, ReplacedNames;
  for (size_t I = 0; I != Tx->Plan.Unit.Provides.size(); ++I) {
    AllNames.push_back(Tx->Plan.Unit.Provides[I].Name);
    if (Tx->Plan.IsReplacement[I])
      ReplacedNames.push_back(Tx->Plan.Unit.Provides[I].Name);
  }

  size_t Workers = H.WorkerCount ? H.WorkerCount() : 0;
  bool CanaryMode =
      Tx->CodeOnly.load(std::memory_order_acquire) && Workers >= 2;

  uint64_t Mask = 0;
  std::vector<RollEntry *> Gated;
  if (CanaryMode) {
    unsigned K = std::min<unsigned>(
        {Opts.CanaryWorkers ? Opts.CanaryWorkers : 1,
         static_cast<unsigned>(Workers) - 1, 63});
    Mask = (uint64_t(1) << K) - 1;
    setRecord(RecIdx, [&](RolloutRecord &R) {
      R.State = "canary";
      R.Mode = "canary";
      R.CanaryMask = Mask;
      R.PatchId = Tx->patchId();
    });
    bool NeedsBarrier = false;
    Error E = RT.commitStagedTx(Tx, Mask, &Gated, &NeedsBarrier);
    if (NeedsBarrier) {
      // Revalidation discovered state migration; fall back to the
      // degenerate barrier form below.
      CanaryMode = false;
      Gated.clear();
    } else if (E) {
      return Fail("canary commit rejected: " + E.str());
    }
  }

  if (!CanaryMode) {
    // Degenerate form for state-migrating patches (or fleets too small
    // to split): commit everywhere under the barrier, observe fleet
    // health absolutely (no control group), and barrier-roll-back if a
    // gate trips.  "Canary group" below = the whole fleet.
    Mask = Workers == 0 ? UINT64_MAX
                        : (Workers >= 64 ? UINT64_MAX
                                         : ((uint64_t(1) << Workers) - 1));
    setRecord(RecIdx, [&](RolloutRecord &R) {
      R.State = "canary";
      R.Mode = "barrier";
      R.CanaryMask = 0;
      R.PatchId = Tx->patchId();
    });
    Error E = H.RunQuiescent
                  ? H.RunQuiescent([&] { return RT.commitStagedTx(Tx); })
                  : RT.commitStagedTx(Tx);
    if (E)
      return Fail("barrier commit rejected: " + E.str());
  }

  // --- Observing: compare canary vs control over the window. -------------
  auto CommitAt = std::chrono::steady_clock::now();
  GroupSample Can0, Ctl0;
  sampleGroups(Mask, Can0, Ctl0);
  setRecord(RecIdx, [&](RolloutRecord &R) { R.State = "observing"; });

  GroupSample DCan, DCtl;
  double CanRate = 0, CtlRate = 0;
  uint64_t Traps = 0;
  std::string TripReason;

  auto Sample = [&] {
    GroupSample Can1, Ctl1;
    sampleGroups(Mask, Can1, Ctl1);
    DCan = {Can1.Requests - Can0.Requests, Can1.Serves - Can0.Serves,
            Can1.Errors - Can0.Errors, Can1.ServeUs - Can0.ServeUs};
    DCtl = {Ctl1.Requests - Ctl0.Requests, Ctl1.Serves - Ctl0.Serves,
            Ctl1.Errors - Ctl0.Errors, Ctl1.ServeUs - Ctl0.ServeUs};
    CanRate = DCan.Serves
                  ? static_cast<double>(DCan.Errors) / DCan.Serves
                  : 0;
    CtlRate = DCtl.Serves
                  ? static_cast<double>(DCtl.Errors) / DCtl.Serves
                  : 0;
    Traps = trapsInNewBindings(AllNames);
  };

  // Monotone gates may trip early — the sooner a bad canary is caught,
  // the fewer requests it serves.  The latency and stall gates need the
  // full window (means stabilize; a stall is only evident at the end).
  auto evalMonotone = [&]() -> std::string {
    if (Traps > Opts.MaxCanaryTraps)
      return formatString("trap gate: canary bindings trapped %llu time(s) "
                          "(budget %llu)",
                          static_cast<unsigned long long>(Traps),
                          static_cast<unsigned long long>(Opts.MaxCanaryTraps));
    if (DCan.Serves >= Opts.MinSamples &&
        CanRate - CtlRate > Opts.MaxErrorDelta)
      return formatString("error gate: canary 5xx rate %.4f vs control "
                          "%.4f exceeds max delta %.4f",
                          CanRate, CtlRate, Opts.MaxErrorDelta);
    return std::string();
  };

  trace::Span ObserveSp("rollout", "observe");
  uint64_t Polls = 0;
  uint64_t PollMs = std::max<uint64_t>(1, std::min<uint64_t>(
                                              Opts.WindowMs / 20, 20));
  while (elapsedMsSince(CommitAt) < static_cast<double>(Opts.WindowMs)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(PollMs));
    // One short span per health-gate poll: the trace shows how often
    // the gates looked and (via Arg) the canary serves seen so far.
    trace::Span PollSp("rollout", "gate.poll");
    ++Polls;
    Sample();
    TripReason = evalMonotone();
    PollSp.setArg(DCan.Serves);
    if (!TripReason.empty())
      break;
  }
  if (TripReason.empty()) {
    trace::Span PollSp("rollout", "gate.poll");
    ++Polls;
    Sample();
    TripReason = evalMonotone();
    PollSp.setArg(DCan.Serves);
  }
  if (TripReason.empty() && Opts.MaxLatencyDeltaUs >= 0 &&
      DCan.Serves >= Opts.MinSamples && DCtl.Serves >= Opts.MinSamples) {
    double CanMean = static_cast<double>(DCan.ServeUs) / DCan.Serves;
    double CtlMean = static_cast<double>(DCtl.ServeUs) / DCtl.Serves;
    if (CanMean - CtlMean > Opts.MaxLatencyDeltaUs)
      TripReason = formatString("latency gate: canary mean %.0fus vs "
                                "control %.0fus exceeds max delta %.0fus",
                                CanMean, CtlMean, Opts.MaxLatencyDeltaUs);
  }
  if (TripReason.empty() && DCan.Requests >= 1 && DCan.Serves == 0)
    // Requests entered canary handlers but none completed in the whole
    // window: the patch wedged its callers (e.g. a fuel bomb still
    // burning).  No completed serve means no error sample either, so
    // only this gate can catch it.
    TripReason = formatString("stall gate: %llu request(s) entered the "
                              "canary and none completed within %llums",
                              static_cast<unsigned long long>(DCan.Requests),
                              static_cast<unsigned long long>(Opts.WindowMs));

  double DetectMs = elapsedMsSince(CommitAt);
  ObserveSp.setArg(Polls);
  ObserveSp.finish();

  // --- Verdict. ----------------------------------------------------------
  trace::Recorder::instance().instant(
      "rollout", TripReason.empty() ? "verdict.promoted" : "verdict.rolled_back",
      static_cast<uint64_t>(DetectMs * 1000.0));
  // The verdict's record fields, the same for both outcomes.
  auto FillVerdict = [&](RolloutRecord &R, const char *Verdict) {
    R.State = Verdict;
    R.Verdict = Verdict;
    R.DetectMs = DetectMs;
    R.CanaryRequests = DCan.Requests;
    R.CanaryServes = DCan.Serves;
    R.CanaryErrors = DCan.Errors;
    R.CanaryTraps = Traps;
    R.ControlRequests = DCtl.Requests;
    R.ControlServes = DCtl.Serves;
    R.ControlErrors = DCtl.Errors;
    R.CanaryErrorRate = CanRate;
    R.ControlErrorRate = CtlRate;
  };
  if (TripReason.empty()) {
    // Promote: control workers adopt the patch at their own next
    // quiescent point.
    if (!Gated.empty())
      resolveGates(Gated);
    RT.annotateRollout(Tx, "promoted", "");
    setRecord(RecIdx,
              [&](RolloutRecord &R) { FillVerdict(R, "promoted"); });
    DSU_LOG_INFO("rollout of tx %llu promoted after %.1fms",
                 static_cast<unsigned long long>(Tx->id()), DetectMs);
    Finish();
    return;
  }

  // Roll back.  Order matters: revert the slots *first* (canary workers
  // snap back to the old binding via the new Current), and only then
  // resolve the gates — so there is never a window in which a control
  // worker adopts the bad binding.  Both happen inside one quiescent
  // operation when a pool is attached: no request is mid-handler.
  auto TripAt = std::chrono::steady_clock::now();
  auto DoRevert = [&]() -> Error {
    Error E = revertProvides(ReplacedNames);
    if (!Gated.empty())
      resolveGates(Gated);
    return E;
  };
  trace::Span RevertSp("rollout", "revert", ReplacedNames.size());
  Error RevertErr =
      H.RunQuiescent ? H.RunQuiescent([&] { return DoRevert(); }) : DoRevert();
  RevertSp.finish();
  double RevertMs = elapsedMsSince(TripAt);

  std::string Reason = TripReason;
  if (RevertErr)
    Reason += "; rollback error: " + RevertErr.str();
  RT.annotateRollout(Tx, "rolled-back", Reason);
  setRecord(RecIdx, [&](RolloutRecord &R) {
    FillVerdict(R, "rolled-back");
    R.Reason = Reason;
    R.RevertMs = RevertMs;
  });
  DSU_LOG_INFO("rollout of tx %llu rolled back: %s (detected %.1fms, "
               "reverted %.1fms)",
               static_cast<unsigned long long>(Tx->id()), TripReason.c_str(),
               DetectMs, RevertMs);
  Finish();
}
