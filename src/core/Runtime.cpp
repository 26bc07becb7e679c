//===- core/Runtime.cpp ---------------------------------------*- C++ -*-===//

#include "core/Runtime.h"

#include "persist/Journal.h"
#include "runtime/UpdateController.h"
#include "support/FaultInject.h"
#include "support/Logging.h"
#include "support/StringUtil.h"
#include "support/Timer.h"
#include "trace/Trace.h"
#include "vtal/Verifier.h"

#include <algorithm>
#include <thread>

using namespace dsu;

// --- StagedUpdate (handle methods need the runtime) ----------------------

Error StagedUpdate::commit() {
  if (!valid())
    return Error::make(ErrorCode::EC_Invalid,
                       "commit of an empty StagedUpdate handle");
  return RT->commitStagedTx(Tx);
}

Error StagedUpdate::abort() {
  if (!valid())
    return Error::make(ErrorCode::EC_Invalid,
                       "abort of an empty StagedUpdate handle");
  return RT->abortStagedTx(Tx);
}

// --- Runtime lifecycle ---------------------------------------------------

Runtime::Runtime() : TheLinker(Updateables, Exports) {}

Runtime::~Runtime() {
  // Stop the staging worker before any subsystem it touches goes away.
  std::lock_guard<std::mutex> G(CtlLock);
  Ctl.reset();
}

UpdateController &Runtime::controller() {
  std::lock_guard<std::mutex> G(CtlLock);
  if (!Ctl)
    Ctl = std::make_unique<UpdateController>(*this);
  return *Ctl;
}

Error Runtime::exportHost(const std::string &Name, const Type *Ty,
                          vtal::HostFn Host, void *Addr) {
  SymbolDef Def;
  Def.Name = Name;
  Def.Ty = Ty;
  Def.Host = std::move(Host);
  Def.Addr = Addr;
  return Exports.addExport(std::move(Def));
}

// --- Transaction plumbing ------------------------------------------------

/// Transaction ids are unique in the process, not per Runtime: the flight
/// recorder is process-global and keys an update's spans by its id, so
/// two runtimes in one process must never hand out the same id.
static std::atomic<uint64_t> NextTxId{1};

std::shared_ptr<UpdateTransaction>
Runtime::makeTransaction(std::string PatchId) {
  auto Tx = std::shared_ptr<UpdateTransaction>(
      new UpdateTransaction(NextTxId.fetch_add(1)));
  // The watchdog deadline covers the whole staging pipeline — queueing
  // in the controller included — so a pathological patch cannot
  // head-of-line-block the FIFO update queue indefinitely.
  if (uint64_t Ms = StagingDeadlineMs.load(std::memory_order_relaxed))
    Tx->StageDeadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(Ms);
  std::lock_guard<std::mutex> G(Tx->RecLock);
  Tx->Rec.TxId = Tx->id();
  Tx->Rec.PatchId = std::move(PatchId);
  return Tx;
}

void Runtime::finalize(UpdateTransaction &Tx, UpdatePhase Phase,
                       const Error *E) {
  // Some callers (abort paths) reach here without a scope guard; tag
  // the terminal marker and the journal-seal span with the tx id.
  trace::ScopedUpdateId TraceId(Tx.id());
  trace::Recorder::instance().instant("update", updatePhaseName(Phase));
  Tx.Phase.store(Phase, std::memory_order_release);
  UpdateRecord RecCopy;
  {
    std::lock_guard<std::mutex> G(Tx.RecLock);
    Tx.Rec.Phase = updatePhaseName(Phase);
    Tx.Rec.Succeeded = Phase == UpdatePhase::Committed;
    if (E)
      Tx.Rec.FailureReason = E->str();
    RecCopy = Tx.Rec;
  }
  // Seal the transaction's durable-journal Intent with the terminal
  // outcome.  This is the single point every terminal phase funnels
  // through, so an Intent can only stay unsealed if the process dies —
  // which is exactly what the next boot's crash accounting keys on.
  // The armed crash point sits *between* the commit landing and the
  // Committed seal reaching disk: the widest window of the two-phase
  // protocol, where recovery must come up on the last-good chain.
  if (Tx.JournalSeq != 0) {
    if (persist::UpdateJournal *J = Journal.load(std::memory_order_acquire)) {
      if (Phase == UpdatePhase::Committed)
        faultinject::maybeCrash(faultinject::CrashPoint::AfterCommitPreSeal,
                                RecCopy.PatchId);
      persist::SealOutcome Outcome = Phase == UpdatePhase::Committed
                                         ? persist::SealOutcome::Committed
                                         : persist::SealOutcome::RolledBack;
      if (Error SE = J->appendSeal(Tx.JournalSeq, Outcome, RecCopy.CommitMode,
                                   RecCopy.FailureReason))
        DSU_LOG_WARN("journal: sealing intent %llu failed: %s",
                     static_cast<unsigned long long>(Tx.JournalSeq),
                     SE.str().c_str());
    }
  }
  {
    std::lock_guard<std::mutex> G(LogLock);
    Log.push_back(std::move(RecCopy));
  }
  if (Phase == UpdatePhase::Committed)
    Applied.fetch_add(1);
  // A terminal front transaction becomes collectable at the next update
  // point (and a Ready one committable).
  Queue.refresh();
}

// --- Staging (any thread) ------------------------------------------------

namespace {

/// The union of the bumps a plan's replacements demand and the bumps a
/// patch declares via new type versions (used identically at stage time
/// and when a stale plan revalidates at commit).
std::vector<VersionBump>
unionBumps(const std::vector<VersionBump> &Required,
           const std::vector<VersionBump> &Declared) {
  std::vector<VersionBump> All = Required;
  for (const VersionBump &B : Declared) {
    bool Known = false;
    for (const VersionBump &K : All)
      Known |= K == B;
    if (!Known)
      All.push_back(B);
  }
  return All;
}

bool sameBumpSet(const std::vector<VersionBump> &A,
                 const std::vector<VersionBump> &B) {
  if (A.size() != B.size())
    return false;
  for (const VersionBump &X : A) {
    bool Found = false;
    for (const VersionBump &Y : B)
      Found |= X == Y;
    if (!Found)
      return false;
  }
  return true;
}

} // namespace

Error Runtime::stageInto(UpdateTransaction &Tx) {
  // Every event below lands in this update's span tree; the pipeline
  // span also covers the wait for the stage lock.
  trace::ScopedUpdateId TraceId(Tx.id());
  TRACE_SPAN("stage", "pipeline");
  // One stager at a time: preparation reads the registries the update
  // thread writes at commit, and patch type/transformer definitions must
  // land in submission order.  Commit never takes this lock, so staging
  // cannot delay an update point.
  std::lock_guard<std::mutex> StageG(StageLock);
  Timer Total;
  Patch &P = Tx.P;
  {
    std::lock_guard<std::mutex> G(Tx.RecLock);
    Tx.Rec.PatchId = P.Id;
    Tx.Rec.CodeBytes = P.CodeBytes;
  }
  std::string PatchId = P.Id;

  auto Fail = [&](Error E) {
    {
      std::lock_guard<std::mutex> G(Tx.RecLock);
      Tx.Rec.StageMs = Total.elapsedMs();
      Tx.Rec.TotalMs = Tx.Rec.StageMs;
    }
    finalize(Tx, UpdatePhase::StageFailed, &E);
    return E;
  };

  // Staging watchdog: cooperative deadline checks between pipeline
  // stages.  A transaction that exceeds its deadline is finalized as
  // TimedOut — a terminal, collectable phase — instead of holding the
  // head of the FIFO queue while every later update waits behind it.
  auto FailTimedOut = [&](const char *Stage) {
    return timeOutStaging(Tx, Stage, Total.elapsedMs());
  };
  if (Tx.stagingOverdue())
    return FailTimedOut("queueing");

  // Stage 1: verification.  VTAL-backed patches are machine-checked;
  // native patches arrive as trusted-compiler output (the paper's TAL
  // verification corresponds to the VTAL path).
  {
    TRACE_SPAN("stage", "verify");
    Timer T;
    if (P.VtalMod) {
      vtal::VerifyStats VS;
      if (Error E = vtal::verifyModule(*P.VtalMod, &VS))
        return Fail(E.withContext("patch " + PatchId));
      VerifyFunctionsTotal.fetch_add(VS.FunctionsChecked,
                                     std::memory_order_relaxed);
      std::lock_guard<std::mutex> G(Tx.RecLock);
      Tx.Rec.InstructionsVerified = VS.InstructionsChecked;
    }
    trace::notePhase(trace::Phase::Verify, T.elapsedNs() / 1000);
    std::lock_guard<std::mutex> G(Tx.RecLock);
    Tx.Rec.VerifyMs = T.elapsedMs();
  }

  // Fault injection: an operator-armed stall between verification and
  // linking models a wedged pipeline stage.  Sleep in small slices so
  // the watchdog deadline above is still honoured mid-stall.
  for (uint64_t Left = faultinject::stageStallMs(); Left != 0;) {
    uint64_t Slice = std::min<uint64_t>(Left, 5);
    std::this_thread::sleep_for(std::chrono::milliseconds(Slice));
    Left -= Slice;
    if (Tx.stagingOverdue())
      break;
  }
  if (Tx.stagingOverdue())
    return FailTimedOut("verification");

  // Stage 2: introduce the patch's new named types and transformers.
  // Both registries are append-only, so this mutates nothing the running
  // program observes; an aborted transaction leaves its (inert)
  // definitions behind.  Computing the declared bumps needs the
  // pre-patch latest versions.
  for (const PatchTypeDef &TD : P.NewTypes) {
    uint32_t Prev = Types.latestVersion(TD.Name.Name);
    if (Prev > 0 && Prev < TD.Name.Version)
      Tx.DeclaredBumps.push_back(
          VersionBump{VersionedName{TD.Name.Name, Prev}, TD.Name});
    if (Error E = Types.defineNamed(TD.Name, TD.Repr))
      return Fail(E.withContext("patch " + PatchId));
  }
  for (PatchTransformer &X : P.Transformers)
    Transformers.add(X.Bump, X.Fn);

  // Stage 3: link preparation (typed import resolution + replacement
  // compatibility).  No program mutation.  The commit generation is
  // read *before* preparing, so a commit racing this prepare can only
  // make the plan look stale — never silently valid.
  Tx.PreparedAtGeneration =
      CommitGeneration.load(std::memory_order_acquire);
  {
    Timer T;
    Expected<LinkPlan> PlanOrErr = TheLinker.prepare(std::move(P.Unit));
    trace::notePhase(trace::Phase::LinkPrepare, T.elapsedNs() / 1000);
    {
      std::lock_guard<std::mutex> G(Tx.RecLock);
      Tx.Rec.PrepareMs = T.elapsedMs();
    }
    if (!PlanOrErr)
      return Fail(PlanOrErr.takeError());
    Tx.Plan = std::move(*PlanOrErr);
  }
  if (Tx.stagingOverdue())
    return FailTimedOut("link preparation");

  // Union of bumps demanded by signature changes and bumps declared via
  // new type versions.
  Tx.Bumps = unionBumps(Tx.Plan.RequiredBumps, Tx.DeclaredBumps);

  // Stage 4: the state-transform build.  Optimistic: new payloads are
  // computed here, off the update thread, from snapshots whose mutation
  // generations commit will validate.  A missing or failing transformer
  // rejects the transaction now, with all state untouched.
  {
    TRACE_SPAN("stage", "state.build");
    Timer T;
    Expected<StagedStateSwap> Swap =
        stageStateTransform(Types, State, Transformers, Tx.Bumps);
    trace::notePhase(trace::Phase::StateBuild, T.elapsedNs() / 1000);
    {
      std::lock_guard<std::mutex> G(Tx.RecLock);
      Tx.Rec.BuildMs = T.elapsedMs();
    }
    if (!Swap)
      return Fail(Swap.takeError().withContext("patch " + PatchId));
    Tx.Swap = std::move(*Swap);
  }
  if (Tx.stagingOverdue())
    return FailTimedOut("the state-transform build");

  {
    std::lock_guard<std::mutex> G(Tx.RecLock);
    Tx.Rec.StageMs = Total.elapsedMs();
    Tx.Rec.TotalMs = Tx.Rec.StageMs;
  }

  // Classify for the commit path: a patch that migrates no state, bumps
  // no types and ships no transformers is the paper's cheap common case
  // — a pure code swap — and commits as a *rolling* update, per-worker
  // at each worker's own quiescent point, with no cross-worker barrier.
  bool CodeOnly = Tx.planIsCodeOnly();
  Tx.CodeOnly.store(CodeOnly, std::memory_order_release);

  // Cross-check the analyzer's code-only prediction against the actual
  // classification: a mispredicted barrier stall (or a patch the
  // analyzer thought needed the barrier but committed rolling) is an
  // analyzer soundness signal, reported as a finding rather than left
  // as a surprise.
  {
    std::lock_guard<std::mutex> G(Tx.RecLock);
    if (Tx.Rec.AnalysisRan && Tx.Rec.CodeOnlyPredicted != CodeOnly) {
      analysis::Finding F;
      F.Sev = analysis::Severity::Warning;
      F.Code = "classification-mismatch";
      F.Message = formatString(
          "analyzer predicted a %s commit but staging classified the patch "
          "as %s",
          Tx.Rec.CodeOnlyPredicted ? "code-only (rolling)"
                                   : "state-migrating (barrier)",
          CodeOnly ? "code-only (rolling)" : "state-migrating (barrier)");
      Tx.Rec.AnalysisFindings.push_back(std::move(F));
      AnalysisFindingsTotal.fetch_add(1, std::memory_order_relaxed);
      DSU_LOG_WARN("tx %llu (%s): analyzer classification mismatch "
                   "(predicted %s, actual %s)",
                   static_cast<unsigned long long>(Tx.id()), PatchId.c_str(),
                   Tx.Rec.CodeOnlyPredicted ? "code-only" : "state-migrating",
                   CodeOnly ? "code-only" : "state-migrating");
    }
  }
  Tx.ReadyAt = std::chrono::steady_clock::now();

  // Publish-then-check handshake with abortStagedTx (both sides
  // seq_cst, Dekker-style): either that store of Ready is visible to an
  // aborter's phase load, or the abort flag is visible here — an abort
  // requested during staging can never be missed by both sides.
  Tx.Phase.store(UpdatePhase::Ready, std::memory_order_seq_cst);
  if (Tx.AbortRequested.load(std::memory_order_seq_cst)) {
    UpdatePhase Expect = UpdatePhase::Ready;
    if (Tx.Phase.compare_exchange_strong(Expect, UpdatePhase::Aborted,
                                         std::memory_order_acq_rel)) {
      Tx.Plan = LinkPlan();
      Tx.Swap = StagedStateSwap();
      finalize(Tx, UpdatePhase::Aborted, nullptr);
      return Error::success();
    }
  }
  Queue.refresh();
  DSU_LOG_DEBUG("tx %llu (%s) staged and ready",
                static_cast<unsigned long long>(Tx.id()), PatchId.c_str());
  return Error::success();
}

Error Runtime::timeOutStaging(UpdateTransaction &Tx, const char *During,
                              double StageMs) {
  Error E = Error::make(
      ErrorCode::EC_Timeout,
      "tx %llu (%s) staging exceeded its watchdog deadline during %s; "
      "aborted so it cannot head-of-line-block the update queue",
      static_cast<unsigned long long>(Tx.id()), Tx.patchId().c_str(),
      During);
  {
    std::lock_guard<std::mutex> G(Tx.RecLock);
    Tx.Rec.StageMs = StageMs;
    Tx.Rec.TotalMs = StageMs;
  }
  finalize(Tx, UpdatePhase::TimedOut, &E);
  return E;
}

Expected<StagedUpdate> Runtime::stage(Patch P, uint64_t JournalSeq) {
  std::shared_ptr<UpdateTransaction> Tx = makeTransaction(P.Id);
  // The Intent sequence must be on the transaction before stageInto
  // runs: a staging failure finalizes inside the pipeline, and that
  // finalize must already see the seal target.
  Tx->JournalSeq = JournalSeq;
  Tx->P = std::move(P);
  if (Error E = stageInto(*Tx))
    return E;
  return StagedUpdate(this, std::move(Tx));
}

Error Runtime::enqueue(const StagedUpdate &U) {
  if (!U.valid())
    return Error::make(ErrorCode::EC_Invalid,
                       "enqueue of an empty StagedUpdate handle");
  if (!Queue.enqueue(U.Tx))
    return Error::make(ErrorCode::EC_Invalid,
                       "transaction %llu is already queued",
                       static_cast<unsigned long long>(U.Tx->id()));
  return Error::success();
}

void Runtime::requestUpdate(Patch P) {
  std::shared_ptr<UpdateTransaction> Tx = makeTransaction(P.Id);
  Tx->P = std::move(P);
  // Enqueue before staging: queue position — and therefore commit order
  // — is fixed by submission order, not by how long staging takes.
  Queue.enqueue(Tx);
  (void)stageInto(*Tx); // a failure is recorded in the update log
}

// --- Commit --------------------------------------------------------------

Error Runtime::commitStagedTx(const std::shared_ptr<UpdateTransaction> &TxP,
                              uint64_t CanaryMask,
                              std::vector<RollEntry *> *GatedOut,
                              bool *NeedsBarrier) {
  std::lock_guard<std::mutex> G(CommitLock);
  return commitStagedTxLocked(TxP, /*Rolling=*/CanaryMask != UINT64_MAX,
                              NeedsBarrier, CanaryMask, GatedOut);
}

Error Runtime::commitStagedTxLocked(
    const std::shared_ptr<UpdateTransaction> &TxP, bool Rolling,
    bool *NeedsBarrier, uint64_t CanaryMask,
    std::vector<RollEntry *> *GatedOut) {
  UpdateTransaction &Tx = *TxP;
  if (ActivationTracker::currentDepth() != 0)
    return Error::make(
        ErrorCode::EC_Busy,
        "commit of tx %llu refused: single-updater discipline violated "
        "(%u updateable frame(s) active on this thread); retry at a "
        "quiescent update point",
        static_cast<unsigned long long>(Tx.id()),
        ActivationTracker::currentDepth());

  UpdatePhase Expect = UpdatePhase::Ready;
  if (!Tx.Phase.compare_exchange_strong(Expect, UpdatePhase::Committing,
                                        std::memory_order_acq_rel))
    return Error::make(ErrorCode::EC_Invalid,
                       "transaction %llu is %s, not ready to commit",
                       static_cast<unsigned long long>(Tx.id()),
                       updatePhaseName(Expect));

  std::string PatchId = Tx.patchId();
  const char *Mode = CanaryMask != UINT64_MAX ? "canary"
                     : Rolling                ? "rolling"
                                              : "barrier";
  trace::ScopedUpdateId TraceId(Tx.id());
  trace::Span CommitSp("commit", Mode);
  Timer CommitTimer;
  auto FailCommit = [&](Error E) {
    {
      std::lock_guard<std::mutex> G(Tx.RecLock);
      Tx.Rec.CommitMs = CommitTimer.elapsedMs();
      Tx.Rec.TotalMs = Tx.Rec.StageMs + Tx.Rec.CommitMs;
    }
    finalize(Tx, UpdatePhase::CommitFailed, &E);
    return E;
  };

  // Revalidate when any other transaction committed since this one was
  // prepared: its replacement decisions or required bumps may be stale.
  // Nothing has been mutated yet, so a revalidation failure rejects the
  // transaction with the program untouched.
  if (Tx.PreparedAtGeneration !=
      CommitGeneration.load(std::memory_order_acquire)) {
    Tx.Plan.restoreCode(); // put the prepared bindings back in the unit
    Expected<LinkPlan> Fresh = TheLinker.prepare(std::move(Tx.Plan.Unit));
    if (!Fresh)
      return FailCommit(
          Fresh.takeError().withContext("revalidating staged plan"));
    Tx.Plan = std::move(*Fresh);
    std::vector<VersionBump> AllBumps =
        unionBumps(Tx.Plan.RequiredBumps, Tx.DeclaredBumps);
    if (!sameBumpSet(AllBumps, Tx.Bumps)) {
      // The required migrations changed; rebuild the swap from live
      // state (we are on the mutator thread, so it cannot go stale
      // before the commit below).
      Tx.Bumps = std::move(AllBumps);
      Expected<StagedStateSwap> Rebuilt =
          stageStateTransform(Types, State, Transformers, Tx.Bumps);
      if (!Rebuilt)
        return FailCommit(
            Rebuilt.takeError().withContext("patch " + PatchId));
      Tx.Swap = std::move(*Rebuilt);
      std::lock_guard<std::mutex> G(Tx.RecLock);
      Tx.Rec.StateRebuilt = true;
    }
  }

  // A rolling commit must still be code-only after revalidation; if a
  // commit that landed in between changed the required bumps, demote the
  // transaction back to Ready and let the caller arm the barrier —
  // nothing has been mutated yet.
  if (Rolling && !Tx.planIsCodeOnly()) {
    Tx.CodeOnly.store(false, std::memory_order_release);
    Tx.Phase.store(UpdatePhase::Ready, std::memory_order_release);
    if (NeedsBarrier)
      *NeedsBarrier = true;
    return Error::make(ErrorCode::EC_Busy,
                       "tx %llu reclassified at commit: revalidation "
                       "requires state migration, deferring to the "
                       "cross-worker barrier",
                       static_cast<unsigned long long>(Tx.id()));
  }

  // State commit: generation-validated payload swaps, or a rebuild from
  // live state when a cell mutated since staging.  Two-phase inside —
  // a failure leaves every cell untouched.  One timer, cumulative marks:
  // the pause window itself should not be spent reading clocks.
  TransformStats TS;
  StateSwapUndo Undo;
  bool Rebuilt = false;
  {
    Error E = commitStagedState(Types, State, Transformers,
                                std::move(Tx.Swap), &TS, &Rebuilt, &Undo);
    if (E) {
      // Undo holds whatever swapAll managed before failing; reverting
      // it keeps the all-or-nothing contract even on this (today
      // unreachable) mid-swap path.
      revertStateSwap(State, std::move(Undo));
      return FailCommit(E.withContext("patch " + PatchId));
    }
  }
  double StateMark = CommitTimer.elapsedMs();

  // Binding swings.  All-or-nothing inside the linker; if it still
  // fails, the state swap above is reverted so the whole transaction is
  // a no-op.
  size_t Provides = Tx.Plan.Unit.Provides.size();
  {
    Error E =
        TheLinker.commit(std::move(Tx.Plan), Rolling, CanaryMask, GatedOut);
    if (E) {
      revertStateSwap(State, std::move(Undo));
      return FailCommit(std::move(E));
    }
  }
  CommitGeneration.fetch_add(1, std::memory_order_release);
  if (Rolling) {
    RollingCommits.fetch_add(1, std::memory_order_relaxed);
    LastRollingCommitUs.store(trace::Recorder::instance().nowUs(),
                              std::memory_order_release);
    LastRollingTxId.store(Tx.id(), std::memory_order_release);
  }

  double CommitMs = CommitTimer.elapsedMs(); // measurement ends here
  trace::notePhase(trace::Phase::Commit,
                   static_cast<uint64_t>(CommitMs * 1000.0));
  uint64_t StageToCommitUs = 0;
  if (Tx.ReadyAt.time_since_epoch().count() != 0) {
    StageToCommitUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Tx.ReadyAt)
            .count());
    trace::notePhase(trace::Phase::QueueWait, StageToCommitUs);
    // The queue wait is a real interval whose endpoints live on two
    // threads (staging finished -> this commit landed); record it as a
    // complete span ending now so the tree shows where the time went.
    trace::Recorder &R = trace::Recorder::instance();
    uint64_t Now = R.nowUs();
    R.complete("queue", "wait",
               Now > StageToCommitUs ? Now - StageToCommitUs : 0,
               StageToCommitUs);
  }
  UpdateRecord Done;
  {
    std::lock_guard<std::mutex> G(Tx.RecLock);
    Tx.Rec.CellsMigrated = TS.CellsMigrated;
    Tx.Rec.StateRebuilt |= Rebuilt;
    Tx.Rec.ProvidesLinked = Provides;
    Tx.Rec.LinkMs = Tx.Rec.PrepareMs + (CommitMs - StateMark);
    Tx.Rec.CommitMs = CommitMs;
    Tx.Rec.TotalMs = Tx.Rec.StageMs + CommitMs;
    Tx.Rec.TransformMs = Tx.Rec.BuildMs + StateMark;
    Tx.Rec.CommitMode = Mode;
    Tx.Rec.StageToCommitUs = StageToCommitUs;
    Done = Tx.Rec;
  }
  finalize(Tx, UpdatePhase::Committed, nullptr);
  DSU_LOG_INFO("patch %s committed (%s): staged %.3fms (verify %.3f, "
               "prepare %.3f, build %.3f) + pause %.3fms%s",
               PatchId.c_str(), Mode,
               Done.StageMs, Done.VerifyMs, Done.PrepareMs, Done.BuildMs,
               Done.CommitMs,
               Done.StateRebuilt ? " [state rebuilt at commit]" : "");
  return Error::success();
}

void Runtime::flushRetiredBindings() {
  std::lock_guard<std::mutex> G(CommitLock);
  flushRetiredBindingsLocked();
}

void Runtime::maybeFlushRetiredBindings() {
  // Idle-time roll-chain hygiene: without this, a graced redirection
  // chain only drains when the *next* commit happens to flush it —
  // i.e. never, on a quiet system.  Relaxed fast-out so the common
  // no-chains case costs one load, and try_lock so an idle worker never
  // blocks behind a commit in progress.
  if (!Updateables.hasLiveRolls())
    return;
  std::unique_lock<std::mutex> G(CommitLock, std::try_to_lock);
  if (!G.owns_lock())
    return;
  if (ActivationTracker::currentDepth() != 0)
    return;
  flushRetiredBindingsLocked();
}

void Runtime::annotateRollout(const std::shared_ptr<UpdateTransaction> &Tx,
                              const std::string &Verdict,
                              const std::string &Reason) {
  // The rollout thread seals the verdict here; tag the journal-seal
  // span (inside appendSeal) with the update id.
  trace::ScopedUpdateId TraceId(Tx->id());
  {
    std::lock_guard<std::mutex> G(Tx->RecLock);
    Tx->Rec.Rollout = Verdict;
    if (!Reason.empty())
      Tx->Rec.FailureReason = Reason;
  }
  // The canary verdict supersedes the commit-time seal: a rollout first
  // commits (sealed Committed via finalize), then the health gates
  // decide.  A rolled-back canary gets a later RolledBack seal for the
  // same Intent — latest seal wins in the journal's chain derivation —
  // so a reverted patch is never replayed at the next boot; a promotion
  // re-seals Committed carrying the verdict for the history surface.
  if (Tx->JournalSeq != 0) {
    if (persist::UpdateJournal *J = Journal.load(std::memory_order_acquire)) {
      persist::SealOutcome Outcome = Verdict == "promoted"
                                         ? persist::SealOutcome::Committed
                                         : persist::SealOutcome::RolledBack;
      std::string Mode;
      {
        std::lock_guard<std::mutex> G(Tx->RecLock);
        Mode = Tx->Rec.CommitMode;
      }
      if (Error SE =
              J->appendSeal(Tx->JournalSeq, Outcome, Mode, Reason, Verdict))
        DSU_LOG_WARN("journal: rollout verdict seal for intent %llu "
                     "failed: %s",
                     static_cast<unsigned long long>(Tx->JournalSeq),
                     SE.str().c_str());
    }
  }
  // The commit already appended this transaction's log entry; patch the
  // verdict in after the fact (search from the back — the entry is
  // almost always the most recent).
  std::lock_guard<std::mutex> G(LogLock);
  for (size_t I = Log.size(); I-- > 0;)
    if (Log[I].TxId == Tx->id()) {
      Log[I].Rollout = Verdict;
      if (!Reason.empty())
        Log[I].FailureReason = Reason;
      break;
    }
}

void Runtime::flushRetiredBindingsLocked() {
  std::vector<RollEntry *> Detached;
  Updateables.flushGracedRolls(epoch::domain().minObservedEpoch(),
                               Detached);
  for (RollEntry *R : Detached)
    epoch::retireObject(R);
}

Error Runtime::abortStagedTx(const std::shared_ptr<UpdateTransaction> &TxP) {
  UpdateTransaction &Tx = *TxP;
  // Request first, inspect second (seq_cst pairs with stageInto's
  // publish-then-check): if the transaction is still staging, the
  // staging side is guaranteed to observe the flag and abort when it
  // finishes — no need to wait for it here.
  Tx.AbortRequested.store(true, std::memory_order_seq_cst);
  while (true) {
    UpdatePhase P = Tx.Phase.load(std::memory_order_seq_cst);
    switch (P) {
    case UpdatePhase::Staging:
      return Error::success(); // honoured at the end of staging
    case UpdatePhase::Ready: {
      UpdatePhase Expect = UpdatePhase::Ready;
      if (Tx.Phase.compare_exchange_strong(Expect, UpdatePhase::Aborted,
                                           std::memory_order_acq_rel)) {
        Tx.Plan = LinkPlan();
        Tx.Swap = StagedStateSwap();
        finalize(Tx, UpdatePhase::Aborted, nullptr);
        return Error::success();
      }
      continue; // lost a race with commit or the staging thread
    }
    case UpdatePhase::Aborted:
      return Error::success();
    default:
      return Error::make(ErrorCode::EC_Invalid,
                         "transaction %llu is already %s; nothing to abort",
                         static_cast<unsigned long long>(Tx.id()),
                         updatePhaseName(P));
    }
  }
}

// --- The update point ------------------------------------------------------

Runtime::FrontNeed Runtime::frontNeed() const {
  // While a canary rollout is in flight the rollout controller owns the
  // commit pipeline: nothing else may commit (or collect) anything, or a
  // stacked commit would corrupt the rollback history the controller
  // relies on for auto-revert.
  if (RolloutActive.load(std::memory_order_acquire))
    return FrontNeed::None;
  std::shared_ptr<UpdateTransaction> Front = Queue.front();
  if (!Front || !UpdateQueue::actionable(*Front) ||
      Front->HeldForRollout.load(std::memory_order_acquire))
    return FrontNeed::None; // the rollout controller commits a held one
  return Front->needsBarrier() ? FrontNeed::Barrier : FrontNeed::Rolling;
}

const char *Runtime::pendingCommitName() const {
  switch (frontNeed()) {
  case FrontNeed::Rolling:
    return "rolling";
  case FrontNeed::Barrier:
    return "barrier";
  case FrontNeed::None:
    break;
  }
  return "none";
}

unsigned Runtime::updatePoint(Quiescence Q, bool *NeedsBarrier) {
  if (!Queue.pending())
    return 0;
  if (ActivationTracker::currentDepth() != 0) {
    // Updateable code is active on this thread: not a safe point.  The
    // transactions stay queued for the next (quiescent) update point,
    // the paper's "delay until inactive" behaviour.
    DSU_LOG_DEBUG("update point skipped: %u active updateable frame(s)",
                  ActivationTracker::currentDepth());
    return 0;
  }
  FrontNeed Need = frontNeed();
  if (Need == FrontNeed::None)
    return 0;
  bool Rolling = Q == Quiescence::Worker;
  if (Rolling && Need == FrontNeed::Barrier) {
    // Decided before the commit lock: arming the barrier costs a worker
    // this look at the front and nothing more.
    if (NeedsBarrier)
      *NeedsBarrier = true;
    return 0;
  }
  std::lock_guard<std::mutex> G(CommitLock);
  if (Rolling)
    flushRetiredBindingsLocked();
  auto TakeAny = [](const UpdateTransaction &T) {
    return !T.HeldForRollout.load(std::memory_order_acquire);
  };
  auto TakeRolling = [](const UpdateTransaction &T) {
    return !T.HeldForRollout.load(std::memory_order_acquire) &&
           !T.needsBarrier();
  };
  bool (*Take)(const UpdateTransaction &) = Rolling ? +TakeRolling : +TakeAny;
  unsigned Committed = 0;
  while (std::shared_ptr<UpdateTransaction> Tx = Queue.popActionableIf(Take)) {
    if (Tx->phase() != UpdatePhase::Ready)
      continue; // stage-failed or aborted: already recorded, just collect
    bool Demoted = false;
    Error E = commitStagedTxLocked(Tx, Rolling, &Demoted);
    if (Demoted) {
      // Reclassified at revalidation: back to the front, in its
      // original commit-order position, for the barrier to take.
      Queue.pushFront(std::move(Tx));
      break;
    }
    if (E)
      DSU_LOG_WARN("update rejected: tx %llu (%s): %s",
                   static_cast<unsigned long long>(Tx->id()),
                   Tx->patchId().c_str(), E.str().c_str());
    else
      ++Committed;
  }
  // A worker that stopped at a front needing the barrier says so now,
  // rather than leaving it for the next idle point to notice.
  if (Rolling && NeedsBarrier && frontNeed() == FrontNeed::Barrier)
    *NeedsBarrier = true;
  return Committed;
}

Error Runtime::applyNow(Patch P) {
  if (ActivationTracker::currentDepth() != 0)
    return Error::make(
        ErrorCode::EC_Busy,
        "applyNow refused: single-updater discipline violated (%u "
        "updateable frame(s) active on this thread); retry at a "
        "quiescent update point",
        ActivationTracker::currentDepth());
  Expected<StagedUpdate> U = stage(std::move(P));
  if (!U)
    return U.takeError();
  return U->commit();
}

Error Runtime::rollbackUpdateable(const std::string &Name) {
  std::lock_guard<std::mutex> G(CommitLock);
  if (ActivationTracker::currentDepth() != 0)
    return Error::make(
        ErrorCode::EC_Busy,
        "rollback of '%s' refused: single-updater discipline violated "
        "(%u updateable frame(s) active on this thread); retry at a "
        "quiescent update point",
        Name.c_str(), ActivationTracker::currentDepth());
  Error E = Updateables.rollback(Name);
  if (!E) {
    // A rollback is itself an update: it may revert a slot's recorded
    // type, so any plan prepared before it must revalidate at commit.
    CommitGeneration.fetch_add(1, std::memory_order_release);
  }
  return E;
}

// --- Introspection -------------------------------------------------------

std::vector<UpdateRecord> Runtime::updateLog() const {
  std::lock_guard<std::mutex> G(LogLock);
  return Log;
}

std::vector<UpdateRecord> Runtime::pendingUpdates() const {
  std::vector<UpdateRecord> Out;
  for (const std::shared_ptr<UpdateTransaction> &Tx : Queue.snapshot())
    Out.push_back(Tx->record());
  return Out;
}

unsigned Runtime::updatesApplied() const { return Applied.load(); }
