//===- core/Runtime.h - The dynamic software updating runtime -*- C++ -*-===//
///
/// \file
/// dsu::Runtime is the facade a program embeds to become updateable: it
/// owns the type context, the updateable-symbol registry, the typed export
/// table, the state registry, the transformer registry, and the queue of
/// staged update transactions.
///
/// The update pipeline is transactional and split in two:
///
///   stage  (any thread):   verify -> link prepare -> state build
///   commit (update point): validate -> payload swaps -> binding swings
///
/// with per-stage timing — the breakdown the PLDI 2001 evaluation reports
/// for every FlashEd patch (reproduced by bench_update_duration, E3),
/// sharpened into a stage-time vs. pause-time split.  Staging performs no
/// program mutation beyond append-only type/transformer definitions, so
/// the serving pause at updatePoint() is only the commit cost.
///
/// Thread model: any thread may stage updates (Runtime::stage, or the
/// UpdateController's worker); exactly the program's chosen update thread
/// calls updatePoint()/applyNow()/StagedUpdate::commit() (single-updater
/// discipline, as in the paper where the program updates itself at its
/// own update points).  Violations are reported as EC_Busy — distinct
/// from EC_Invalid — naming the discipline broken, so operator surfaces
/// can answer "retry at a quiescent point".
///
/// updatePoint() is the one place that decides how a transaction
/// commits.  Its caller says how quiescent it is: a single-threaded
/// program (or the serving plane's barrier committer) has global
/// quiescence and commits everything; a lone pool worker commits only
/// code-only fronts, as rolling updates, and is told when the front
/// needs the cross-worker barrier instead.  A canary rollout commits
/// through the RolloutController, which drives the same commit body.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_CORE_RUNTIME_H
#define DSU_CORE_RUNTIME_H

#include "link/Linker.h"
#include "link/SymbolTable.h"
#include "patch/Patch.h"
#include "patch/PatchLoader.h"
#include "runtime/UpdateQueue.h"
#include "runtime/UpdateTransaction.h"
#include "runtime/Updateable.h"
#include "state/StateCell.h"
#include "state/Transform.h"
#include "types/Type.h"

#include <memory>
#include <vector>

namespace dsu {

class UpdateController;
class RolloutController;

namespace persist {
class UpdateJournal;
}

/// The updating runtime.  One per program.
class Runtime {
public:
  Runtime();
  ~Runtime();
  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  // -- Subsystem access --------------------------------------------------
  TypeContext &types() { return Types; }
  UpdateableRegistry &updateables() { return Updateables; }
  SymbolTable &exports() { return Exports; }
  StateRegistry &state() { return State; }
  TransformerRegistry &transformers() { return Transformers; }

  /// The asynchronous staging engine (created on first use; its worker
  /// thread lives until the runtime is destroyed).
  UpdateController &controller();

  // -- Program setup -----------------------------------------------------

  /// Defines an updateable function from a C++ function pointer and
  /// returns the typed call handle.
  template <typename R, typename... Args>
  Expected<Updateable<R(Args...)>>
  defineUpdateable(const std::string &Name, R (*Initial)(Args...)) {
    return dsu::defineUpdateable(Updateables, Types, Name, Initial);
  }

  /// Defines an updateable function from an arbitrary callable (used
  /// when the initial implementation must capture program state).
  template <typename R, typename... Args, typename Callable>
  Expected<Updateable<R(Args...)>>
  defineUpdateableFn(const std::string &Name, Callable &&Initial) {
    const Type *FnTy = fnTypeOf<R, Args...>(Types);
    Expected<UpdateableSlot *> Slot = Updateables.define(
        Name, FnTy,
        makeClosureBinding<R, Args...>(std::forward<Callable>(Initial), 1,
                                       "program"));
    if (!Slot)
      return Slot.takeError();
    return Updateable<R(Args...)>(*Slot);
  }

  /// Registers a host export that patches may import.  \p Host serves
  /// VTAL importers; \p Addr (optional) serves native importers.
  Error exportHost(const std::string &Name, const Type *Ty,
                   vtal::HostFn Host, void *Addr = nullptr);

  /// Defines (or re-defines identically) a named type's representation.
  Error defineNamedType(const VersionedName &Name, const Type *Repr) {
    return Types.defineNamed(Name, Repr);
  }

  /// Defines a typed state cell.
  Expected<StateCell *> defineState(const std::string &Name, const Type *Ty,
                                    std::shared_ptr<void> Data) {
    return State.define(Name, Ty, std::move(Data));
  }

  // -- Update flow ---------------------------------------------------------

  /// Stages \p P on the calling thread: verification, link preparation,
  /// and the state-transform build all run here, with no program
  /// mutation.  Returns the handle whose commit() (at an update point)
  /// or abort() completes the transaction.  A staging failure is
  /// recorded in the update log and returned.  Callable from any thread.
  ///
  /// Boot-time replay passes the durable journal Intent \p JournalSeq:
  /// it is pinned on the transaction *before* the pipeline runs, so
  /// finalize() seals that Intent whatever the outcome — a staging
  /// failure and a crash mid-pipeline are both accounted against the
  /// journal's two-phase protocol.  0 = not journaled.
  Expected<StagedUpdate> stage(Patch P, uint64_t JournalSeq = 0);

  /// Queues a staged transaction for the next update point (FIFO with
  /// everything else queued).
  Error enqueue(const StagedUpdate &U);

  /// Stages \p P on the calling thread and queues it for the next update
  /// point.  A staging failure is recorded in the update log; the
  /// failed transaction never blocks the queue.
  void requestUpdate(Patch P);

  /// How much of the program the caller of updatePoint() knows to be
  /// quiescent.
  enum class Quiescence {
    /// No other thread runs updateable code: a single-threaded program
    /// at its own update point, or the serving plane's barrier committer
    /// with every worker parked.  Everything actionable commits.
    Global,
    /// Only the calling pool worker is quiescent; the others keep
    /// serving.  Code-only transactions commit as rolling updates —
    /// bindings swing behind epoch redirection and each worker adopts
    /// them at its own next quiescent point, so nobody parks.  The first
    /// transaction that migrates state or bumps types stays queued for
    /// the barrier.
    Worker,
  };

  /// The update point.  Near-free when nothing is actionable (one
  /// relaxed load); otherwise commits the actionable transactions at the
  /// front of the queue, in FIFO order, pausing only for commit cost
  /// (binding swings + state swaps) — never for verification or link
  /// preparation, which already ran at stage time.  Returns the number
  /// of transactions committed.  With Quiescence::Worker, *NeedsBarrier
  /// (when given) is set when the front needs every worker parked: the
  /// caller arms the barrier, whose committer calls updatePoint() again
  /// with global quiescence.
  unsigned updatePoint(Quiescence Q = Quiescence::Global,
                       bool *NeedsBarrier = nullptr);

  /// Stages and immediately commits one patch (the caller asserts this
  /// is a safe point on the update thread).  Refused with EC_Busy when
  /// updateable code is active on this thread.
  Error applyNow(Patch P);

  /// True when a transaction awaits the next update point.
  bool updatePending() const { return Queue.pending(); }

  /// How the next update point would commit the queue front: "rolling"
  /// (code-only, or terminal and awaiting collection), "barrier" (it
  /// migrates state or bumps types), or "none" (nothing actionable, or
  /// a canary rollout owns the commit plane).  /admin/status reports it
  /// as pending_commit.
  const char *pendingCommitName() const;

  /// Successfully committed rolling (barrier-free) updates.
  uint64_t rollingCommits() const {
    return RollingCommits.load(std::memory_order_relaxed);
  }

  /// VTAL functions verified across all staged patches (the
  /// dsu_verify_functions_total counter on /admin/metrics).
  uint64_t verifyFunctionsTotal() const {
    return VerifyFunctionsTotal.load(std::memory_order_relaxed);
  }

  /// Patch-analyzer findings recorded across all staged patches, every
  /// severity (the dsu_analysis_findings_total counter).
  uint64_t analysisFindingsTotal() const {
    return AnalysisFindingsTotal.load(std::memory_order_relaxed);
  }

  /// Adds to the analyzer-findings counter (the staging worker reports
  /// findings it produced before entering stageInto).
  void countAnalysisFindings(uint64_t N) {
    AnalysisFindingsTotal.fetch_add(N, std::memory_order_relaxed);
  }

  /// Whether error-severity analyzer findings refuse staging (default
  /// on).  Off, the analyzer still runs and records findings but the
  /// patch proceeds — the escape hatch for deliberately shipping a
  /// statically-detectable bad patch to exercise the *dynamic* defenses
  /// (canary gates, fault-injection drills).
  void setAnalysisGate(bool Enabled) {
    AnalysisGate.store(Enabled, std::memory_order_relaxed);
  }
  bool analysisGateEnabled() const {
    return AnalysisGate.load(std::memory_order_relaxed);
  }

  /// Detaches and epoch-retires every fully graced rolling-redirection
  /// chain, restoring the slots' single-load fast path.  Runs
  /// automatically at commit points; exposed for tests and teardown.
  void flushRetiredBindings();

  /// The idle-time form of flushRetiredBindings(), cheap enough for a
  /// reactor worker's poll loop: a single relaxed load when no slot
  /// carries a chain, and a try_lock — never a blocking wait in the
  /// serving path — when one does.  This is how a slot's single-load
  /// fast path recovers without waiting for another commit.
  void maybeFlushRetiredBindings();

  /// Id of the transaction at the queue front (0 when empty).  The
  /// serving plane tags its barrier-park and adoption trace spans with
  /// this, so per-worker pause evidence lands in the right update's
  /// span tree.
  uint64_t frontTxId() const {
    std::shared_ptr<UpdateTransaction> F = Queue.front();
    return F ? F->id() : 0;
  }

  /// Id of the most recent rolling-committed transaction (0 = none
  /// yet).  Workers compare against it at their quiescent points to
  /// emit one "adopted" trace event per worker per rolling update.
  uint64_t lastRollingTxId() const {
    return LastRollingTxId.load(std::memory_order_acquire);
  }

  /// Recorder timestamp (trace::Recorder::nowUs) of that commit, so an
  /// adopting worker can report its own commit-to-adoption lag.
  uint64_t lastRollingCommitUs() const {
    return LastRollingCommitUs.load(std::memory_order_acquire);
  }

  /// Reverts one updateable to its previous implementation (code-only;
  /// see UpdateableRegistry::rollback for the state caveat).  Refused
  /// with EC_Busy while updateable code is active on this thread, like
  /// any update.
  Error rollbackUpdateable(const std::string &Name);

  /// Staging watchdog: a transaction whose verify/link/state-build
  /// pipeline (including its wait in the staging backlog) exceeds this
  /// deadline is aborted with the TimedOut outcome, so a pathological
  /// patch cannot head-of-line-block the FIFO update queue.  0 disables
  /// the watchdog (the default).
  void setStagingDeadlineMs(uint64_t Ms) {
    StagingDeadlineMs.store(Ms, std::memory_order_relaxed);
  }
  uint64_t stagingDeadlineMs() const {
    return StagingDeadlineMs.load(std::memory_order_relaxed);
  }

  /// True while a canary rollout owns the commit plane (workers neither
  /// commit nor arm the barrier; the RolloutController drives every
  /// commit and revert itself).
  bool rolloutActive() const {
    return RolloutActive.load(std::memory_order_acquire);
  }

  // -- Durable journal -----------------------------------------------------

  /// Attaches the durable update journal: finalize() seals journaled
  /// transactions (Committed / RolledBack) and the staging plane writes
  /// Intents + refuses quarantined artifacts.  The journal must outlive
  /// the runtime's update activity; pass nullptr to detach.  Updates
  /// staged while no journal is attached are simply not persisted (the
  /// seed-compatible in-memory mode every test and bench keeps).
  void attachJournal(persist::UpdateJournal *J) {
    Journal.store(J, std::memory_order_release);
  }
  persist::UpdateJournal *journal() const {
    return Journal.load(std::memory_order_acquire);
  }

  // -- Introspection -------------------------------------------------------

  /// Chronological record of every terminal update transaction.
  std::vector<UpdateRecord> updateLog() const;

  /// Records of the transactions still queued (staging or ready),
  /// front-of-queue first.
  std::vector<UpdateRecord> pendingUpdates() const;

  /// Number of transactions waiting at the update point (any phase).
  size_t queueDepth() const { return Queue.depth(); }

  /// Number of successfully committed updates.
  unsigned updatesApplied() const;

private:
  friend class StagedUpdate;
  friend class UpdateController;
  friend class RolloutController;

  std::shared_ptr<UpdateTransaction> makeTransaction(std::string PatchId);

  /// Records a rollout verdict ("promoted" / "rolled-back") on \p Tx's
  /// live record and on its already-appended update-log entry, so the
  /// verdict is visible in GET /admin/updates.
  void annotateRollout(const std::shared_ptr<UpdateTransaction> &Tx,
                       const std::string &Verdict,
                       const std::string &Reason);

  /// Rollout latch (see rolloutActive()).
  void setRolloutActive(bool Active) {
    RolloutActive.store(Active, std::memory_order_release);
  }

  /// Runs the staging pipeline into \p Tx (serialized across stagers).
  /// On success the phase becomes Ready; on failure StageFailed with the
  /// record appended to the log.
  Error stageInto(UpdateTransaction &Tx);

  /// The staging watchdog's one exit: finalizes \p Tx as TimedOut with
  /// the reason every watchdog timeout gives, naming the stage it was
  /// caught \p During, and records \p StageMs as its staging time.
  Error timeOutStaging(UpdateTransaction &Tx, const char *During,
                       double StageMs);

  /// Commits one ready transaction, serialized against every other
  /// committer.  Without a \p CanaryMask the caller asserts global
  /// quiescence (the barrier form: StagedUpdate::commit, a rollout's
  /// barrier fallback).  With one, the transaction commits as a
  /// canary-gated rolling update: only workers in the mask adopt the new
  /// bindings, and the gated RollEntries are appended to \p GatedOut for
  /// the RolloutController to resolve; it sets *NeedsBarrier, like any
  /// rolling commit, when revalidation finds state to migrate.
  Error commitStagedTx(const std::shared_ptr<UpdateTransaction> &Tx,
                       uint64_t CanaryMask = UINT64_MAX,
                       std::vector<RollEntry *> *GatedOut = nullptr,
                       bool *NeedsBarrier = nullptr);

  /// The commit body, with committers already serialized by CommitLock.
  /// With \p Rolling set, the binding swings go through the epoch
  /// redirection instead of assuming global quiescence; if commit-time
  /// revalidation discovers the plan is no longer code-only, the
  /// transaction is returned to Ready, *NeedsBarrier is set, and no
  /// program state changes.
  Error commitStagedTxLocked(const std::shared_ptr<UpdateTransaction> &Tx,
                             bool Rolling, bool *NeedsBarrier,
                             uint64_t CanaryMask = UINT64_MAX,
                             std::vector<RollEntry *> *GatedOut = nullptr);

  /// What the queue front asks of the next update point.
  enum class FrontNeed { None, Rolling, Barrier };
  FrontNeed frontNeed() const;

  /// Registers an abort request; see StagedUpdate::abort().
  Error abortStagedTx(const std::shared_ptr<UpdateTransaction> &Tx);

  /// flushRetiredBindings() with CommitLock already held.
  void flushRetiredBindingsLocked();

  /// Appends \p Tx's record to the log with terminal phase \p Phase.
  void finalize(UpdateTransaction &Tx, UpdatePhase Phase, const Error *E);

  TypeContext Types;
  UpdateableRegistry Updateables;
  SymbolTable Exports;
  StateRegistry State;
  TransformerRegistry Transformers;
  Linker TheLinker;
  UpdateQueue Queue;

  /// Serializes staging pipelines (prepare reads registries that commit
  /// writes; type/transformer definitions are append-only but ordered).
  std::mutex StageLock;

  /// Serializes committers: the barrier's designated committer and any
  /// worker performing a rolling commit at its idle point.  Commit-time
  /// plan revalidation re-reads registries another commit could be
  /// writing, so commits must not interleave.  Never taken by staging.
  std::mutex CommitLock;

  std::atomic<uint64_t> RollingCommits{0};
  std::atomic<uint64_t> VerifyFunctionsTotal{0};
  std::atomic<uint64_t> AnalysisFindingsTotal{0};
  std::atomic<bool> AnalysisGate{true};

  /// Staging watchdog deadline (ms; 0 = off), applied to transactions at
  /// creation time.
  std::atomic<uint64_t> StagingDeadlineMs{0};

  /// Set while a RolloutController drives the commit plane; the update
  /// point stands down so no commit can stack on an unresolved canary
  /// gate.
  std::atomic<bool> RolloutActive{false};

  /// Bumped on every commit; a transaction prepared against an older
  /// generation revalidates its link plan before committing.
  std::atomic<uint64_t> CommitGeneration{0};

  /// See lastRollingTxId() / lastRollingCommitUs().
  std::atomic<uint64_t> LastRollingTxId{0};
  std::atomic<uint64_t> LastRollingCommitUs{0};

  /// The attached durable journal (nullptr = in-memory only).
  std::atomic<persist::UpdateJournal *> Journal{nullptr};

  mutable std::mutex LogLock;
  std::vector<UpdateRecord> Log;
  std::atomic<unsigned> Applied{0};

  std::mutex CtlLock;
  std::unique_ptr<UpdateController> Ctl;
};

} // namespace dsu

#endif // DSU_CORE_RUNTIME_H
