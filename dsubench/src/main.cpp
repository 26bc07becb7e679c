//===- dsubench/src/main.cpp - The repository benchmark -------*- C++ -*-===//
///
/// \file
/// One run of one workload against a FlashEd reactor pool (2 workers
/// pinned to cores 0-1), driven by one generator thread pinned to core 2
/// over four keep-alive loopback connections; the operator (this thread,
/// and the runtime's staging and rollout threads it spawns) runs on
/// core 3.  See dsubench/README.md for the workloads, the metrics and
/// the layer each metric should move.
///
/// Usage: dsubench --workload NAME --seed N --seconds S --trace 0|1
///                 [--out DIR] [--git SHA] [--src-digest HEX]
///
/// The last line of standard output is the result object
/// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics for
/// --trace 0, per-layer metrics for --trace 1.  The full report (both
/// sets and the run metadata) goes to DIR/<workload>-seed<N>-trace<T>.json
/// and a traced run's spans to DIR/spans-<workload>.csv.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Generator.h"

#include "core/Runtime.h"
#include "epoch/Epoch.h"
#include "flashed/App.h"
#include "flashed/Client.h"
#include "flashed/Patches.h"
#include "net/ReactorPool.h"
#include "patch/PatchBuilder.h"
#include "patch/PatchLoader.h"
#include "persist/Journal.h"
#include "persist/Replay.h"
#include "runtime/RolloutController.h"
#include "runtime/UpdateController.h"
#include "support/FaultInject.h"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <pthread.h>
#include <sched.h>
#include <sstream>
#include <sys/personality.h>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace dsu;
using namespace dsu::flashed;
using namespace dsubench;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------- config ---

/// One traffic mix.  Rates and sizes are fixed here, never per run, so
/// two commits are always measured on the same inputs for a given seed.
struct Workload {
  const char *Name;
  bool Open;          ///< open loop at Rate, else closed loop
  double Rate;        ///< requests/s (open loop)
  unsigned NumDocs;
  bool Wide;          ///< heavy-tailed 1 KiB-256 KiB sizes
  bool Churn;         ///< updates during the measured window
  unsigned SetupReps; ///< set-ups per run; setup_s is their median
};

const Workload Workloads[] = {
    {"hot-closed", false, 0, 64, false, false, 41},
    {"wide-open", true, 16000, 4096, true, false, 3},
    {"update-churn", true, 30000, 64, false, true, 41},
};

constexpr unsigned kWorkers = 2;
constexpr unsigned kConns = 4;
constexpr int64_t kChurnPeriodNs = 1'000'000'000; ///< one drill cycle per
constexpr unsigned kDrillCycles = 30; ///< post-window cycles (hot/wide)
/// Post-window cycles start this far apart, so a host stall of a second
/// or so lands in a few cycles, not in all of them.
constexpr int64_t kDrillPeriodNs = 150'000'000;
constexpr unsigned kRollingPerCycle = 24;
constexpr unsigned kBarrierPerCycle = 24;
constexpr unsigned kProbeRequests = 20000;
/// Journal-replay boots per run, each serving only the first kBootDocs
/// documents: loading documents is neither replayed state nor part of
/// the timed interval, and the full wide-open set takes ~1 s to load.
constexpr unsigned kReplayReps = 20;
constexpr unsigned kBootDocs = 64;
constexpr uint64_t kWaitMs = 5000; ///< bound on every update wait

// ----------------------------------------------------------------- util ---

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0;
}

bool pinSelf(int Cpu) {
  if (Cpu < 0)
    return false;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set) == 0;
}

/// Polls \p Done until it holds; returns 0 after \p TimeoutMs, else when
/// it became true, taken as the midpoint between the last poll that saw
/// it false and the first that saw it true.  Between polls the thread
/// yields instead of sleeping: the staging and rollout threads share its
/// core and run whenever they are ready, and the core never idles, so a
/// wait does not pay the virtual CPU's wake-up latency.
int64_t waitFor(const std::function<bool()> &Done,
                uint64_t TimeoutMs = kWaitMs) {
  int64_t Deadline = nowNs() + static_cast<int64_t>(TimeoutMs) * 1'000'000;
  int64_t Before = nowNs();
  while (!Done()) {
    if (Before > Deadline)
      return 0;
    sched_yield();
    Before = nowNs();
  }
  return (Before + nowNs()) / 2;
}

/// Document sizes come from fixed quantiles of the size distribution,
/// and only their assignment to paths and their bytes depend on the
/// seed: every seed serves the same multiset of sizes.
DocSet makeDocs(const Workload &W, uint64_t Seed) {
  DocSet D;
  unsigned N = W.NumDocs;
  std::vector<size_t> Sizes(N);
  for (unsigned I = 0; I != N; ++I) {
    double U = (I + 0.5) / N;
    double S;
    if (W.Wide) {
      // Bounded Pareto, alpha 1.1, on [1 KiB, 256 KiB].
      const double A = 1.1, L = 1024, H = 262144;
      S = L / std::pow(1 - U * (1 - std::pow(L / H, A)), 1 / A);
    } else {
      S = 512 * std::pow(32.0, U); // log-uniform on [512 B, 16 KiB]
    }
    Sizes[I] = static_cast<size_t>(S);
  }
  Rng R(Seed);
  for (unsigned I = N; I > 1; --I)
    std::swap(Sizes[I - 1], Sizes[R.below(I)]);
  for (unsigned I = 0; I != N; ++I) {
    std::string B(Sizes[I], ' ');
    for (size_t K = 0; K < B.size(); K += 8) {
      uint64_t V = R.next();
      for (size_t J = 0; J != 8 && K + J < B.size(); ++J)
        B[K + J] = static_cast<char>('a' + ((V >> (J * 8)) & 0xFF) % 26);
    }
    D.Paths.push_back("/doc" + std::to_string(I) + ".html");
    D.Hashes.push_back(fingerprint(B.data(), B.size()));
    D.Bodies.push_back(std::make_shared<const std::string>(std::move(B)));
  }
  return D;
}

DocStore makeStore(const DocSet &D) {
  DocStore S;
  for (size_t I = 0; I != D.size(); ++I)
    S.put(D.Paths[I], *D.Bodies[I]);
  return S;
}

std::string readText(const fs::path &P) {
  std::ifstream In(P);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

// --------------------------------------------------------------- result ---

/// Operations attempted and failed across the whole run: every checked
/// request and every update, each update against its expected terminal
/// state.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Checked = 0; ///< responses the generator's checker examined
  std::vector<std::string> Notes;
  void op(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (Notes.size() < 16)
        Notes.push_back(What);
    }
  }
  void requests(const GenResult &R) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    Checked += R.Checked;
    for (const std::string &N : R.Notes)
      if (Notes.size() < 16)
        Notes.push_back(N);
  }
};

// --------------------------------------------------------------- server ---

/// One running FlashEd instance with its journal.  Declaration order is
/// teardown order reversed: the pool stops first, the journal closes last.
struct Server {
  std::unique_ptr<persist::UpdateJournal> Journal;
  std::unique_ptr<Runtime> RT;
  std::unique_ptr<FlashedApp> App;
  std::unique_ptr<net::ReactorPool> Pool;

  ~Server() { shutdown(); }
  void shutdown() {
    if (Pool)
      Pool->stop();
    Pool.reset();
    App.reset();
    RT.reset();
    if (Journal)
      (void)Journal->sealCleanShutdown();
    Journal.reset();
  }
  uint64_t connsAccepted(unsigned W) const {
    return Pool->workerStats(W).Connections.load();
  }
};

/// What a boot's journal replay did and when.
struct ReplayTiming {
  persist::ReplayStats Stats;
  int64_t StartNs = 0;
  int64_t Ns = 0;
};

/// Builds a runtime + app over \p Docs, attaches the journal in
/// \p JournalDir, and starts the pool.  With \p Replay it is a boot: the
/// journal's committed chain is replayed before the listeners open.
std::unique_ptr<Server> bootServer(const DocSet &Docs,
                                   const std::string &JournalDir,
                                   SpanLog &Log, uint64_t Parent,
                                   ReplayTiming *Replay) {
  auto S = std::make_unique<Server>();
  persist::UpdateJournal::Options JO;
  // No fdatasync: its latency on a shared virtual disk varied several-fold
  // between runs and would swamp the program's own update and replay
  // cost (bench_journal measures the fsync cost on its own).
  JO.Sync = false;
  auto J = persist::UpdateJournal::open(JournalDir, JO);
  if (!J) {
    std::fprintf(stderr, "dsubench: journal: %s\n", J.error().str().c_str());
    return nullptr;
  }
  S->Journal = std::move(*J);
  S->Journal->beginBoot("");

  uint64_t Sp = Log.open("flashed.init", Parent, 0);
  S->RT = std::make_unique<Runtime>();
  S->App = std::make_unique<FlashedApp>(*S->RT);
  if (Error E = S->App->init(makeStore(Docs))) {
    std::fprintf(stderr, "dsubench: init: %s\n", E.str().c_str());
    return nullptr;
  }
  // The state the barrier drill migrates: %bench_counter@1 in one cell.
  cantFail(S->RT->defineNamedType({"bench_counter", 1},
                                  S->RT->types().intType()),
           "counter type");
  cantFail(S->RT->defineState("bench.counter",
                              S->RT->types().namedType("bench_counter", 1),
                              std::make_shared<int64_t>(1)),
           "counter cell");
  Log.close(Sp);

  S->RT->attachJournal(S->Journal.get());
  S->App->attachJournal(*S->Journal);
  if (Replay) {
    Replay->StartNs = nowNs();
    Sp = Log.open("persist.replay", Parent, 0);
    Replay->Stats = persist::replayJournal(*S->RT, *S->Journal);
    Log.close(Sp);
    Replay->Ns = nowNs() - Replay->StartNs;
  }
  S->App->enableAdmin(S->RT->controller());

  Sp = Log.open("net.pool_start", Parent, 0);
  net::PoolOptions O;
  O.Workers = kWorkers;
  O.PinWorkers = true;
  O.PollTimeoutMs = 2;
  FlashedApp *App = S->App.get();
  S->Pool = std::make_unique<net::ReactorPool>(
      [App](const RequestHead &Head, std::string_view Raw, std::string &Out,
            SharedBody &Body) { App->handleInto(Head, Raw, Out, Body); },
      O);
  S->Pool->setUpdateRuntime(*S->RT);
  S->App->attachPool(*S->Pool);
  if (Error E = S->Pool->start()) {
    std::fprintf(stderr, "dsubench: pool: %s\n", E.str().c_str());
    return nullptr;
  }
  Log.close(Sp);
  return S;
}

/// Opens kConns connections, connection I on worker I % kWorkers.  The
/// kernel hashes each SO_REUSEPORT connection to one worker's listener,
/// so a connection landing on another worker is closed and retried
/// (during set-up only).  The open loop sends round-robin over the
/// connections, so this layout gives each worker every other request.
/// Left to the hash, a run got either that or pairs of back-to-back
/// requests per worker, and its latency and epoch-adoption figures
/// followed which.
bool connectBalanced(Server &S, Generator &G) {
  for (unsigned Attempt = 0; Attempt != 256 && G.connections() < kConns;
       ++Attempt) {
    uint64_t Before[kWorkers];
    uint64_t Sum0 = 0;
    for (unsigned W = 0; W != kWorkers; ++W)
      Sum0 += Before[W] = S.connsAccepted(W);
    int Fd = connectLoopback(S.Pool->port());
    if (Fd < 0)
      return false;
    auto accepted = [&] {
      uint64_t Sum = 0;
      for (unsigned W = 0; W != kWorkers; ++W)
        Sum += S.connsAccepted(W);
      return Sum > Sum0;
    };
    if (!waitFor(accepted, 1000)) {
      ::close(Fd);
      return false;
    }
    unsigned W = 0;
    while (W != kWorkers && S.connsAccepted(W) == Before[W])
      ++W;
    if (W == G.connections() % kWorkers) {
      G.adopt(Fd, S.Pool->port());
    } else {
      ::close(Fd);
    }
  }
  return G.connections() == kConns;
}

bool terminal(UpdatePhase P) {
  return P != UpdatePhase::Staging && P != UpdatePhase::Ready &&
         P != UpdatePhase::Committing;
}

/// Stages \p Text through the controller and waits for the commit.
bool commitArtifact(Server &S, const std::string &Text, const char *Src) {
  StagedUpdate U = S.RT->controller().stageArtifactText(Text, Src);
  return waitFor([&] { return terminal(U.phase()); }) &&
         U.phase() == UpdatePhase::Committed;
}

size_t cacheEntries(FlashedApp &App) {
  epoch::Guard G;
  const StateCell::LivePayload *LP = App.cacheCell()->livePayload();
  uint32_t V = LP->Ty->isNamed() ? LP->Ty->name().Version : 0;
  if (V == 1)
    return static_cast<const CacheV1 *>(LP->Data.get())->Entries.size();
  if (V == 2)
    return static_cast<const CacheV2 *>(LP->Data.get())->Entries.size();
  return 0;
}

// ---------------------------------------------------------------- drill ---

/// Per-run update measurements (each a sample per update).
struct DrillStats {
  Samples RollingMs, LoadMs, StageMs, VerifyMs, Insts, AnalysisMs, Findings,
      PickupMs, StageToCommitUs, AdoptUs, LagMax;
  Samples BarrierMs, CommitMs, BuildMs, Cells;
  Samples RollbackMs, DetectMs, RevertMs;
  unsigned Canaries = 0;
  uint32_t NextBumpVersion = 1;
};

/// A rolling update: re-stage the VTAL mime_type patch, wait for the
/// commit and for every worker to announce an epoch past it.
void rollingUpdate(Server &S, const std::string &MimeSvg, DrillStats &D,
                   Tally &T, SpanLog &Log) {
  Runtime &RT = *S.RT;
  net::ReactorPool &Pool = *S.Pool;
  uint64_t Op = Log.open("op.rolling", 0, 0);
  int64_t L0 = nowNs();
  bool Loaded = static_cast<bool>(
      loadVtalPatch(RT.types(), RT.exports(), MimeSvg, "dsubench"));
  int64_t L1 = nowNs();
  Log.add("patch.load", Op, 0, L0, L1);

  int64_t T0 = nowNs();
  uint64_t Sp = Log.open("runtime.stage_call", Op, 0);
  StagedUpdate U = RT.controller().stageArtifactText(MimeSvg, "dsubench");
  Log.close(Sp);
  Sp = Log.open("runtime.wait_ready", Op, 0);
  int64_t TReady = waitFor([&] { return U.phase() != UpdatePhase::Staging; });
  Log.close(Sp);
  Sp = Log.open("runtime.wait_commit", Op, 0);
  int64_t TCommit =
      TReady ? waitFor([&] { return terminal(U.phase()); }) : 0;
  Log.close(Sp);
  uint64_t Eg = epoch::domain().globalEpoch();
  uint64_t Lag = 0;
  for (unsigned W = 0; W != Pool.workers(); ++W) {
    uint64_t E = Pool.workerEpoch(W);
    Lag = std::max<uint64_t>(Lag, E < Eg ? Eg - E : 0);
  }
  Sp = Log.open("epoch.wait_adopt", Op, 0);
  int64_t TAdopt = waitFor([&] {
    for (unsigned W = 0; W != Pool.workers(); ++W)
      if (Pool.workerEpoch(W) < Eg)
        return false;
    return true;
  });
  Log.close(Sp);
  Log.close(Op);
  UpdateRecord Rec = U.record();
  bool Ok = Loaded && TCommit && TAdopt &&
            U.phase() == UpdatePhase::Committed && Rec.CommitMode == "rolling";
  T.op(Ok, "rolling update " + Rec.Phase + " mode '" + Rec.CommitMode +
               "' " + Rec.FailureReason);
  if (!Ok)
    return;
  D.LoadMs.add((L1 - L0) / 1e6);
  D.RollingMs.add((TAdopt - T0) / 1e6);
  D.StageMs.add(Rec.StageMs);
  D.VerifyMs.add(Rec.VerifyMs);
  D.Insts.add(static_cast<double>(Rec.InstructionsVerified));
  D.AnalysisMs.add(Rec.AnalysisMs);
  D.Findings.add(static_cast<double>(Rec.AnalysisFindings.size()));
  D.PickupMs.add((TReady - T0) / 1e6 - Rec.StageMs);
  D.StageToCommitUs.add(static_cast<double>(Rec.StageToCommitUs));
  D.AdoptUs.add((TAdopt - TCommit) / 1e3);
  D.LagMax.add(static_cast<double>(Lag));
}

/// A barrier update: a state-migrating identity bump of %bench_counter.
void barrierUpdate(Server &S, DrillStats &D, Tally &T, SpanLog &Log) {
  Runtime &RT = *S.RT;
  uint64_t Op = Log.open("op.barrier", 0, 0);
  Patch P = cantFail(
      makeIdentityBumpPatch(RT.types(),
                            VersionedName{"bench_counter", D.NextBumpVersion},
                            RT.types().intType()),
      "bump");
  int64_t T0 = nowNs();
  uint64_t Sp = Log.open("runtime.stage_call", Op, 0);
  StagedUpdate U = RT.controller().stagePatch(std::move(P));
  Log.close(Sp);
  Sp = Log.open("runtime.wait_commit", Op, 0);
  int64_t T1 = waitFor([&] { return terminal(U.phase()); });
  Log.close(Sp);
  Log.close(Op);
  UpdateRecord Rec = U.record();
  bool Ok = T1 && U.phase() == UpdatePhase::Committed &&
            Rec.CommitMode == "barrier";
  T.op(Ok, "barrier update " + Rec.Phase + " mode '" + Rec.CommitMode +
               "' " + Rec.FailureReason);
  if (!Ok)
    return;
  ++D.NextBumpVersion;
  D.BarrierMs.add((T1 - T0) / 1e6);
  D.CommitMs.add(Rec.CommitMs);
  D.BuildMs.add(Rec.BuildMs);
  D.Cells.add(static_cast<double>(Rec.CellsMigrated));
}

/// A canary whose map_url answers every request with a 500: the rollout
/// controller must roll it back.  \p CanaryGen is odd while it is in
/// flight, so the generator counts the 500s it causes as bad serves.
void canaryRollback(Server &S, DrillStats &D, Tally &T, SpanLog &Log,
                    std::atomic<uint64_t> &CanaryGen) {
  uint64_t Op = Log.open("op.canary", 0, 0);
  RolloutOptions RO;
  RO.CanaryWorkers = 1;
  RO.WindowMs = 1000;
  RO.MinSamples = 5;
  CanaryGen.fetch_add(1, std::memory_order_acq_rel);
  int64_t T0 = nowNs();
  uint64_t Sp = Log.open("runtime.rollout_start", Op, 0);
  Expected<uint64_t> Id = S.App->rollouts().startArtifactText(
      faultinject::error500PatchText(), "dsubench-canary", RO);
  Log.close(Sp);
  RolloutRecord Rec;
  int64_t T1 = 0;
  if (Id) {
    Sp = Log.open("runtime.wait_verdict", Op, 0);
    T1 = waitFor([&] {
      Expected<RolloutRecord> R = S.App->rollouts().rollout(*Id);
      if (R)
        Rec = *R;
      return R && (!Rec.Verdict.empty() || Rec.State == "failed");
    });
    Log.close(Sp);
  }
  S.App->rollouts().waitIdle();
  CanaryGen.fetch_add(1, std::memory_order_acq_rel);
  Log.close(Op);
  bool Ok = T1 && Rec.Verdict == "rolled-back";
  T.op(Ok, "canary verdict '" + Rec.Verdict + "' state " + Rec.State + " " +
               Rec.Reason);
  ++D.Canaries;
  if (!Ok)
    return;
  D.RollbackMs.add((T1 - T0) / 1e6);
  D.DetectMs.add(Rec.DetectMs);
  D.RevertMs.add(Rec.RevertMs);
}

/// One drill cycle.  Rolling and barrier updates are cheap, so a cycle
/// runs several of each to give their medians enough samples.
void drillCycle(Server &S, const std::string &MimeSvg, DrillStats &D,
                Tally &T, SpanLog &Log, std::atomic<uint64_t> &CanaryGen) {
  for (unsigned I = 0; I != kRollingPerCycle; ++I)
    rollingUpdate(S, MimeSvg, D, T, Log);
  for (unsigned I = 0; I != kBarrierPerCycle; ++I)
    barrierUpdate(S, D, T, Log);
  canaryRollback(S, D, T, Log, CanaryGen);
}

// ---------------------------------------------------------------- probe ---

struct ProbeStats {
  Samples ScanNs, HandleNs, StaticNs, DispatchNs, DirectNs, HitNs, MissNs,
      DocGetNs, ParseNs;
};

/// Replays the workload's request stream in-process through each
/// layer's public entry points on a fresh instance (cold cache), timing
/// every call as a span.
void probeLayers(const Workload &W, const DocSet &Docs, uint64_t Seed,
                 ProbeStats &P, Tally &T, SpanLog &Log) {
  Runtime RT;
  FlashedApp App(RT);
  cantFail(App.init(makeStore(Docs)), "probe init");
  if (W.Churn) {
    Patch Fix = cantFail(loadVtalPatch(RT.types(), RT.exports(),
                                       vtalParseFixPatchText(), "dsubench"),
                         "parse fix");
    T.op(!RT.applyNow(std::move(Fix)), "probe: parse fix not applied");
  }
  RequestStream Pick(Seed, static_cast<uint32_t>(Docs.size()));
  std::vector<bool> Seen(Docs.size());
  std::string Out;
  uint64_t Bad = 0;
  auto span = [&](const char *Name, uint64_t Parent, uint64_t Req,
                  Samples &S, auto &&Fn) {
    int64_t T0 = nowNs();
    Fn();
    int64_t T1 = nowNs();
    S.add(static_cast<double>(T1 - T0));
    Log.add(Name, Parent, Req, T0, T1);
  };
  for (uint64_t Id = 1; Id <= kProbeRequests; ++Id) {
    uint32_t Doc = Pick.next();
    std::string Raw = Generator::requestText(Docs, Doc, Id, W.Churn);
    // The static pipeline has no query-string fix, so it gets the
    // untagged form of the same request.
    std::string Plain = Generator::requestText(Docs, Doc, Id, false);
    epoch::Guard G;
    uint64_t Req = Log.open("probe.request", 0, Id);
    RequestHead Head;
    span("flashed.scan_head", Req, Id, P.ScanNs,
         [&] { Head = scanRequestHead(Raw); });

    bool First = !Seen[Doc];
    Seen[Doc] = true;
    SharedBody Body;
    Out.clear();
    int64_t T0 = nowNs();
    App.handleInto(Head, Raw, Out, Body);
    int64_t T1 = nowNs();
    Log.add(First ? "flashed.cache_miss" : "flashed.cache_hit", Req, Id, T0,
            T1);
    P.HandleNs.add(static_cast<double>(T1 - T0));
    (First ? P.MissNs : P.HitNs).add(static_cast<double>(T1 - T0));
    Bad += !Body || *Body != *Docs.Bodies[Doc] ||
           Out.compare(0, 12, "HTTP/1.1 200") != 0;

    RequestHead PlainHead = scanRequestHead(Plain);
    Out.clear();
    Body.reset();
    span("flashed.handle_static", Req, Id, P.StaticNs,
         [&] { App.handleStaticInto(PlainHead, Plain, Out, Body); });
    Bad += !Body || Body->size() != Docs.Bodies[Doc]->size();

    std::string Path, Mime;
    int64_t D0 = nowNs();
    uint64_t Disp = Log.open("runtime.dispatch", Req, Id);
    std::string Parsed;
    span("vtal.parse_target", Disp, Id, P.ParseNs,
         [&] { Parsed = App.ParseTarget(Raw); });
    Path = App.MapUrl(Parsed.substr(Parsed.find(' ') + 1));
    Mime = App.MimeType(Path);
    Log.close(Disp);
    P.DispatchNs.add(static_cast<double>(nowNs() - D0));
    Bad += Path != Docs.Paths[Doc] || Mime != "text/html";

    span("runtime.direct", Req, Id, P.DirectNs, [&] {
      std::string Pd = FlashedApp::parseTargetV1(Plain);
      Path = FlashedApp::mapUrlV1(Pd.substr(Pd.find(' ') + 1));
      Mime = FlashedApp::mimeTypeV1(Path);
    });
    Bad += Path != Docs.Paths[Doc];

    std::shared_ptr<const std::string> Got;
    span("flashed.docstore_get", Req, Id, P.DocGetNs,
         [&] { Got = App.docs().getShared(Docs.Paths[Doc]); });
    Bad += !Got;
    Log.close(Req);
  }
  T.Attempted += kProbeRequests;
  T.Failed += Bad;
  if (Bad && T.Notes.size() < 16)
    T.Notes.push_back("probe: " + std::to_string(Bad) + " wrong results");
}

// --------------------------------------------------------------- report ---

struct Metric {
  std::string Name, Unit;
  double Value;
};

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    O += C;
  }
  return O;
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string J = "{";
  char Buf[256];
  for (size_t I = 0; I != Ms.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                  Ms[I].Unit.c_str());
    J += Buf;
  }
  return J + "}";
}

std::string missingJson(const std::map<std::string, std::string> &M) {
  std::string J = "{";
  for (auto It = M.begin(); It != M.end(); ++It)
    J += (It == M.begin() ? "\"" : ", \"") + It->first + "\": \"" +
         jsonEscape(It->second) + "\"";
  return J + "}";
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  std::string Out = ".dsubench_out";
  std::string Git = "unknown";
  std::string SrcDigest = "unknown";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = static_cast<unsigned>(std::atoi(V.c_str()));
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--out")
      A.Out = V;
    else if (K == "--git")
      A.Git = V;
    else if (K == "--src-digest")
      A.SrcDigest = V;
    else
      return false;
  }
  return (Argc % 2) == 1 && !A.Workload.empty() && A.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // Address-space randomization changes cache and TLB behaviour from run
  // to run; the benchmark re-executes itself once without it (where the
  // host allows) so runs differ only in what they measure.
  int Persona = personality(0xffffffff);
  if (Persona != -1 && !(Persona & ADDR_NO_RANDOMIZE) &&
      personality(static_cast<unsigned long>(Persona) | ADDR_NO_RANDOMIZE) !=
          -1)
    execv("/proc/self/exe", Argv);
  int64_t ProcStart = nowNs();
  std::signal(SIGPIPE, SIG_IGN);
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: dsubench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  const Workload *WP = nullptr;
  for (const Workload &W : Workloads)
    if (A.Workload == W.Name)
      WP = &W;
  if (!WP) {
    std::fprintf(stderr, "dsubench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }
  const Workload &W = *WP;
  std::string MimeSvg = readText("examples/mime_svg.dsup");
  if (MimeSvg.empty()) {
    std::fprintf(stderr, "dsubench: run from the repository root "
                         "(examples/mime_svg.dsup not found)\n");
    return 2;
  }

  // Cores: workers on 0-1 (the pool pins them), the generator on 2, and
  // this operator thread — plus the staging and rollout threads the
  // runtime spawns from it, which inherit its mask — on 3.
  long NProc = sysconf(_SC_NPROCESSORS_ONLN);
  int GenCpu = NProc >= 3 ? 2 : -1;
  int OpCpu = NProc >= 4 ? 3 : -1;
  pinSelf(OpCpu);

  fs::path OutDir = A.Out;
  fs::path Tmp = OutDir / ("tmp-" + std::to_string(::getpid()));
  std::error_code EC;
  fs::remove_all(Tmp, EC);
  fs::create_directories(Tmp, EC);
  if (EC) {
    std::fprintf(stderr, "dsubench: cannot create %s\n", Tmp.c_str());
    return 2;
  }

  SpanLog OpLog(A.Trace, 1ULL << 40);
  Tally T;
  std::map<std::string, std::string> MissingE2E, MissingLayer;
  std::atomic<uint64_t> CanaryGen{0};
  DocSet Docs = makeDocs(W, A.Seed);

  // ---- Set-up.  The first, timed from process start, serves the run;
  // the others run after it (see below).  setup_s is their median. ------
  Samples SetupS;
  auto setUp = [&](unsigned K, std::unique_ptr<Server> &S,
                   std::unique_ptr<Generator> &Gen) {
    int64_t T0 = K ? nowNs() : ProcStart;
    uint64_t Sp = OpLog.open("setup", 0, 0);
    S = bootServer(Docs, (Tmp / ("journal" + std::to_string(K))).string(),
                   OpLog, Sp, nullptr);
    if (!S)
      return false;
    if (W.Churn) {
      uint64_t Fix = OpLog.open("runtime.parse_fix", Sp, 0);
      T.op(commitArtifact(*S, vtalParseFixPatchText(), "dsubench-setup"),
           "set-up: VTAL parse fix did not commit");
      OpLog.close(Fix);
    }
    Gen = std::make_unique<Generator>(Docs, A.Seed, W.Churn, CanaryGen,
                                      GenCpu);
    uint64_t C = OpLog.open("net.connect", Sp, 0);
    int64_t C0 = nowNs();
    bool Connected = connectBalanced(*S, *Gen);
    // The client's retries until each connection lands on its worker are
    // the benchmark's own and their number is up to the kernel's hash, so
    // they are left out of the set-up time.
    int64_t ConnectNs = nowNs() - C0;
    OpLog.close(C);
    if (!Connected) {
      std::fprintf(stderr, "dsubench: could not balance connections\n");
      return false;
    }
    uint64_t Wu = OpLog.open("gen.warmup", Sp, 0);
    GenPhase Warm;
    Warm.WarmAll = true;
    Warm.Record = false;
    T.requests(Gen->run(Warm));
    OpLog.close(Wu);
    OpLog.close(Sp);
    SetupS.add((nowNs() - T0 - ConnectNs) / 1e9);
    return true;
  };
  std::unique_ptr<Server> S;
  std::unique_ptr<Generator> Gen;
  if (!setUp(0, S, Gen))
    return 1;
  const std::string JournalDir = (Tmp / "journal0").string();
  if (A.Trace)
    Gen->enableSpans();

  // ---- The measured window. -------------------------------------------
  const int64_t WindowNs = static_cast<int64_t>(A.Seconds) * 1'000'000'000;
  GenPhase Main;
  Main.Open = W.Open;
  Main.Rate = W.Rate;
  Main.DurationNs = WindowNs;
  Main.TraceSlices = A.Trace;
  DrillStats D;
  net::ReactorPool &Pool = *S->Pool;
  uint64_t Req0 = Pool.requestsServed();
  uint64_t Bytes0 = Pool.bytesSent();
  size_t Entries0 = cacheEntries(*S->App);
  // The operator thread (this one) is benchmark code: its polling and
  // probe calls are not the server's CPU, like the generator's.
  double Cpu0 = cpuUs(RUSAGE_SELF), OpCpu0 = cpuUs(RUSAGE_THREAD);
  GenResult R;
  {
    std::thread GT([&] { R = Gen->run(Main); });
    if (W.Churn) {
      // The drill runs on its fixed schedule inside the window.
      int64_t Start = nowNs();
      for (int64_t Next = Start + kChurnPeriodNs / 2;
           Next + kChurnPeriodNs / 2 < Start + WindowNs;
           Next += kChurnPeriodNs) {
        while (nowNs() < Next)
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        drillCycle(*S, MimeSvg, D, T, OpLog, CanaryGen);
      }
    }
    GT.join();
  }
  double CpuUs =
      cpuUs(RUSAGE_SELF) - Cpu0 - (cpuUs(RUSAGE_THREAD) - OpCpu0);

  double RssMb = peakRssMb();
  uint64_t Served = Pool.requestsServed() - Req0;
  uint64_t BytesOut = Pool.bytesSent() - Bytes0;
  size_t Entries = cacheEntries(*S->App);
  T.requests(R);

  // ---- Update drill after the window, under the same traffic. ---------
  if (!W.Churn) {
    std::atomic<bool> Stop{false};
    // Closed-loop traffic on the workload's documents: workers that are
    // always busy reach their quiescent points at a steady pace, where an
    // open loop's arrival phase would decide how long adoption waits.
    GenPhase Drill;
    Drill.Stop = &Stop;
    Drill.Record = false;
    GenResult DR;
    std::thread GT([&] { DR = Gen->run(Drill); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    int64_t Next = nowNs();
    for (unsigned C = 0; C != kDrillCycles; ++C, Next += kDrillPeriodNs) {
      while (nowNs() < Next)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      drillCycle(*S, MimeSvg, D, T, OpLog, CanaryGen);
    }
    Stop.store(true);
    GT.join();
    T.requests(DR);
    R.BadServes += DR.BadServes;
  }

  // Server-side layer readings, taken before the pool goes away.
  uint64_t Conns = 0, Pauses = 0, PauseTotalUs = 0, PauseMaxUs = 0;
  for (unsigned I = 0; I != Pool.workers(); ++I) {
    const net::WorkerStats &WS = Pool.workerStats(I);
    Conns += WS.Connections.load();
    Pauses += WS.Pauses.load();
    PauseTotalUs += WS.PauseTotalUs.load();
    PauseMaxUs = std::max<uint64_t>(PauseMaxUs, WS.PauseMaxUs.load());
  }
  uint64_t Rounds = Pool.barrierRounds();
  std::string Cpus;
  for (unsigned I = 0; I != Pool.workers(); ++I)
    Cpus += (I ? "," : "") + std::to_string(Pool.workerCpu(I));
  double NativeFns = 0, Deopts = 0;
  {
    Expected<FetchResult> M = httpGet(Pool.port(), "/admin/metrics");
    bool Ok = M && M->Status == 200;
    T.op(Ok, "GET /admin/metrics failed");
    if (Ok) {
      std::istringstream In(M->Body);
      std::string Line;
      while (std::getline(In, Line)) {
        if (Line.rfind("dsu_vtal_native_functions_total ", 0) == 0)
          NativeFns = std::atof(Line.c_str() + Line.find(' ') + 1);
        else if (Line.rfind("dsu_vtal_deopts_total", 0) == 0 &&
                 Line.find(' ') != std::string::npos)
          Deopts += std::atof(Line.c_str() + Line.rfind(' ') + 1);
      }
    }
  }
  std::vector<Span> GenSpans = std::move(Gen->spans().Spans);
  Gen.reset();
  S->shutdown();
  S.reset();

  // ---- The remaining set-ups, timed and torn down.  They follow the
  // window so that its memory, and peak_rss_mb, reflect one set-up: each
  // torn-down instance left a different amount of freed memory behind.
  for (unsigned K = 1; K < W.SetupReps; ++K) {
    std::unique_ptr<Server> Extra;
    std::unique_ptr<Generator> ExtraGen;
    if (!setUp(K, Extra, ExtraGen))
      return 1;
  }

  // ---- Journal-replay boots. ------------------------------------------
  Samples ReplayBootMs, ReplayPerPatchMs;
  double ChainLength = 0;
  DocSet BootDocs;
  for (size_t I = 0; I != std::min<size_t>(kBootDocs, Docs.size()); ++I) {
    BootDocs.Paths.push_back(Docs.Paths[I]);
    BootDocs.Bodies.push_back(Docs.Bodies[I]);
    BootDocs.Hashes.push_back(Docs.Hashes[I]);
  }
  for (unsigned K = 0; K != kReplayReps; ++K) {
    uint64_t Op = OpLog.open("op.replay_boot", 0, 0);
    ReplayTiming RT;
    // Every boot replays the journal exactly as the run left it (a boot
    // appends its own replay records, which the next boot must not see).
    fs::path BootDir = Tmp / "boot";
    fs::remove_all(BootDir, EC);
    fs::copy(JournalDir, BootDir, fs::copy_options::recursive, EC);
    std::unique_ptr<Server> B =
        bootServer(BootDocs, BootDir.string(), OpLog, Op, &RT);
    if (!B) {
      T.op(false, "replay boot failed");
      OpLog.close(Op);
      continue;
    }
    uint64_t Sp = OpLog.open("client.first_request", Op, 0);
    uint32_t Doc = static_cast<uint32_t>(K % BootDocs.size());
    Expected<FetchResult> F = httpGet(
        B->Pool->port(), BootDocs.Paths[Doc] + (W.Churn ? "?r=boot" : ""));
    int64_t T1 = nowNs();
    OpLog.close(Sp);
    OpLog.close(Op);
    const persist::ReplayStats &St = RT.Stats;
    bool Ok = F && F->Status == 200 && F->Body == *BootDocs.Bodies[Doc] &&
              St.Failed == 0 && St.Committed == St.Attempted;
    T.op(Ok, "replay boot: " + std::to_string(St.Committed) + "/" +
                 std::to_string(St.Attempted) + " replayed");
    B.reset();
    if (Ok) {
      ReplayBootMs.add((T1 - RT.StartNs) / 1e6);
      ReplayPerPatchMs.add(St.Attempted ? RT.Ns / 1e6 / St.Attempted : 0);
      ChainLength = St.Attempted;
    }
  }

  // ---- In-process layer probe (traced run only). ----------------------
  ProbeStats P;
  SpanLog ProbeLog(A.Trace, 1ULL << 41);
  if (A.Trace)
    probeLayers(W, Docs, A.Seed, P, T, ProbeLog);

  // ---- Report. ----------------------------------------------------------
  std::vector<Metric> E2E, Layer;
  auto need = [&](std::vector<Metric> &To, const char *Name,
                  const char *Unit, Samples &S, bool MidMean = false) {
    if (S.empty()) {
      (&To == &E2E ? MissingE2E : MissingLayer)[Name] =
          "no samples in this run";
      return;
    }
    To.push_back({Name, Unit, MidMean ? S.midMean() : S.median()});
  };
  auto value = [&](std::vector<Metric> &To, const char *Name,
                   const char *Unit, double V) {
    To.push_back({Name, Unit, V});
  };
  uint64_t Completed = R.Completed;
  need(E2E, "setup_s", "s", SetupS);
  // Throughput (completions per slice they arrived in) and latency
  // percentiles (of the requests due in the slice) are taken per 100 ms
  // slice of the window and the median slice is reported: a host stall
  // (this class of host shows several a second) moves the slices it lands
  // in, not the run's figure.
  Samples SliceRps, SliceP50, SliceP90;
  for (size_t I = 0; I < R.SliceDone.size() && I < R.SliceUs.size(); ++I)
    SliceRps.add(R.SliceDone[I] * 10.0); // slices wholly inside the window
  for (Samples &Sl : R.SliceUs) {
    if (!Sl.empty()) {
      SliceP50.add(Sl.pct(50));
      SliceP90.add(Sl.pct(90));
    }
  }
  need(E2E, "throughput_rps", "1/s", SliceRps);
  need(E2E, "req_p50_us", "us", SliceP50);
  need(E2E, "req_p90_us", "us", SliceP90);
  value(E2E, "cpu_us_per_req", "us",
        Completed ? (CpuUs - R.CpuUs) / Completed : 0);
  value(E2E, "peak_rss_mb", "MB", RssMb);
  need(E2E, "update_rolling_ms", "ms", D.RollingMs, true);
  need(E2E, "update_barrier_ms", "ms", D.BarrierMs, true);
  need(E2E, "rollback_ms", "ms", D.RollbackMs, true);

  // Per-layer readings (the traced run prints these).
  auto layer = [&](const char *Name, const char *Unit, Samples &S) {
    need(Layer, Name, Unit, S);
  };
  layer("flashed.scan_head_ns", "ns", P.ScanNs);
  layer("flashed.handle_ns", "ns", P.HandleNs);
  layer("flashed.handle_static_ns", "ns", P.StaticNs);
  layer("runtime.dispatch_ns", "ns", P.DispatchNs);
  layer("runtime.direct_ns", "ns", P.DirectNs);
  value(Layer, "flashed.cache_hit_share", "ratio",
        Served ? 1.0 - double(Entries - Entries0) / Served : 0);
  value(Layer, "flashed.cache_entries", "count", double(Entries));
  layer("flashed.cache_hit_ns", "ns", P.HitNs);
  layer("flashed.cache_miss_ns", "ns", P.MissNs);
  layer("flashed.docstore_get_ns", "ns", P.DocGetNs);
  layer("vtal.parse_target_ns", "ns", P.ParseNs);
  value(Layer, "vtal.native_functions", "count", NativeFns);
  value(Layer, "vtal.deopts", "count", Deopts);
  layer("vtal.verify_ms", "ms", D.VerifyMs);
  layer("vtal.insts_verified", "count", D.Insts);
  layer("analysis.ms", "ms", D.AnalysisMs);
  layer("analysis.findings", "count", D.Findings);
  layer("patch.load_ms", "ms", D.LoadMs);
  layer("runtime.stage_ms", "ms", D.StageMs);
  layer("runtime.pickup_ms", "ms", D.PickupMs);
  layer("runtime.stage_to_commit_us", "us", D.StageToCommitUs);
  layer("epoch.adopt_us", "us", D.AdoptUs);
  layer("epoch.lag_max", "epochs", D.LagMax);
  layer("runtime.commit_ms", "ms", D.CommitMs);
  layer("state.build_ms", "ms", D.BuildMs);
  layer("state.cells_migrated", "count", D.Cells);
  value(Layer, "net.pauses", "count", double(Pauses));
  value(Layer, "net.pause_mean_us", "us",
        Pauses ? double(PauseTotalUs) / Pauses : 0);
  value(Layer, "net.pause_max_us", "us", double(PauseMaxUs));
  value(Layer, "net.barrier_rounds", "count", double(Rounds));
  layer("runtime.rollout_detect_ms", "ms", D.DetectMs);
  layer("runtime.rollout_revert_ms", "ms", D.RevertMs);
  value(Layer, "runtime.rollout_bad_serves", "count",
        D.Canaries ? double(R.BadServes) / D.Canaries : 0);
  // The boots repeat identical work, and co-tenant CPU steal only ever
  // adds to a boot's time, so the 10th percentile tracks the program's
  // own cost: between runs it moved about half as much as the median.
  if (ReplayBootMs.empty())
    MissingLayer["persist.replay_boot_ms"] = "no successful boot";
  else
    value(Layer, "persist.replay_boot_ms", "ms", ReplayBootMs.pct(10));
  layer("persist.replay_ms_per_patch", "ms", ReplayPerPatchMs);
  value(Layer, "persist.chain_length", "count", ChainLength);
  value(Layer, "net.conns_accepted", "count", double(Conns));
  value(Layer, "net.bytes_per_req", "B", Served ? double(BytesOut) / Served : 0);
  value(Layer, "gen.max_late_us", "us", R.MaxLateNs / 1e3);
  value(Layer, "gen.cpu_us_per_req", "us", Completed ? R.CpuUs / Completed : 0);
  Samples AllUs;
  for (const Samples &Sl : R.SliceUs)
    AllUs.append(Sl);
  value(Layer, "client.p99_us", "us", AllUs.pct(99));
  value(Layer, "client.p999_us", "us", AllUs.pct(99.9));
  value(Layer, "client.samples", "count", double(AllUs.count()));
  if (A.Trace) {
    double Tr = R.TracedUs.pct(50), Un = R.UntracedUs.pct(50);
    value(Layer, "trace.req_p50_us", "us", Tr);
    value(Layer, "trace.untraced_p50_us", "us", Un);
    value(Layer, "trace.overhead_us", "us", Tr - Un);
  }

  // Run metadata, on its own line and in the report file.
  char Meta[1024];
  std::snprintf(
      Meta, sizeof(Meta),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %u, \"trace\": %d, "
      "\"git\": \"%s\", \"src_digest\": \"%s\", \"nproc\": %ld, "
      "\"worker_cpus\": [%s], \"generator_cpu\": %d, \"operator_cpu\": %d, "
      "\"transport\": \"tcp loopback 127.0.0.1, %u keep-alive connections\", "
      "\"loop\": \"%s\", \"rate_rps\": %.0f, \"docs\": %u, "
      "\"setup_reps\": %u, \"replay_reps\": %u, \"updates\": %u, "
      "\"responses_checked\": %llu, \"bad_serves\": %llu, "
      "\"reconnects\": %llu}",
      W.Name, static_cast<unsigned long long>(A.Seed), A.Seconds,
      A.Trace ? 1 : 0, jsonEscape(A.Git).c_str(),
      jsonEscape(A.SrcDigest).c_str(), NProc, Cpus.c_str(), GenCpu, OpCpu,
      kConns, W.Open ? "open" : "closed", W.Rate, W.NumDocs, W.SetupReps,
      kReplayReps,
      static_cast<unsigned>(D.RollingMs.count() + D.BarrierMs.count() +
                            D.Canaries),
      static_cast<unsigned long long>(T.Checked),
      static_cast<unsigned long long>(R.BadServes),
      static_cast<unsigned long long>(R.Reconnects));

  std::map<std::string, std::string> &MissingHere =
      A.Trace ? MissingLayer : MissingE2E;
  bool Correct = T.Failed == 0 && MissingHere.empty();
  for (const std::string &N : T.Notes)
    std::fprintf(stderr, "dsubench: failed: %s\n", N.c_str());

  std::string Report =
      std::string("{\"meta\": ") + Meta + ", \"correct\": " +
      (Correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(T.Attempted) +
      ", \"failed\": " + std::to_string(T.Failed) +
      ", \"end_to_end\": " + metricsJson(E2E) +
      ", \"per_layer\": " + metricsJson(Layer) +
      ", \"missing\": " + missingJson(MissingHere) + "}\n";
  std::string Base = std::string(W.Name) + "-seed" + std::to_string(A.Seed) +
                     "-trace" + (A.Trace ? "1" : "0");
  std::ofstream(OutDir / (Base + ".json")) << Report;
  if (A.Trace) {
    std::ofstream Csv(OutDir / ("spans-" + std::string(W.Name) + ".csv"));
    Csv << "id,parent,req,name,start_ns,end_ns\n";
    for (const std::vector<Span> *L : {&OpLog.Spans, &GenSpans, &ProbeLog.Spans})
      for (const Span &Sp : *L)
        Csv << Sp.Id << ',' << Sp.Parent << ',' << Sp.Req << ',' << Sp.Name
            << ',' << Sp.StartNs << ',' << Sp.EndNs << '\n';
  }
  fs::remove_all(Tmp, EC);

  std::printf("dsubench-meta %s\n", Meta);
  if (!MissingHere.empty())
    std::printf("dsubench-missing %s\n", missingJson(MissingHere).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed),
              metricsJson(A.Trace ? Layer : E2E).c_str());
  std::fflush(stdout);
  return 0;
}
