//===- tests/test_rolling_update.cpp - Barrier-free code-only updates -----===//
///
/// The rolling-commit path over a live reactor pool: a code-only patch
/// swings every worker with ZERO barrier parks and zero half-committed
/// two-binding responses; a state-migrating patch still takes the
/// global barrier; a worker stuck mid-request neither blocks a rolling
/// commit nor observes it mid-request; the stage->commit latency lands
/// within one poll timeout under idle load; and DocStore hot
/// replacement is safe with mutex-free readers.
///
/// Run alone with `ctest -L epoch`.

#include "flashed/App.h"
#include "flashed/Client.h"
#include "flashed/DocStore.h"
#include "flashed/Http.h"
#include "flashed/Patches.h"
#include "net/ReactorPool.h"
#include "patch/PatchBuilder.h"
#include "patch/PatchLoader.h"
#include "runtime/UpdateController.h"
#include "trace/Trace.h"
#ifndef DSU_VTAL_NO_NATIVE
#include "epoch/Epoch.h"
#include "vtal/native/NativeImage.h"
#endif

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

using namespace dsu;
using namespace dsu::flashed;

namespace {

constexpr unsigned kWorkers = 3;

#define WAIT_FOR(Pred)                                                     \
  do {                                                                     \
    int Spin_ = 0;                                                         \
    while (!(Pred) && Spin_++ != 5000)                                     \
      std::this_thread::sleep_for(std::chrono::milliseconds(2));           \
    ASSERT_TRUE(Pred) << "timed out waiting for: " #Pred;                  \
  } while (0)

int64_t retOne(int64_t) { return 1; }
int64_t retTwo(int64_t) { return 2; }

/// Builds the code-only patch "pair-vN": both pipeline halves return N.
Expected<Patch> makePairPatch(Runtime &RT, int64_t N) {
  struct Box {
    static int64_t three(int64_t) { return 3; }
    static int64_t four(int64_t) { return 4; }
    static int64_t five(int64_t) { return 5; }
    static int64_t six(int64_t) { return 6; }
  };
  int64_t (*Fn)(int64_t) = nullptr;
  switch (N) {
  case 2:
    Fn = &retTwo;
    break;
  case 3:
    Fn = &Box::three;
    break;
  case 4:
    Fn = &Box::four;
    break;
  case 5:
    Fn = &Box::five;
    break;
  default:
    Fn = &Box::six;
    break;
  }
  return PatchBuilder(RT.types(), "pair-v" + std::to_string(N))
      .describe("code-only: both bindings move together")
      .provide("pair.first", Fn)
      .provide("pair.second", Fn)
      .build();
}

/// A state-migrating patch over an int cell (identity transformer).
Expected<Patch> makeMigratingPatch(Runtime &RT, const std::string &TyName,
                                   uint32_t FromV) {
  return makeIdentityBumpPatch(RT.types(), VersionedName{TyName, FromV},
                               RT.types().intType());
}

/// A bare two-updateable pool: the handler body is "<first>,<second>".
class RollingPoolTest : public ::testing::Test {
protected:
  void SetUp() override {
    auto F = RT.defineUpdateable("pair.first", &retOne);
    auto S = RT.defineUpdateable("pair.second", &retOne);
    ASSERT_TRUE(F);
    ASSERT_TRUE(S);
    First = *F;
    Second = *S;

    net::PoolOptions O;
    O.Workers = kWorkers;
    O.PollTimeoutMs = 2;
    Pool = std::make_unique<net::ReactorPool>(
        [this](const RequestHead &Head, std::string_view, std::string &Out,
               SharedBody &) {
          std::string Body = std::to_string(First(0)) + "," +
                             std::to_string(Second(0));
          appendHttpResponse(Out, 200, "text/plain", Body, Head.KeepAlive);
        },
        O);
    Pool->setUpdateRuntime(RT);
    ASSERT_FALSE(Pool->start());
  }

  void TearDown() override { Pool->stop(); }

  uint64_t totalParks() const {
    uint64_t N = 0;
    for (unsigned I = 0; I != Pool->workers(); ++I)
      N += Pool->workerStats(I).Pauses.load();
    return N;
  }

  Runtime RT;
  Updateable<int64_t(int64_t)> First, Second;
  std::unique_ptr<net::ReactorPool> Pool;
};

/// The acceptance bar: a whole series of code-only patches committed
/// under live multi-worker keep-alive load swings all workers with zero
/// barrier parks and zero torn (half-committed) responses.
TEST_F(RollingPoolTest, CodeOnlySeriesCommitsRollingWithZeroParks) {
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Consistent{0}, Torn{0};
  std::vector<std::thread> Loaders;
  for (unsigned T = 0; T != kWorkers; ++T)
    Loaders.emplace_back([&] {
      KeepAliveClient C;
      ASSERT_FALSE(C.connectTo(Pool->port()));
      while (!Stop.load()) {
        Expected<FetchResult> R = C.get("/pair");
        if (!R)
          break;
        size_t Comma = R->Body.find(',');
        if (Comma != std::string::npos &&
            R->Body.substr(0, Comma) == R->Body.substr(Comma + 1))
          Consistent.fetch_add(1);
        else
          Torn.fetch_add(1);
      }
    });

  WAIT_FOR(Consistent.load() >= 50);
  constexpr unsigned kPatches = 5; // v2..v6
  for (unsigned V = 2; V != 2 + kPatches; ++V) {
    Expected<Patch> P = makePairPatch(RT, V);
    ASSERT_TRUE(P) << P.takeError().str();
    RT.requestUpdate(std::move(*P));
    Pool->wake();
    WAIT_FOR(RT.updatesApplied() >= V - 1);
    // Keep load flowing across each swing.
    uint64_t Now = Consistent.load();
    WAIT_FOR(Consistent.load() >= Now + 20);
  }
  Stop.store(true);
  for (std::thread &T : Loaders)
    T.join();

  EXPECT_EQ(Torn.load(), 0u) << "a request saw a half-committed patch";
  EXPECT_EQ(RT.rollingCommits(), kPatches);
  EXPECT_EQ(RT.updatesApplied(), kPatches);
  EXPECT_EQ(Pool->barrierRounds(), 0u) << "a code-only patch armed the barrier";
  EXPECT_EQ(totalParks(), 0u) << "a worker parked for a rolling commit";

  // Every worker converges on the final generation.
  for (unsigned I = 0; I != 2 * kWorkers; ++I) {
    Expected<FetchResult> R = httpGet(Pool->port(), "/pair");
    ASSERT_TRUE(R);
    EXPECT_EQ(R->Body, "6,6");
  }

  // After the pool stops (workers deregistered), the redirection chains
  // are fully graced: one flush detaches them all.
  Pool->stop();
  RT.flushRetiredBindings();
  EXPECT_EQ(First.slot()->rollDepth(), 0u);
  EXPECT_EQ(Second.slot()->rollDepth(), 0u);
}

TEST_F(RollingPoolTest, StateMigratingPatchStillTakesTheBarrier) {
  ASSERT_FALSE(RT.defineNamedType(VersionedName{"rcell", 1},
                                  RT.types().intType()));
  Expected<StateCell *> Cell =
      RT.defineState("r.cell", RT.types().namedType("rcell", 1),
                     std::make_shared<int64_t>(7));
  ASSERT_TRUE(Cell) << Cell.takeError().str();

  Expected<Patch> P = makeMigratingPatch(RT, "rcell", 1);
  ASSERT_TRUE(P) << P.takeError().str();
  RT.requestUpdate(std::move(*P));
  Pool->wake();
  WAIT_FOR(RT.updatesApplied() >= 1);

  EXPECT_EQ(RT.rollingCommits(), 0u);
  EXPECT_GE(Pool->barrierRounds(), 1u);
  // Workers record their park *after* release; give them their wakeup.
  WAIT_FOR(totalParks() >= kWorkers);
  EXPECT_EQ((*Cell)->type()->str(), "%rcell@2");
}

/// FIFO across classes: a code-only patch ahead of a migrating patch
/// rolls first; the migrating one then barriers.  Order is preserved.
TEST_F(RollingPoolTest, MixedQueueRollsThenBarriers) {
  ASSERT_FALSE(RT.defineNamedType(VersionedName{"qcell", 1},
                                  RT.types().intType()));
  Expected<StateCell *> Cell =
      RT.defineState("q.cell", RT.types().namedType("qcell", 1),
                     std::make_shared<int64_t>(1));
  ASSERT_TRUE(Cell);

  Expected<Patch> Code = makePairPatch(RT, 2);
  Expected<Patch> Mig = makeMigratingPatch(RT, "qcell", 1);
  ASSERT_TRUE(Code);
  ASSERT_TRUE(Mig);
  RT.requestUpdate(std::move(*Code));
  RT.requestUpdate(std::move(*Mig));
  Pool->wake();
  WAIT_FOR(RT.updatesApplied() >= 2);

  EXPECT_EQ(RT.rollingCommits(), 1u);
  EXPECT_GE(Pool->barrierRounds(), 1u);
  std::vector<UpdateRecord> Log = RT.updateLog();
  ASSERT_GE(Log.size(), 2u);
  EXPECT_EQ(Log[Log.size() - 2].CommitMode, "rolling");
  EXPECT_EQ(Log[Log.size() - 1].CommitMode, "barrier");
}

/// The update point a lone pool worker calls, driven by hand: the
/// code-only front rolls, and the migrating transaction behind it stays
/// queued and is reported as needing the barrier — in the same call —
/// until an update point with global quiescence commits it.
TEST(WorkerUpdatePointTest, RollsCodeOnlyThenReportsTheBarrier) {
  Runtime RT;
  Expected<Updateable<int64_t(int64_t)>> First =
      RT.defineUpdateable("pair.first", &retOne);
  ASSERT_TRUE(First);
  ASSERT_TRUE(RT.defineUpdateable("pair.second", &retOne));
  ASSERT_FALSE(RT.defineNamedType(VersionedName{"wcell", 1},
                                  RT.types().intType()));
  Expected<StateCell *> Cell =
      RT.defineState("w.cell", RT.types().namedType("wcell", 1),
                     std::make_shared<int64_t>(1));
  ASSERT_TRUE(Cell);

  Expected<Patch> Code = makePairPatch(RT, 2);
  Expected<Patch> Mig = makeMigratingPatch(RT, "wcell", 1);
  ASSERT_TRUE(Code);
  ASSERT_TRUE(Mig);
  RT.requestUpdate(std::move(*Code));
  RT.requestUpdate(std::move(*Mig));
  EXPECT_STREQ(RT.pendingCommitName(), "rolling");

  bool NeedsBarrier = false;
  EXPECT_EQ(RT.updatePoint(Runtime::Quiescence::Worker, &NeedsBarrier), 1u);
  EXPECT_TRUE(NeedsBarrier);
  EXPECT_EQ(RT.rollingCommits(), 1u);
  EXPECT_EQ((*First)(0), 2);
  EXPECT_STREQ(RT.pendingCommitName(), "barrier");

  // Asked again, a worker commits nothing and only reports.
  NeedsBarrier = false;
  EXPECT_EQ(RT.updatePoint(Runtime::Quiescence::Worker, &NeedsBarrier), 0u);
  EXPECT_TRUE(NeedsBarrier);
  EXPECT_EQ(RT.queueDepth(), 1u);

  EXPECT_EQ(RT.updatePoint(), 1u);
  EXPECT_STREQ(RT.pendingCommitName(), "none");
  std::vector<UpdateRecord> Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 2u);
  EXPECT_EQ(Log[0].CommitMode, "rolling");
  EXPECT_EQ(Log[1].CommitMode, "barrier");
  EXPECT_EQ((*Cell)->type()->str(), "%wcell@2");
}

/// A code-only VTAL patch whose functions the native tier compiles at
/// link time must behave exactly like any other code-only patch: it
/// commits rolling with zero barrier rounds and zero parks under live
/// load.  Superseded machine-code pages stay resident while the slot
/// lives (an in-flight worker may still be executing them — the PLDI
/// 2001 old-code-stays rule), and when the bindings finally release
/// they leave through the epoch domain, never a straight munmap.
/// (This is the TSan acceptance case: the `ctest -L epoch` binary runs
/// under the TSan CI lane.)
TEST(RollingNativeTest, NativeCodePatchRollsAndRetiresSupersededPages) {
#ifdef DSU_VTAL_NO_NATIVE
  GTEST_SKIP() << "native tier compiled out (DSU_VTAL_NATIVE=OFF)";
#else
  using vtal::native::NativeStats;
  NativeStats &S = NativeStats::instance();
  uint64_t RetiredBefore = S.ArenasRetired.load(std::memory_order_relaxed);
  uint64_t EntriesBefore = S.NativeEntries.load(std::memory_order_relaxed);

  {
    Runtime RT;
    auto F = RT.defineUpdateable("pair.first", &retOne);
    auto S2 = RT.defineUpdateable("pair.second", &retOne);
    ASSERT_TRUE(F);
    ASSERT_TRUE(S2);
    Updateable<int64_t(int64_t)> First = *F, Second = *S2;

    net::PoolOptions O;
    O.Workers = kWorkers;
    O.PollTimeoutMs = 2;
    net::ReactorPool Pool(
        [&](const RequestHead &Head, std::string_view, std::string &Out,
            SharedBody &) {
          std::string Body =
              std::to_string(First(0)) + "," + std::to_string(Second(0));
          appendHttpResponse(Out, 200, "text/plain", Body, Head.KeepAlive);
        },
        O);
    Pool.setUpdateRuntime(RT);
    ASSERT_FALSE(Pool.start());

    auto MakeVtalPair = [&](int64_t N) {
      std::string Id = "vtal-pair-v" + std::to_string(N);
      std::string Text = R"dsu(
(patch
  (id ")dsu" + Id + R"dsu(")
  (description "code-only VTAL pair, native-compiled at link")
  (provides
    (fn (name "pair.first")
        (type "fn(int) -> int")
        (vtal-fn "both"))
    (fn (name "pair.second")
        (type "fn(int) -> int")
        (vtal-fn "both")))
  (vtal-module
"module vtal_pair
func both (x: int) -> int {
  push.i )dsu" + std::to_string(N) + R"dsu(
  ret
}"))
)dsu";
      return loadVtalPatch(RT.types(), RT.exports(), Text);
    };

    std::atomic<bool> Stop{false};
    std::atomic<uint64_t> Served{0};
    std::vector<std::thread> Loaders;
    for (unsigned T = 0; T != kWorkers; ++T)
      Loaders.emplace_back([&] {
        KeepAliveClient C;
        ASSERT_FALSE(C.connectTo(Pool.port()));
        while (!Stop.load())
          if (C.get("/pair"))
            Served.fetch_add(1);
          else
            break;
      });
    WAIT_FOR(Served.load() >= 50);

    // Two generations: v7 supersedes the seed, v8 supersedes v7's
    // machine code while workers are still hitting the slot.
    for (int64_t V = 7; V != 9; ++V) {
      Expected<Patch> P = MakeVtalPair(V);
      ASSERT_TRUE(P) << P.takeError().str();
      // Both provides were baseline-compiled at link time.
      for (const ProvideRequest &Prov : P->Unit.Provides)
        EXPECT_NE(Prov.Code.NativeEntry, nullptr)
            << Prov.Name << " was not native-compiled";
      RT.requestUpdate(std::move(*P));
      Pool.wake();
      WAIT_FOR(RT.updatesApplied() >= static_cast<uint64_t>(V - 6));
      uint64_t Now = Served.load();
      WAIT_FOR(Served.load() >= Now + 20);
    }
    Stop.store(true);
    for (std::thread &T : Loaders)
      T.join();

    // Native-backed code-only patches take the rolling path, not the
    // barrier, and worker requests actually ran the machine code.
    EXPECT_EQ(RT.rollingCommits(), 2u);
    EXPECT_EQ(Pool.barrierRounds(), 0u)
        << "a native code-only patch armed the barrier";
    EXPECT_GT(S.NativeEntries.load(std::memory_order_relaxed),
              EntriesBefore);
    for (unsigned I = 0; I != kWorkers; ++I) {
      Expected<FetchResult> R = httpGet(Pool.port(), "/pair");
      ASSERT_TRUE(R);
      EXPECT_EQ(R->Body, "8,8");
    }

    // While the slots live, v7's superseded pages must still be
    // resident (a parked worker could hold a frame in them).
    EXPECT_EQ(S.ArenasRetired.load(std::memory_order_relaxed),
              RetiredBefore)
        << "superseded pages were reclaimed while the slot was live";
    Pool.stop();
    // Runtime teardown releases the binding history and with it both
    // VTAL instances' images.
  }
  EXPECT_GE(S.ArenasRetired.load(std::memory_order_relaxed),
            RetiredBefore + 2)
      << "superseded native pages were never epoch-retired";
  epoch::domain().reclaim();
#endif // DSU_VTAL_NO_NATIVE
}

/// A worker stuck mid-request must not delay a rolling commit (that is
/// the whole point) — and must not observe it mid-request either.
TEST(RollingStuckWorkerTest, RollingCommitLandsWhileAWorkerIsStuck) {
  Runtime RT;
  auto F = RT.defineUpdateable("pair.first", &retOne);
  auto S = RT.defineUpdateable("pair.second", &retOne);
  ASSERT_TRUE(F);
  ASSERT_TRUE(S);

  std::mutex GateMu;
  std::condition_variable GateCV;
  bool GateOpen = false;
  std::atomic<bool> HandlerEntered{false};

  net::PoolOptions O;
  O.Workers = 2;
  O.PollTimeoutMs = 2;
  net::ReactorPool Pool(
      [&](const RequestHead &Head, std::string_view, std::string &Out,
          SharedBody &) {
        int64_t A = (*F)(0);
        if (Head.Target == "/block" && !HandlerEntered.exchange(true)) {
          std::unique_lock<std::mutex> L(GateMu);
          GateCV.wait(L, [&] { return GateOpen; });
        }
        int64_t B = (*S)(0);
        appendHttpResponse(Out, 200, "text/plain",
                           std::to_string(A) + "," + std::to_string(B),
                           Head.KeepAlive);
      },
      O);
  Pool.setUpdateRuntime(RT);
  ASSERT_FALSE(Pool.start());

  std::string BlockedBody;
  std::thread Blocked([&] {
    Expected<FetchResult> R = httpGet(Pool.port(), "/block");
    ASSERT_TRUE(R);
    BlockedBody = R->Body;
  });
  WAIT_FOR(HandlerEntered.load());

  // The rolling commit lands while the worker is stuck mid-request.
  Expected<Patch> P = makePairPatch(RT, 2);
  ASSERT_TRUE(P);
  RT.requestUpdate(std::move(*P));
  Pool.wake();
  WAIT_FOR(RT.updatesApplied() >= 1);
  EXPECT_EQ(RT.rollingCommits(), 1u);
  EXPECT_EQ(Pool.barrierRounds(), 0u);

  // Release the stuck worker: its in-flight request completes on ONE
  // generation — 1,1 (it read `first` before the swing while pinned at
  // its pre-swing epoch, so `second` must agree) — never 1,2.
  {
    std::lock_guard<std::mutex> L(GateMu);
    GateOpen = true;
  }
  GateCV.notify_all();
  Blocked.join();
  EXPECT_EQ(BlockedBody, "1,1");

  // And its *next* request runs the new generation.
  Expected<FetchResult> R = httpGet(Pool.port(), "/pair");
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Body, "2,2");
  Pool.stop();
}

/// The update-latency SLO: under an idle pool, a staged patch commits
/// within one poll timeout of staging completing (the controller's
/// onStaged wake makes it usually far faster).
TEST(RollingLatencyTest, CommitLandsWithinOnePollTimeoutOfStaging) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/doc.html", "<html>doc</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));
  App.enableAdmin(RT.controller());

  net::PoolOptions O;
  O.Workers = 2;
  O.PollTimeoutMs = 200; // a bound the wake path must beat
  net::ReactorPool Pool(
      [&App](const RequestHead &Head, std::string_view Raw,
             std::string &Out, SharedBody &Body) {
        App.handleInto(Head, Raw, Out, Body);
      },
      O);
  Pool.setUpdateRuntime(RT);
  App.attachPool(Pool);
  ASSERT_FALSE(Pool.start());

  Expected<Patch> P = makePatchP1(App);
  ASSERT_TRUE(P) << P.takeError().str();
  RT.controller().stagePatch(std::move(*P));
  WAIT_FOR(RT.updatesApplied() >= 1);

  UpdateRecord Rec = RT.updateLog().back();
  EXPECT_EQ(Rec.CommitMode, "rolling");
  EXPECT_LE(Rec.StageToCommitUs,
            static_cast<uint64_t>(O.PollTimeoutMs) * 1000)
      << "commit missed the one-poll-timeout SLO on an idle pool";
  EXPECT_GE(trace::phaseHistogram(trace::Phase::QueueWait).Count.load(), 1u);
  Pool.stop();
}

/// PoolOptions::PinWorkers: affinity is applied on multi-core hosts and
/// skipped gracefully (cpu -1) on single-core ones — and serving works
/// either way.
TEST(PinWorkersTest, AffinityAppliedOrGracefullySkipped) {
  net::PoolOptions O;
  O.Workers = 2;
  O.PollTimeoutMs = 2;
  O.PinWorkers = true;
  net::ReactorPool Pool(
      [](const RequestHead &Head, std::string_view, std::string &Out,
         SharedBody &) {
        appendHttpResponse(Out, 200, "text/plain", "ok", Head.KeepAlive);
      },
      O);
  ASSERT_FALSE(Pool.start());
  Expected<FetchResult> R = httpGet(Pool.port(), "/x");
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Status, 200);
  unsigned Cores = std::thread::hardware_concurrency();
  for (unsigned I = 0; I != Pool.workers(); ++I) {
    if (Cores > 1)
      EXPECT_GE(Pool.workerCpu(I), 0) << "worker " << I << " unpinned";
    else
      EXPECT_EQ(Pool.workerCpu(I), -1) << "1-core host must skip pinning";
  }
  Pool.stop();
}

/// DocStore hot replacement with mutex-free readers: worker threads
/// read a path continuously while the admin path replaces it.  The
/// TSan lane proves the absence of data races; here we assert every
/// observed body is a fully published value.
TEST(EpochDocStoreTest, LockFreeReadsUnderHotReplacement) {
  DocStore Docs;
  Docs.put("/x", "gen-0");
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Bad{0};
  std::vector<std::thread> Readers;
  for (unsigned T = 0; T != 3; ++T)
    Readers.emplace_back([&] {
      epoch::WorkerReg W;
      while (!Stop.load()) {
        W.quiesce();
        SharedBody B = Docs.getShared("/x");
        if (!B || B->compare(0, 4, "gen-") != 0)
          Bad.fetch_add(1);
      }
    });
  for (int I = 1; I != 500; ++I)
    Docs.put("/x", "gen-" + std::to_string(I));
  Stop.store(true);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_EQ(Bad.load(), 0u);
  EXPECT_EQ(*Docs.getShared("/x"), "gen-499");
}

} // namespace
