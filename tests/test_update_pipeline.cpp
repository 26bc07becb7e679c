//===- tests/test_update_pipeline.cpp - End-to-end update tests -*- C++ -*-//
///
/// Drives dsu::Runtime through complete update cycles with in-process
/// patches: the verify -> link -> transform -> commit pipeline, update
/// points, rejection atomicity, and the update log.

#include "core/Runtime.h"
#include "patch/PatchBuilder.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

using namespace dsu;

namespace {

int64_t factV1(int64_t N) { return N <= 1 ? 1 : N * factV1(N - 1); }

int64_t factV2(int64_t N) {
  int64_t Acc = 1;
  for (int64_t I = 2; I <= N; ++I)
    Acc *= I;
  return Acc;
}

int64_t brokenFact(int64_t) { return -1; }

struct CounterV1 {
  int64_t Count;
};
struct CounterV2 {
  int64_t Count;
  int64_t Resets;
};

class PipelineTest : public ::testing::Test {
protected:
  Runtime RT;
};

TEST_F(PipelineTest, CodeOnlyUpdateViaUpdatePoint) {
  auto Fact = cantFail(RT.defineUpdateable("app.fact", &factV1));
  EXPECT_EQ(Fact(5), 120);
  EXPECT_EQ(RT.updatePoint(), 0u); // nothing pending

  Patch P = cantFail(PatchBuilder(RT.types(), "fact-v2")
                         .describe("iterative factorial")
                         .provide("app.fact", &factV2)
                         .build());
  RT.requestUpdate(std::move(P));
  EXPECT_TRUE(RT.updatePending());
  // Not applied until the update point.
  EXPECT_EQ(Fact.version(), 1u);

  EXPECT_EQ(RT.updatePoint(), 1u);
  EXPECT_FALSE(RT.updatePending());
  EXPECT_EQ(Fact(5), 120);
  EXPECT_EQ(Fact.version(), 2u);
  EXPECT_EQ(RT.updatesApplied(), 1u);

  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_TRUE(Log[0].Succeeded);
  EXPECT_EQ(Log[0].PatchId, "fact-v2");
  EXPECT_EQ(Log[0].ProvidesLinked, 1u);
  EXPECT_GE(Log[0].TotalMs, Log[0].LinkMs);
}

TEST_F(PipelineTest, ApplyNowBypassesQueue) {
  auto Fact = cantFail(RT.defineUpdateable("app.fact", &factV1));
  Patch P = cantFail(PatchBuilder(RT.types(), "fact-v2")
                         .provide("app.fact", &factV2)
                         .build());
  ASSERT_FALSE(RT.applyNow(std::move(P)));
  EXPECT_EQ(Fact.version(), 2u);
}

TEST_F(PipelineTest, UpdatePointRefusedInsideUpdateableCode) {
  // An updateable whose body calls back into the runtime's update point:
  // the update must be deferred, not applied re-entrantly.
  Runtime *RTP = &RT;
  unsigned AppliedInside = 0;
  auto Handle = cantFail(RT.defineUpdateableFn<int64_t>(
      "app.reentrant", [RTP, &AppliedInside]() -> int64_t {
        AppliedInside += RTP->updatePoint();
        return 1;
      }));

  Patch P = cantFail(PatchBuilder(RT.types(), "noop")
                         .provide("app.fact2", &factV2)
                         .build());
  RT.requestUpdate(std::move(P));
  EXPECT_EQ(Handle(), 1);
  EXPECT_EQ(AppliedInside, 0u);
  EXPECT_TRUE(RT.updatePending()); // still queued
  EXPECT_EQ(RT.updatePoint(), 1u); // applies at the outer safe point
}

TEST_F(PipelineTest, TypeChangeWithTransformer) {
  TypeContext &Ctx = RT.types();
  cantFail(RT.defineNamedType({"counter", 1},
                              *parseType(Ctx, "{count: int}")));
  StateCell *Cell = cantFail(RT.defineState(
      "app.counter", Ctx.namedType("counter", 1),
      std::make_shared<CounterV1>(CounterV1{41})));

  Patch P =
      cantFail(PatchBuilder(Ctx, "counter-v2")
                   .defineType({"counter", 2},
                               *parseType(Ctx, "{count: int, resets: int}"))
                   .transformer(
                       VersionBump{{"counter", 1}, {"counter", 2}},
                       [](const std::shared_ptr<void> &Old, const StateCell &)
                           -> Expected<std::shared_ptr<void>> {
                         auto *V1 = static_cast<CounterV1 *>(Old.get());
                         return std::shared_ptr<void>(
                             std::make_shared<CounterV2>(
                                 CounterV2{V1->Count, 0}));
                       })
                   .build());
  ASSERT_FALSE(RT.applyNow(std::move(P)));

  EXPECT_EQ(Cell->type()->str(), "%counter@2");
  EXPECT_EQ(Cell->get<CounterV2>()->Count, 41);
  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_EQ(Log[0].CellsMigrated, 1u);
}

TEST_F(PipelineTest, BumpWithoutTransformerRejectedAtomically) {
  TypeContext &Ctx = RT.types();
  cantFail(RT.defineNamedType({"counter", 1},
                              *parseType(Ctx, "{count: int}")));
  StateCell *Cell = cantFail(RT.defineState(
      "app.counter", Ctx.namedType("counter", 1),
      std::make_shared<CounterV1>(CounterV1{41})));
  auto Fact = cantFail(RT.defineUpdateable("app.fact", &factV1));

  // Declares %counter@2 and replaces fact, but ships no transformer.
  Patch P = cantFail(
      PatchBuilder(Ctx, "bad-counter-v2")
          .defineType({"counter", 2},
                      *parseType(Ctx, "{count: int, resets: int}"))
          .provide("app.fact", &factV2)
          .build());
  Error E = RT.applyNow(std::move(P));
  ASSERT_TRUE(E);
  EXPECT_EQ(E.code(), ErrorCode::EC_Transform);

  // Nothing moved: state untouched AND code not rebound.
  EXPECT_EQ(Cell->type()->str(), "%counter@1");
  EXPECT_EQ(Fact.version(), 1u);
  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_FALSE(Log[0].Succeeded);
  EXPECT_EQ(RT.updatesApplied(), 0u);
}

std::string wrongSigImpl(std::string S) { return S; }

TEST_F(PipelineTest, IncompatibleProvideRejected) {
  auto Fact = cantFail(RT.defineUpdateable("app.fact", &factV1));
  Patch P = cantFail(PatchBuilder(RT.types(), "bad-type")
                         .provide("app.fact", &wrongSigImpl)
                         .build());
  Error E = RT.applyNow(std::move(P));
  ASSERT_TRUE(E);
  EXPECT_EQ(E.code(), ErrorCode::EC_TypeMismatch);
  EXPECT_EQ(Fact(5), 120);
}

TEST_F(PipelineTest, FailedUpdateInQueueReportsDiagnostics) {
  cantFail(RT.defineUpdateable("app.fact", &factV1));
  Patch Bad = cantFail(PatchBuilder(RT.types(), "bad")
                           .provide("app.fact", &wrongSigImpl)
                           .build());
  Patch Good = cantFail(PatchBuilder(RT.types(), "good")
                            .provide("app.fact", &factV2)
                            .build());
  RT.requestUpdate(std::move(Bad));
  RT.requestUpdate(std::move(Good));
  EXPECT_EQ(RT.updatePoint(), 1u); // good applies, bad rejected
  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 2u);
  EXPECT_FALSE(Log[0].Succeeded);
  EXPECT_TRUE(Log[1].Succeeded);
}

TEST_F(PipelineTest, SuccessiveUpdatesAdvanceVersions) {
  auto Fact = cantFail(RT.defineUpdateable("app.fact", &factV1));
  for (unsigned I = 0; I != 5; ++I) {
    Patch P = cantFail(
        PatchBuilder(RT.types(), "fact-v" + std::to_string(I + 2))
            .provide("app.fact", I % 2 ? &factV2 : &brokenFact)
            .build());
    ASSERT_FALSE(RT.applyNow(std::move(P)));
  }
  EXPECT_EQ(Fact.version(), 6u);
  EXPECT_EQ(Fact.slot()->historySize(), 6u);
  EXPECT_EQ(RT.updatesApplied(), 5u);
  // Last applied was factV2 (I=4? no: I=4 -> brokenFact).
  EXPECT_EQ(Fact(5), -1);
}

TEST_F(PipelineTest, NewFunctionsBecomeBindable) {
  Patch P = cantFail(PatchBuilder(RT.types(), "adds-fn")
                         .provide("app.fact", &factV2)
                         .build());
  ASSERT_FALSE(RT.applyNow(std::move(P)));
  Expected<Updateable<int64_t(int64_t)>> H =
      bindUpdateable<int64_t(int64_t)>(RT.updateables(), RT.types(),
                                       "app.fact");
  ASSERT_TRUE(H);
  EXPECT_EQ((*H)(6), 720);
}

TEST_F(PipelineTest, EmptyPatchRejectedByBuilder) {
  EXPECT_FALSE(PatchBuilder(RT.types(), "empty").build());
}

TEST_F(PipelineTest, TransformerValidationInBuilder) {
  TypeContext &Ctx = RT.types();
  TransformFn Noop = [](const std::shared_ptr<void> &Old,
                        const StateCell &) -> Expected<std::shared_ptr<void>> {
    return Old;
  };
  // Crossing type names.
  EXPECT_FALSE(PatchBuilder(Ctx, "x")
                   .transformer({{"a", 1}, {"b", 2}}, Noop)
                   .build());
  // Non-increasing version.
  EXPECT_FALSE(PatchBuilder(Ctx, "x")
                   .transformer({{"a", 2}, {"a", 2}}, Noop)
                   .build());
  // Target type undefined anywhere.
  EXPECT_FALSE(PatchBuilder(Ctx, "x")
                   .transformer({{"a", 1}, {"a", 2}}, Noop)
                   .build());
  // OK when the patch itself defines the target.
  EXPECT_TRUE(PatchBuilder(Ctx, "x")
                  .defineType({"a", 2}, Ctx.intType())
                  .transformer({{"a", 1}, {"a", 2}}, Noop)
                  .build());
}

TEST_F(PipelineTest, RequestUpdateFromMissingFileFails) {
  EXPECT_FALSE(
      loadPatchFile(RT.types(), RT.exports(), "/nonexistent/patch.so"));
  EXPECT_FALSE(
      loadPatchFile(RT.types(), RT.exports(), "/nonexistent/patch.dsup"));
}

// --- The transactional surface -------------------------------------------

TEST_F(PipelineTest, StageThenCommitSplitsThePipeline) {
  auto Fact = cantFail(RT.defineUpdateable("app.fact", &factV1));
  Patch P = cantFail(PatchBuilder(RT.types(), "fact-v2")
                         .provide("app.fact", &factV2)
                         .build());

  Expected<StagedUpdate> U = RT.stage(std::move(P));
  ASSERT_TRUE(U) << U.takeError().str();
  // Staged but not committed: the program still runs v1, and nothing is
  // in the update log yet.
  EXPECT_EQ(U->phase(), UpdatePhase::Ready);
  EXPECT_EQ(Fact.version(), 1u);
  EXPECT_EQ(RT.updateLog().size(), 0u);
  UpdateRecord Staged = U->record();
  EXPECT_GT(Staged.StageMs, 0.0);
  EXPECT_EQ(Staged.CommitMs, 0.0);
  EXPECT_EQ(Staged.Phase, "ready");

  ASSERT_FALSE(U->commit());
  EXPECT_EQ(U->phase(), UpdatePhase::Committed);
  EXPECT_EQ(Fact.version(), 2u);
  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_TRUE(Log[0].Succeeded);
  EXPECT_EQ(Log[0].Phase, "committed");
  EXPECT_GT(Log[0].StageMs, 0.0);
  EXPECT_GE(Log[0].TotalMs, Log[0].CommitMs);

  // A second commit of the same transaction is refused.
  Error E = U->commit();
  ASSERT_TRUE(E);
  EXPECT_EQ(E.code(), ErrorCode::EC_Invalid);
}

TEST_F(PipelineTest, AbortedTransactionNeverApplies) {
  auto Fact = cantFail(RT.defineUpdateable("app.fact", &factV1));
  Patch P = cantFail(PatchBuilder(RT.types(), "fact-v2")
                         .provide("app.fact", &factV2)
                         .build());
  StagedUpdate U = cantFail(RT.stage(std::move(P)));
  ASSERT_FALSE(RT.enqueue(U));
  EXPECT_TRUE(RT.updatePending());

  ASSERT_FALSE(U.abort());
  EXPECT_EQ(U.phase(), UpdatePhase::Aborted);
  // The aborted transaction is collected, not committed.
  EXPECT_EQ(RT.updatePoint(), 0u);
  EXPECT_EQ(Fact.version(), 1u);
  EXPECT_FALSE(RT.updatePending());
  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_EQ(Log[0].Phase, "aborted");
  EXPECT_FALSE(Log[0].Succeeded);

  // Aborting again is idempotent; committing an aborted tx is refused.
  EXPECT_FALSE(U.abort());
  EXPECT_TRUE(U.commit());
}

TEST_F(PipelineTest, CommitRefusedInsideUpdateableCodeIsBusy) {
  auto Fact = cantFail(RT.defineUpdateable("app.fact", &factV1));
  (void)Fact;
  Patch P = cantFail(PatchBuilder(RT.types(), "fact-v2")
                         .provide("app.fact", &factV2)
                         .build());
  StagedUpdate U = cantFail(RT.stage(std::move(P)));

  Runtime *RTP = &RT;
  ErrorCode Seen = ErrorCode::EC_None;
  auto Handle = cantFail(RT.defineUpdateableFn<int64_t>(
      "app.reentrant", [&U, &Seen, RTP]() -> int64_t {
        // Inside an updateable frame the commit must be refused as
        // *busy* (retryable), naming the violated discipline — and so
        // must applyNow and rollback.
        Error E = U.commit();
        Seen = E.code();
        Error E2 = RTP->rollbackUpdateable("app.fact");
        return E2.code() == ErrorCode::EC_Busy ? 1 : 0;
      }));
  EXPECT_EQ(Handle(), 1);
  EXPECT_EQ(Seen, ErrorCode::EC_Busy);
  // Back at a quiescent point the same handle commits fine.
  ASSERT_FALSE(U.commit());
}

TEST_F(PipelineTest, DirectlyCommittedHandleDoesNotWedgeTheQueue) {
  // A transaction can be enqueued *and* committed directly through its
  // handle; the queue must collect the terminal entry instead of
  // blocking FIFO behind it forever.
  auto Fact = cantFail(RT.defineUpdateable("app.fact", &factV1));
  StagedUpdate A = cantFail(
      RT.stage(cantFail(PatchBuilder(RT.types(), "A")
                            .provide("app.fact", &factV2)
                            .build())));
  ASSERT_FALSE(RT.enqueue(A));
  ASSERT_FALSE(A.commit()); // jumped the queue via the handle
  RT.requestUpdate(cantFail(PatchBuilder(RT.types(), "B")
                                .provide("app.fact", &factV1)
                                .build()));
  EXPECT_EQ(RT.updatePoint(), 1u); // A collected, B committed
  EXPECT_EQ(RT.queueDepth(), 0u);
  EXPECT_EQ(Fact.version(), 3u);
  EXPECT_EQ(RT.updatesApplied(), 2u);
}

TEST_F(PipelineTest, StaleStagedPlanRevalidatesAtCommit) {
  auto Fact = cantFail(RT.defineUpdateable("app.fact", &factV1));
  // Stage A, then stage-and-commit B (same slot), then commit A: A's
  // plan was prepared against the pre-B registry, so the commit must
  // revalidate rather than commit a stale plan.
  StagedUpdate A = cantFail(
      RT.stage(cantFail(PatchBuilder(RT.types(), "A")
                            .provide("app.fact", &factV2)
                            .build())));
  StagedUpdate B = cantFail(
      RT.stage(cantFail(PatchBuilder(RT.types(), "B")
                            .provide("app.fact", &brokenFact)
                            .build())));
  ASSERT_FALSE(B.commit());
  EXPECT_EQ(Fact.version(), 2u);
  ASSERT_FALSE(A.commit());
  EXPECT_EQ(Fact.version(), 3u);
  EXPECT_EQ(Fact(5), 120); // A's factV2 behaviour won (committed last)
  EXPECT_EQ(RT.updatesApplied(), 2u);
}

TEST_F(PipelineTest, RollbackForcesStagedPlanRevalidation) {
  // A rollback is itself an update: a plan staged before it must not
  // commit unchecked.  Here the rollback reverts the slot's recorded
  // type, turning the staged (bump-free) plan into one that demands a
  // %rec@1 -> %rec@2 transformer nobody shipped.
  TypeContext &Ctx = RT.types();
  const Type *T1 = Ctx.fnType({Ctx.namedType("rec", 1)}, Ctx.unitType());
  const Type *T2 = Ctx.fnType({Ctx.namedType("rec", 2)}, Ctx.unitType());
  cantFail(RT.updateables().define(
      "app.g", T1, makeClosureBinding<void, int64_t>([](int64_t) {})));
  cantFail(RT.updateables().rebind(
      "app.g", T2, makeClosureBinding<void, int64_t>([](int64_t) {}),
      nullptr));

  StagedUpdate U = cantFail(RT.stage(cantFail(
      PatchBuilder(Ctx, "g-next")
          .provideBinding("app.g", T2,
                          makeClosureBinding<void, int64_t>([](int64_t) {}))
          .build())));
  ASSERT_FALSE(RT.rollbackUpdateable("app.g")); // slot type back to @1

  Error E = U.commit();
  ASSERT_TRUE(E);
  EXPECT_EQ(E.code(), ErrorCode::EC_Transform);
  EXPECT_EQ(RT.updateables().lookup("app.g")->type(), T1); // untouched
  EXPECT_EQ(U.phase(), UpdatePhase::CommitFailed);
}

TEST_F(PipelineTest, StaleStateSwapRebuildsAtCommit) {
  TypeContext &Ctx = RT.types();
  cantFail(RT.defineNamedType({"counter", 1},
                              *parseType(Ctx, "{count: int}")));
  StateCell *Cell = cantFail(RT.defineState(
      "app.counter", Ctx.namedType("counter", 1),
      std::make_shared<CounterV1>(CounterV1{41})));

  auto MakeV2 = [&] {
    return cantFail(
        PatchBuilder(Ctx, "counter-v2")
            .defineType({"counter", 2},
                        *parseType(Ctx, "{count: int, resets: int}"))
            .transformer(
                VersionBump{{"counter", 1}, {"counter", 2}},
                [](const std::shared_ptr<void> &Old, const StateCell &)
                    -> Expected<std::shared_ptr<void>> {
                  auto *V1 = static_cast<CounterV1 *>(Old.get());
                  return std::shared_ptr<void>(std::make_shared<CounterV2>(
                      CounterV2{V1->Count, 0}));
                })
            .build());
  };

  StagedUpdate U = cantFail(RT.stage(MakeV2()));
  // The program writes the cell *after* staging: the optimistic prebuilt
  // payload is now stale, and committing it would lose this write.
  {
    std::lock_guard<std::mutex> G(Cell->payloadLock());
    Cell->get<CounterV1>()->Count = 100;
    Cell->noteMutation();
  }
  ASSERT_FALSE(U.commit());

  // The commit detected the stale swap and rebuilt from live state: the
  // post-staging write survives the migration.
  EXPECT_EQ(Cell->type()->str(), "%counter@2");
  EXPECT_EQ(Cell->get<CounterV2>()->Count, 100);
  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_TRUE(Log[0].StateRebuilt);
  EXPECT_EQ(Log[0].CellsMigrated, 1u);
}

TEST_F(PipelineTest, FreshStateSwapCommitsWithoutRebuild) {
  TypeContext &Ctx = RT.types();
  cantFail(RT.defineNamedType({"counter", 1},
                              *parseType(Ctx, "{count: int}")));
  StateCell *Cell = cantFail(RT.defineState(
      "app.counter", Ctx.namedType("counter", 1),
      std::make_shared<CounterV1>(CounterV1{41})));

  Patch P = cantFail(
      PatchBuilder(Ctx, "counter-v2")
          .defineType({"counter", 2},
                      *parseType(Ctx, "{count: int, resets: int}"))
          .transformer(
              VersionBump{{"counter", 1}, {"counter", 2}},
              [](const std::shared_ptr<void> &Old, const StateCell &)
                  -> Expected<std::shared_ptr<void>> {
                auto *V1 = static_cast<CounterV1 *>(Old.get());
                return std::shared_ptr<void>(std::make_shared<CounterV2>(
                    CounterV2{V1->Count, 0}));
              })
          .build());
  StagedUpdate U = cantFail(RT.stage(std::move(P)));
  ASSERT_FALSE(U.commit());
  EXPECT_EQ(Cell->get<CounterV2>()->Count, 41);
  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_FALSE(Log[0].StateRebuilt); // the fast path: swaps, no rebuild
  EXPECT_GT(Log[0].BuildMs, 0.0);    // the build happened at stage time
}

} // namespace
