//===- tests/test_patchloader_native.cpp - dlopen patch tests -*- C++ -*-===//
///
/// The dlopen path end to end: load the native patch shared objects built
/// under patches/, apply them through the runtime, and observe the new
/// behaviour — the exact mechanism of the PLDI 2001 system (with
/// `extern "C"` exports defeating C++ name mangling).

#include "core/Runtime.h"
#include "flashed/App.h"
#include "link/NativeLoader.h"
#include "patch/PatchLoader.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

using namespace dsu;

namespace {

std::string patchPath(const char *Name) {
  return std::string(DSU_PATCH_DIR) + "/" + Name;
}

int64_t fibV1(int64_t N) { return N < 2 ? N : fibV1(N - 1) + fibV1(N - 2); }
int64_t scaleV1(int64_t X) { return X * 1000; }

class NativePatchTest : public ::testing::Test {
protected:
  void SetUp() override {
    Fib = cantFail(RT.defineUpdateable("math.fib", &fibV1));
    Scale = cantFail(RT.defineUpdateable("math.scale", &scaleV1));
    cantFail(RT.defineNamedType({"counter", 1},
                                *parseType(RT.types(), "int")));
    Counter = cantFail(RT.defineState("math.counter",
                                      RT.types().namedType("counter", 1),
                                      std::make_shared<int64_t>(5)));
  }

  Runtime RT;
  Updateable<int64_t(int64_t)> Fib, Scale;
  StateCell *Counter = nullptr;
};

TEST_F(NativePatchTest, LoadReadsManifestAndCode) {
  Expected<Patch> P = loadNativePatch(RT.types(), patchPath("mathlib_v2.so"));
  ASSERT_TRUE(P) << P.takeError().str();
  EXPECT_EQ(P->Id, "mathlib-v2-native");
  EXPECT_EQ(P->Unit.Provides.size(), 3u);
  EXPECT_EQ(P->NewTypes.size(), 1u);
  EXPECT_EQ(P->Transformers.size(), 1u);
  EXPECT_GT(P->CodeBytes, 0u);
  EXPECT_EQ(P->SourcePath, patchPath("mathlib_v2.so"));
}

TEST_F(NativePatchTest, AppliesAndChangesBehaviour) {
  EXPECT_EQ(Fib(20), 6765);
  EXPECT_EQ(Scale(3), 3000);

  Expected<Patch> P =
      loadPatchFile(RT.types(), RT.exports(), patchPath("mathlib_v2.so"));
  ASSERT_TRUE(P) << P.takeError().str();
  RT.requestUpdate(std::move(*P));
  ASSERT_EQ(RT.updatePoint(), 1u);

  // Same results where semantics agree, new semantics where they differ.
  EXPECT_EQ(Fib(20), 6765);
  EXPECT_EQ(Fib(40), 102334155); // iterative version is fast enough
  EXPECT_EQ(Scale(3), 3000000);  // micro-units now
  EXPECT_EQ(Fib.version(), 2u);

  // The new function is available.
  auto Cube = cantFail(bindUpdateable<int64_t(int64_t)>(
      RT.updateables(), RT.types(), "math.cube"));
  EXPECT_EQ(Cube(7), 343);

  // The native transformer migrated the counter (x1000 into micro).
  EXPECT_EQ(Counter->type()->str(), "%counter@2");
  EXPECT_EQ(*Counter->get<int64_t>(), 5000);

  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_TRUE(Log[0].Succeeded);
  EXPECT_EQ(Log[0].CellsMigrated, 1u);
  EXPECT_EQ(Log[0].ProvidesLinked, 3u);
  // Native patches skip VTAL verification.
  EXPECT_EQ(Log[0].InstructionsVerified, 0u);
}

TEST_F(NativePatchTest, IllTypedPatchRejectedWithoutMutation) {
  Expected<Patch> P = loadPatchFile(RT.types(), RT.exports(),
                                    patchPath("badpatch_type_mismatch.so"));
  ASSERT_TRUE(P) << P.takeError().str(); // loading succeeds; applying must fail
  RT.requestUpdate(std::move(*P));
  EXPECT_EQ(RT.updatePoint(), 0u);

  auto Log = RT.updateLog();
  ASSERT_EQ(Log.size(), 1u);
  EXPECT_FALSE(Log[0].Succeeded);
  EXPECT_NE(Log[0].FailureReason.find("type"), std::string::npos);

  EXPECT_EQ(Fib(10), 55);
  EXPECT_EQ(Fib.version(), 1u);
}

TEST_F(NativePatchTest, RawLibraryInterface) {
  Expected<std::shared_ptr<LoadedLibrary>> Lib =
      LoadedLibrary::open(patchPath("mathlib_v2.so"));
  ASSERT_TRUE(Lib) << Lib.takeError().str();
  Expected<std::string> Manifest = readPatchManifest(**Lib);
  ASSERT_TRUE(Manifest);
  EXPECT_NE(Manifest->find("mathlib-v2-native"), std::string::npos);

  Expected<void *> Sym = (*Lib)->symbol("dsu_mathv2_cube");
  ASSERT_TRUE(Sym);
  auto Cube = reinterpret_cast<int64_t (*)(void *, int64_t)>(*Sym);
  EXPECT_EQ(Cube(nullptr, 4), 64);

  EXPECT_FALSE((*Lib)->symbol("no_such_symbol"));
}

TEST_F(NativePatchTest, LoadPatchFileDispatchesOnExtension) {
  Expected<Patch> P = loadPatchFile(RT.types(), RT.exports(),
                                    patchPath("mathlib_v2.so"));
  ASSERT_TRUE(P) << P.takeError().str();
  EXPECT_EQ(P->Id, "mathlib-v2-native");
}

TEST(FlashedNativePatchTest, P1FixesQueryParsing) {
  Runtime RT;
  flashed::FlashedApp App(RT);
  flashed::DocStore Docs;
  Docs.put("/doc.html", "<html>hi</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));

  std::string Request = "GET /doc.html?q=1 HTTP/1.0\r\n\r\n";
  EXPECT_NE(App.handle(Request).find("404"), std::string::npos);

  Expected<Patch> P =
      loadPatchFile(RT.types(), RT.exports(), patchPath("p1_parsefix.so"));
  ASSERT_TRUE(P) << P.takeError().str();
  RT.requestUpdate(std::move(*P));
  ASSERT_EQ(RT.updatePoint(), 1u);

  std::string After = App.handle(Request);
  EXPECT_NE(After.find("200 OK"), std::string::npos);
  EXPECT_NE(After.find("<html>hi</html>"), std::string::npos);
}

} // namespace
