//===- tests/test_flashed_app.cpp - FlashEd application tests -*- C++ -*-===//
///
/// The macro-benchmark application and its scripted evolution: behaviour
/// at v1, after each of P1..P5, and the static-vs-updateable equivalence
/// that underpins the throughput experiment (E2).

#include "flashed/App.h"
#include "flashed/Patches.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace dsu;
using namespace dsu::flashed;

namespace {

std::string get(const std::string &Target) {
  return "GET " + Target + " HTTP/1.0\r\nHost: t\r\n\r\n";
}

class FlashedAppTest : public ::testing::Test {
protected:
  void SetUp() override {
    DocStore Docs;
    Docs.put("/index.html", "<html>home</html>");
    Docs.put("/doc.html", "<html>doc</html>");
    Docs.put("/style.css", "body{}");
    Docs.put("/data.bin", "\x01\x02");
    ASSERT_FALSE(App.init(std::move(Docs)));
  }

  void applyPatch(Expected<Patch> P) {
    ASSERT_TRUE(P) << P.takeError().str();
    Error E = RT.applyNow(std::move(*P));
    ASSERT_FALSE(E) << E.str();
  }

  Runtime RT;
  FlashedApp App{RT};
};

TEST_F(FlashedAppTest, ServesDocuments) {
  std::string R = App.handle(get("/doc.html"));
  EXPECT_NE(R.find("200 OK"), std::string::npos);
  EXPECT_NE(R.find("<html>doc</html>"), std::string::npos);
  EXPECT_NE(R.find("text/html"), std::string::npos);
}

TEST_F(FlashedAppTest, RootMapsToIndex) {
  std::string R = App.handle(get("/"));
  EXPECT_NE(R.find("<html>home</html>"), std::string::npos);
}

TEST_F(FlashedAppTest, MissingDocumentIs404) {
  EXPECT_NE(App.handle(get("/ghost.html")).find("404"), std::string::npos);
}

TEST_F(FlashedAppTest, TraversalIs403) {
  EXPECT_NE(App.handle(get("/../etc/passwd")).find("403"),
            std::string::npos);
}

TEST_F(FlashedAppTest, BadMethodIs405) {
  EXPECT_NE(App.handle("POST / HTTP/1.0\r\n\r\n").find("405"),
            std::string::npos);
}

TEST_F(FlashedAppTest, MalformedIs400) {
  EXPECT_NE(App.handle("GARBAGE\r\n\r\n").find("400"), std::string::npos);
}

TEST_F(FlashedAppTest, HeadOmitsBody) {
  std::string R = App.handle("HEAD /doc.html HTTP/1.0\r\n\r\n");
  EXPECT_NE(R.find("200 OK"), std::string::npos);
  EXPECT_EQ(R.find("<html>doc</html>"), std::string::npos);
}

TEST_F(FlashedAppTest, CachePopulates) {
  EXPECT_EQ(App.cacheCell()->get<CacheV1>()->Entries.size(), 0u);
  App.handle(get("/doc.html"));
  // The fill is a copy-set-publish: it replaces the snapshot rather
  // than mutating it, so re-read the cell for the post-fill payload.
  auto *C = App.cacheCell()->get<CacheV1>();
  EXPECT_NE(C->Entries.find("/doc.html"), nullptr);
  EXPECT_EQ(C->Entries.size(), 1u);
}

TEST_F(FlashedAppTest, V1QueryStringBug) {
  // The seeded defect: query strings defeat document lookup.
  EXPECT_NE(App.handle(get("/doc.html?x=1")).find("404"),
            std::string::npos);
}

TEST_F(FlashedAppTest, P1FixesQueryStrings) {
  applyPatch(makePatchP1(App));
  std::string R = App.handle(get("/doc.html?x=1"));
  EXPECT_NE(R.find("200 OK"), std::string::npos);
  EXPECT_EQ(App.ParseTarget.version(), 2u);
}

TEST_F(FlashedAppTest, P2ExtendsMimeAndMapping) {
  // v1: css served as octet-stream, trailing slash 404s.
  EXPECT_NE(App.handle(get("/style.css")).find("application/octet-stream"),
            std::string::npos);
  applyPatch(makePatchP2(App));
  EXPECT_NE(App.handle(get("/style.css")).find("text/css; charset=utf-8"),
            std::string::npos);
  EXPECT_NE(App.handle(get("/doc.html/")).find("200 OK"),
            std::string::npos);
  // New function exists.
  auto DefaultDoc = cantFail(bindUpdateable<std::string()>(
      RT.updateables(), RT.types(), "flashed.default_doc"));
  EXPECT_EQ(DefaultDoc(), "/index.html");
}

TEST_F(FlashedAppTest, P3MigratesLiveCache) {
  // Warm the v1 cache.
  App.handle(get("/doc.html"));
  App.handle(get("/index.html"));
  ASSERT_EQ(App.cacheCell()->get<CacheV1>()->Entries.size(), 2u);

  applyPatch(makePatchP3(App));

  // Live data survived the representation change.
  EXPECT_EQ(App.cacheCell()->type()->str(), "%flashed_cache@2");
  auto *V2 = App.cacheCell()->get<CacheV2>();
  ASSERT_EQ(V2->Entries.size(), 2u);
  const CacheEntryV2 *Doc = V2->Entries.find("/doc.html");
  ASSERT_NE(Doc, nullptr);
  EXPECT_EQ(*Doc->Body, "<html>doc</html>");
  EXPECT_EQ(Doc->hits(), 0);

  // Hits now count.
  App.handle(get("/doc.html"));
  App.handle(get("/doc.html"));
  EXPECT_EQ(Doc->hits(), 2);

  // And the new stats function reports them.
  auto Stats = cantFail(bindUpdateable<std::string()>(
      RT.updateables(), RT.types(), "flashed.cache_stats"));
  EXPECT_NE(Stats().find("hits=2"), std::string::npos);

  // Serving still works end to end.
  EXPECT_NE(App.handle(get("/doc.html")).find("200 OK"),
            std::string::npos);
}

TEST_F(FlashedAppTest, P3MigratesAVolumeCacheSharingEveryBody) {
  constexpr unsigned Docs = 4096;
  App.docs().fillSynthetic(Docs, 64);
  std::vector<std::string> Paths = App.docs().paths();
  ASSERT_EQ(Paths.size(), Docs + 4);
  EXPECT_TRUE(std::is_sorted(Paths.begin(), Paths.end()));
  EXPECT_EQ(std::adjacent_find(Paths.begin(), Paths.end()), Paths.end());

  // Warm the v1 cache with every document, one miss publish each.
  for (const std::string &P : Paths)
    ASSERT_NE(App.handle(get(P)).find("200 OK"), std::string::npos) << P;
  const CacheV1 *V1 = App.cacheCell()->get<CacheV1>();
  ASSERT_EQ(V1->Entries.size(), Paths.size());
  std::map<std::string, const std::string *> Bodies;
  V1->Entries.forEach([&](const std::string &P, const SharedBody &B) {
    Bodies[P] = B.get();
  });
  // Keep the v1 snapshot alive across the migration to compare with it.
  std::shared_ptr<void> KeepV1 = App.cacheCell()->raw();

  applyPatch(makePatchP3(App));

  const CacheV2 *V2 = App.cacheCell()->get<CacheV2>();
  ASSERT_EQ(V2->Entries.size(), Paths.size());
  for (const std::string &P : Paths) {
    const CacheEntryV2 *E = V2->Entries.find(P);
    ASSERT_NE(E, nullptr) << P;
    EXPECT_EQ(E->Body.get(), Bodies[P]) << P << ": body copied, not shared";
    EXPECT_EQ(E->hits(), 0) << P;
  }
}

TEST_F(FlashedAppTest, P4ShimsSignatureChange) {
  applyPatch(makePatchP4(App));
  // Old entry point still valid (now a shim)...
  App.handle(get("/doc.html"));
  // ...and the new wide interface exists.
  auto Log2 =
      cantFail(bindUpdateable<void(std::string, int64_t, int64_t)>(
          RT.updateables(), RT.types(), "flashed.log_access2"));
  Log2("/x", 200, 1234);
  EXPECT_EQ(App.LogAccess.version(), 2u);
}

TEST_F(FlashedAppTest, P5IntroducesAccessLog) {
  applyPatch(makePatchP4(App));
  applyPatch(makePatchP5(App));

  App.handle(get("/doc.html"));
  App.handle(get("/ghost.html"));

  auto Count = cantFail(bindUpdateable<int64_t()>(
      RT.updateables(), RT.types(), "flashed.log_count"));
  auto Recent = cantFail(bindUpdateable<std::string()>(
      RT.updateables(), RT.types(), "flashed.log_recent"));
  EXPECT_GE(Count(), 2);
  std::string R = Recent();
  EXPECT_NE(R.find("200 /doc.html"), std::string::npos);
  EXPECT_NE(R.find("404"), std::string::npos);
}

TEST_F(FlashedAppTest, FullSeriesAppliesInOrder) {
  Expected<std::vector<Patch>> Series = makePatchSeries(App);
  ASSERT_TRUE(Series) << Series.takeError().str();
  EXPECT_EQ(Series->size(), 5u);
  for (Patch &P : *Series) {
    Error E = RT.applyNow(std::move(P));
    ASSERT_FALSE(E) << E.str();
  }
  EXPECT_EQ(RT.updatesApplied(), 5u);

  // Post-evolution behaviour: everything at once.
  std::string R = App.handle(get("/style.css?v=3"));
  EXPECT_NE(R.find("200 OK"), std::string::npos);
  EXPECT_NE(R.find("text/css"), std::string::npos);
  auto Count = cantFail(bindUpdateable<int64_t()>(
      RT.updateables(), RT.types(), "flashed.log_count"));
  EXPECT_GE(Count(), 1);
  auto Log = RT.updateLog();
  EXPECT_EQ(Log.size(), 5u);
  for (const UpdateRecord &Rec : Log)
    EXPECT_TRUE(Rec.Succeeded) << Rec.PatchId << ": " << Rec.FailureReason;
}

// Property: before any update, the updateable pipeline and the static
// pipeline are observationally equivalent on every request shape.
class PipelineEquivalence : public ::testing::TestWithParam<const char *> {};

TEST_P(PipelineEquivalence, StaticMatchesUpdateable) {
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/index.html", "<html>home</html>");
  Docs.put("/doc.html", "<html>doc</html>");
  ASSERT_FALSE(App.init(std::move(Docs)));

  std::string Raw = GetParam();
  EXPECT_EQ(App.handle(Raw), App.handleStatic(Raw));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineEquivalence,
    ::testing::Values("GET / HTTP/1.0\r\n\r\n",
                      "GET /doc.html HTTP/1.0\r\n\r\n",
                      "GET /ghost HTTP/1.0\r\n\r\n",
                      "GET /doc.html?q=1 HTTP/1.0\r\n\r\n",
                      "GET /../x HTTP/1.0\r\n\r\n",
                      "HEAD /doc.html HTTP/1.0\r\n\r\n",
                      "POST / HTTP/1.0\r\n\r\n", "BAD\r\n\r\n"));

} // namespace
