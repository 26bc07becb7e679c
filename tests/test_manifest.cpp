//===- tests/test_manifest.cpp - Patch manifest tests ---------*- C++ -*-===//

#include "patch/Manifest.h"
#include "patch/Generator.h"

#include <gtest/gtest.h>

using namespace dsu;

namespace {

const char *FullManifest = R"dsu(
(patch
  (id "P3-cache-entry-v2")
  (description "cache entries gain hit counters")
  (requires
    (symbol "now_ms" "fn() -> int")
    (symbol "docs_get" "fn(string) -> string"))
  (provides
    (fn (name "cache_lookup")
        (type "fn(string) -> string")
        (native-symbol "dsu_p3_cache_lookup"))
    (fn (name "cache_stats")
        (type "fn() -> string")
        (vtal-fn "cache_stats")))
  (new-types
    (type (name "%cache_entry@2")
          (repr "{path: string, body: string, hits: int}")))
  (transformers
    (transform (from "%cache_entry@1") (to "%cache_entry@2")
               (impl "xform_cache_entry_1_2")))
  (vtal-module "module m\nfunc cache_stats () -> string {\npush.s \"x\"\nret\n}")
  (warnings "manual review: eviction policy"))
)dsu";

TEST(ManifestTest, ParsesAllSections) {
  Expected<PatchManifest> M = PatchManifest::parse(FullManifest);
  ASSERT_TRUE(M) << M.error().str();
  EXPECT_EQ(M->Id, "P3-cache-entry-v2");
  EXPECT_EQ(M->Description, "cache entries gain hit counters");
  ASSERT_EQ(M->Requires.size(), 2u);
  EXPECT_EQ(M->Requires[0].Name, "now_ms");
  EXPECT_EQ(M->Requires[0].TypeText, "fn() -> int");
  ASSERT_EQ(M->Provides.size(), 2u);
  EXPECT_EQ(M->Provides[0].NativeSymbol, "dsu_p3_cache_lookup");
  EXPECT_TRUE(M->Provides[0].VtalFn.empty());
  EXPECT_EQ(M->Provides[1].VtalFn, "cache_stats");
  ASSERT_EQ(M->NewTypes.size(), 1u);
  EXPECT_EQ(M->NewTypes[0].Name, "%cache_entry@2");
  ASSERT_EQ(M->Transformers.size(), 1u);
  EXPECT_EQ(M->Transformers[0].Impl, "xform_cache_entry_1_2");
  EXPECT_FALSE(M->VtalText.empty());
  ASSERT_EQ(M->Warnings.size(), 1u);
}

TEST(ManifestTest, PrintParsesBack) {
  Expected<PatchManifest> M = PatchManifest::parse(FullManifest);
  ASSERT_TRUE(M);
  Expected<PatchManifest> Back = PatchManifest::parse(M->print());
  ASSERT_TRUE(Back) << Back.error().str();
  EXPECT_EQ(Back->Id, M->Id);
  EXPECT_EQ(Back->Requires.size(), M->Requires.size());
  EXPECT_EQ(Back->Provides.size(), M->Provides.size());
  EXPECT_EQ(Back->NewTypes.size(), M->NewTypes.size());
  EXPECT_EQ(Back->Transformers.size(), M->Transformers.size());
  EXPECT_EQ(Back->VtalText, M->VtalText);
  EXPECT_EQ(Back->Warnings, M->Warnings);
  // Printing is a fixed point after one round.
  EXPECT_EQ(Back->print(), M->print());
}

TEST(ManifestTest, MinimalManifest) {
  Expected<PatchManifest> M = PatchManifest::parse(
      R"((patch (id "tiny") (provides (fn (name "f") (type "fn() -> unit")
          (native-symbol "s")))))");
  ASSERT_TRUE(M) << M.error().str();
  EXPECT_EQ(M->Provides.size(), 1u);
}

struct BadManifest {
  const char *Name;
  const char *Text;
};

// Print a case by its name. The default printer dumps the pointer bytes,
// which address randomisation changes on every run, and that dump is
// part of the test name that ctest discovers.
void PrintTo(const BadManifest &C, std::ostream *OS) { *OS << C.Name; }

class ManifestErrors : public ::testing::TestWithParam<BadManifest> {};

TEST_P(ManifestErrors, Rejected) {
  Expected<PatchManifest> M = PatchManifest::parse(GetParam().Text);
  EXPECT_FALSE(M) << "accepted: " << GetParam().Name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ManifestErrors,
    ::testing::Values(
        BadManifest{"not_sexpr", "patch id x"},
        BadManifest{"wrong_head", "(fix (id \"x\"))"},
        BadManifest{"missing_id", "(patch (description \"d\"))"},
        BadManifest{"provide_no_name",
                    "(patch (id \"x\") (provides (fn (type \"fn() -> "
                    "unit\") (native-symbol \"s\"))))"},
        BadManifest{"provide_no_code",
                    "(patch (id \"x\") (provides (fn (name \"f\") (type "
                    "\"fn() -> unit\"))))"},
        BadManifest{"symbol_arity",
                    "(patch (id \"x\") (requires (symbol \"only-name\")))"},
        BadManifest{"type_no_repr",
                    "(patch (id \"x\") (new-types (type (name "
                    "\"%t@2\"))))"},
        BadManifest{"transform_incomplete",
                    "(patch (id \"x\") (transformers (transform (from "
                    "\"%t@1\") (to \"%t@2\"))))"}),
    [](const ::testing::TestParamInfo<BadManifest> &Info) {
      return Info.param.Name;
    });

// --- VersionManifest ------------------------------------------------------

const char *VmText = R"dsu(
(version-manifest
  (program "flashed")
  (version 2)
  (functions
    (fn (name "parse") (type "fn(string) -> string")
        (body-hash "aaaa") (impl "sym_parse"))
    (fn (name "mime") (type "fn(string) -> string") (body-hash "bbbb")))
  (types
    (type (name "%cache@1") (repr "{p: string, b: string}"))))
)dsu";

TEST(VersionManifestTest, Parses) {
  Expected<VersionManifest> M = VersionManifest::parse(VmText);
  ASSERT_TRUE(M) << M.error().str();
  EXPECT_EQ(M->Program, "flashed");
  EXPECT_EQ(M->Version, 2u);
  ASSERT_EQ(M->Functions.size(), 2u);
  EXPECT_EQ(M->Functions[0].Impl, "sym_parse");
  ASSERT_EQ(M->Types.size(), 1u);
  ASSERT_NE(M->findFunction("parse"), nullptr);
  EXPECT_EQ(M->findFunction("ghost"), nullptr);
}

TEST(VersionManifestTest, PrintRoundTrip) {
  Expected<VersionManifest> M = VersionManifest::parse(VmText);
  ASSERT_TRUE(M);
  Expected<VersionManifest> Back = VersionManifest::parse(M->print());
  ASSERT_TRUE(Back) << Back.error().str();
  EXPECT_EQ(Back->Program, M->Program);
  EXPECT_EQ(Back->Version, M->Version);
  EXPECT_EQ(Back->Functions.size(), M->Functions.size());
  EXPECT_EQ(Back->Types.size(), M->Types.size());
}

TEST(VersionManifestTest, Rejects) {
  EXPECT_FALSE(VersionManifest::parse("(wrong)"));
  EXPECT_FALSE(VersionManifest::parse("(version-manifest (version 1))"));
  EXPECT_FALSE(VersionManifest::parse(
      "(version-manifest (program \"p\") (functions (fn (name \"f\"))))"));
}

} // namespace
