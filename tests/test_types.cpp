//===- tests/test_types.cpp - Type system tests ---------------*- C++ -*-===//

#include "types/Type.h"
#include "types/TypeParser.h"

#include <gtest/gtest.h>

using namespace dsu;

namespace {

class TypesTest : public ::testing::Test {
protected:
  TypeContext Ctx;
};

TEST_F(TypesTest, PrimitivesAreInterned) {
  EXPECT_EQ(Ctx.intType(), Ctx.intType());
  EXPECT_EQ(Ctx.intType()->str(), "int");
  EXPECT_EQ(Ctx.unitType()->str(), "unit");
  EXPECT_NE(Ctx.intType(), Ctx.floatType());
}

TEST_F(TypesTest, ConstructorsIntern) {
  const Type *A = Ctx.ptrType(Ctx.intType());
  const Type *B = Ctx.ptrType(Ctx.intType());
  EXPECT_EQ(A, B);
  EXPECT_EQ(A->str(), "ptr<int>");
  EXPECT_NE(A, Ctx.arrayType(Ctx.intType()));
}

TEST_F(TypesTest, StructCanonicalForm) {
  const Type *S = Ctx.structType(
      {{"x", Ctx.intType()}, {"y", Ctx.floatType()}});
  EXPECT_EQ(S->str(), "{x: int, y: float}");
  ASSERT_EQ(S->fields().size(), 2u);
  EXPECT_NE(S->findField("x"), nullptr);
  EXPECT_EQ(S->findField("z"), nullptr);
  // Field order matters.
  const Type *S2 = Ctx.structType(
      {{"y", Ctx.floatType()}, {"x", Ctx.intType()}});
  EXPECT_NE(S, S2);
}

TEST_F(TypesTest, FnCanonicalForm) {
  const Type *F =
      Ctx.fnType({Ctx.stringType(), Ctx.intType()}, Ctx.boolType());
  EXPECT_EQ(F->str(), "fn(string, int) -> bool");
  EXPECT_TRUE(F->isFunction());
  EXPECT_EQ(F->params().size(), 2u);
  EXPECT_EQ(F->result(), Ctx.boolType());
  EXPECT_EQ(Ctx.fnType({}, Ctx.unitType())->str(), "fn() -> unit");
}

TEST_F(TypesTest, NamedTypesAreNominal) {
  const Type *A = Ctx.namedType("cache", 1);
  const Type *B = Ctx.namedType("cache", 2);
  EXPECT_NE(A, B);
  EXPECT_EQ(A->str(), "%cache@1");
  EXPECT_EQ(A->name().Name, "cache");
  EXPECT_EQ(A->name().Version, 1u);
  EXPECT_EQ(A, Ctx.namedType("cache", 1));
}

TEST_F(TypesTest, FingerprintsDistinguishTypes) {
  EXPECT_NE(Ctx.intType()->fingerprint(), Ctx.floatType()->fingerprint());
  EXPECT_NE(Ctx.namedType("a", 1)->fingerprint(),
            Ctx.namedType("a", 2)->fingerprint());
  EXPECT_EQ(Ctx.namedType("a", 1)->fingerprint(),
            Ctx.namedType("a", 1)->fingerprint());
}

TEST_F(TypesTest, DefineNamedOnceOnly) {
  VersionedName N{"rec", 1};
  const Type *Repr = Ctx.structType({{"v", Ctx.intType()}});
  EXPECT_FALSE(Ctx.defineNamed(N, Repr));
  // Idempotent with the same representation.
  EXPECT_FALSE(Ctx.defineNamed(N, Repr));
  // Conflicting representation is refused.
  Error E = Ctx.defineNamed(N, Ctx.intType());
  EXPECT_TRUE(E);
  EXPECT_EQ(E.code(), ErrorCode::EC_Invalid);
  EXPECT_EQ(Ctx.lookupDefinition(N), Repr);
}

TEST_F(TypesTest, LatestVersionTracksDefinitions) {
  EXPECT_EQ(Ctx.latestVersion("rec"), 0u);
  ASSERT_FALSE(Ctx.defineNamed({"rec", 1}, Ctx.intType()));
  ASSERT_FALSE(Ctx.defineNamed({"rec", 3}, Ctx.floatType()));
  EXPECT_EQ(Ctx.latestVersion("rec"), 3u);
  EXPECT_EQ(Ctx.latestVersion("other"), 0u);
}

TEST_F(TypesTest, VersionedNameStr) {
  EXPECT_EQ((VersionedName{"cache", 7}).str(), "%cache@7");
}

// --- Parser round-trips (property-style sweep) ---------------------------

class TypeParseRoundTrip : public ::testing::TestWithParam<const char *> {};

TEST_P(TypeParseRoundTrip, CanonicalFormReparses) {
  TypeContext Ctx;
  Expected<const Type *> T = parseType(Ctx, GetParam());
  ASSERT_TRUE(T) << T.error().str();
  // The canonical printed form parses back to the identical node.
  Expected<const Type *> Back = parseType(Ctx, (*T)->str());
  ASSERT_TRUE(Back) << Back.error().str();
  EXPECT_EQ(*T, *Back);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TypeParseRoundTrip,
    ::testing::Values(
        "int", "bool", "float", "string", "unit", "ptr<int>",
        "array<string>", "ptr<ptr<array<int>>>", "{}",
        "{x: int}", "{x: int, y: float, z: {a: bool}}",
        "fn() -> unit", "fn(int) -> int",
        "fn(string, int, bool) -> string",
        "fn(fn(int) -> int) -> fn(int) -> bool", "%cache@1",
        "%cache_entry@12", "array<%rec@2>",
        "fn(%conn@1, string) -> %conn@2",
        "{head: ptr<%node@1>, len: int}",
        "  fn( int , int )  ->  int  "));

class TypeParseErrors : public ::testing::TestWithParam<const char *> {};

TEST_P(TypeParseErrors, Rejected) {
  TypeContext Ctx;
  Expected<const Type *> T = parseType(Ctx, GetParam());
  EXPECT_FALSE(T) << "accepted: " << GetParam();
  if (!T) {
    EXPECT_EQ(T.error().code(), ErrorCode::EC_Parse);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TypeParseErrors,
    ::testing::Values("", "in", "integer", "ptr<", "ptr<int", "ptr<>",
                      "array<unit2>", "{x}", "{x:}", "{x: int",
                      "{x: int,}", "fn(", "fn() ->", "fn(int,) -> int",
                      "fn(int) int", "%", "%@1", "%name@", "%name@0",
                      "%name@abc", "int extra", "unknown<int>"));

TEST(ParseVersionedNameTest, Accepts) {
  Expected<VersionedName> N = parseVersionedName(" %cache@3 ");
  ASSERT_TRUE(N);
  EXPECT_EQ(N->Name, "cache");
  EXPECT_EQ(N->Version, 3u);
}

TEST(ParseVersionedNameTest, Rejects) {
  EXPECT_FALSE(parseVersionedName("cache@3"));
  EXPECT_FALSE(parseVersionedName("%cache"));
  EXPECT_FALSE(parseVersionedName("%cache@0"));
  EXPECT_FALSE(parseVersionedName("%@3"));
}

} // namespace
