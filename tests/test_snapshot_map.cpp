//===- tests/test_snapshot_map.cpp - Sharded snapshot map -----*- C++ -*-===//
///
/// SnapshotMap, the immutable map behind the DocStore tree and the
/// FlashEd cache: set() on a copy leaves the source snapshot unchanged
/// and clones exactly one shard, and an epoch-published map can be read
/// lock-free while a writer copy-set-publishes past it.
///
/// Part of the epoch suite (`ctest -L epoch`), so the TSan lane runs the
/// concurrent test with the rest of the publication core.

#include "epoch/Epoch.h"
#include "support/SnapshotMap.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace dsu;

namespace {

using IntMap = SnapshotMap<int>;

std::string key(unsigned I) { return "/doc" + std::to_string(I) + ".html"; }

TEST(SnapshotMapTest, SetLeavesTheOldSnapshotUnchanged) {
  IntMap Old;
  for (unsigned I = 0; I != 100; ++I)
    Old.set(key(I), int(I));

  IntMap Next = Old;
  Next.set(key(7), 700);
  Next.set(key(1000), 1000);

  ASSERT_NE(Old.find(key(7)), nullptr);
  EXPECT_EQ(*Old.find(key(7)), 7);
  EXPECT_EQ(Old.find(key(1000)), nullptr);
  EXPECT_EQ(Old.size(), 100u);
  EXPECT_EQ(*Next.find(key(7)), 700);
  EXPECT_EQ(*Next.find(key(1000)), 1000);
  for (unsigned I = 0; I != 100; ++I) {
    if (I != 7) {
      EXPECT_EQ(*Next.find(key(I)), int(I)) << key(I);
    }
  }
}

TEST(SnapshotMapTest, SetClonesExactlyOneShard) {
  IntMap Old;
  for (unsigned I = 0; I != 1000; ++I)
    Old.set(key(I), int(I));

  for (const std::string &K : {key(3), key(5000)}) { // replace, insert
    IntMap Next = Old;
    Next.set(K, -1);
    size_t Touched = IntMap::shardOf(K);
    for (size_t S = 0; S != IntMap::ShardCount; ++S) {
      if (S == Touched) {
        EXPECT_NE(Next.shard(S), Old.shard(S)) << K;
      } else {
        EXPECT_EQ(Next.shard(S), Old.shard(S)) << K << " shard " << S;
      }
    }
  }
}

TEST(SnapshotMapTest, SizeCountsInsertsNotReplaces) {
  IntMap M;
  EXPECT_EQ(M.size(), 0u);
  M.set("/a", 1);
  M.set("/b", 2);
  EXPECT_EQ(M.size(), 2u);
  M.set("/a", 3);
  EXPECT_EQ(M.size(), 2u);
  EXPECT_EQ(*M.find("/a"), 3);
}

TEST(SnapshotMapTest, ForEachAndMapValuesVisitEveryEntry) {
  IntMap M;
  for (unsigned I = 0; I != 500; ++I)
    M.set(key(I), int(I));
  size_t Seen = 0;
  long Sum = 0;
  M.forEach([&](const std::string &K, int V) {
    EXPECT_EQ(K, key(unsigned(V)));
    ++Seen;
    Sum += V;
  });
  EXPECT_EQ(Seen, 500u);
  EXPECT_EQ(Sum, 499L * 500 / 2);

  SnapshotMap<std::string> Str =
      M.mapValues<std::string>([](int V) { return std::to_string(V); });
  EXPECT_EQ(Str.size(), 500u);
  for (unsigned I = 0; I != 500; ++I)
    EXPECT_EQ(*Str.find(key(I)), std::to_string(I));
}

// One writer copy-set-publishes 4096 keys through an epoch::Ptr while
// readers look up keys already published.  A published snapshot is
// never written, so every key a reader saw published must be found with
// its value; the TSan lane checks that no read races a write.
TEST(SnapshotMapTest, ReadersNeverMissAPublishedKeyUnderAWriter) {
  constexpr unsigned Keys = 4096;
  using BodyMap = SnapshotMap<std::shared_ptr<const std::string>>;
  epoch::Ptr<const BodyMap> Live(new BodyMap);
  std::atomic<unsigned> Published{0};
  std::atomic<bool> Failed{false};

  std::vector<std::thread> Readers;
  for (unsigned R = 0; R != 3; ++R)
    Readers.emplace_back([&, R] {
      unsigned I = R;
      while (Published.load(std::memory_order_acquire) != Keys) {
        unsigned Upto = Published.load(std::memory_order_acquire);
        if (Upto == 0)
          continue;
        unsigned K = (I += 7919) % Upto;
        epoch::Guard G;
        const auto *B = Live.load()->find(key(K));
        if (!B || **B != key(K))
          Failed.store(true, std::memory_order_relaxed);
      }
    });

  for (unsigned I = 0; I != Keys; ++I) {
    auto *Next = new BodyMap(*Live.load());
    Next->set(key(I), std::make_shared<const std::string>(key(I)));
    Live.publish(Next);
    Published.store(I + 1, std::memory_order_release);
  }
  for (std::thread &T : Readers)
    T.join();
  epoch::domain().reclaim();

  EXPECT_FALSE(Failed.load());
  epoch::Guard G;
  EXPECT_EQ(Live.load()->size(), Keys);
}

} // namespace
