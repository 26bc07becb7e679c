//===- support/SnapshotMap.h - Sharded copy-on-write map ------*- C++ -*-===//
///
/// \file
/// The immutable string-keyed map behind every epoch-published snapshot
/// that grows one key at a time: the DocStore tree and both versions of
/// the FlashEd response cache.
///
/// A map is a fixed array of shards.  Each shard is an immutable sorted
/// vector of (key, value) pairs behind a shared_ptr, and a key lives in
/// the shard its hash picks.  Copying a map copies the shard pointers
/// only, so a copy shares every shard with its source; set() then clones
/// the one shard that holds the key.  A writer's copy-set-publish thus
/// costs O(N/ShardCount + ShardCount) instead of the O(N) of copying a
/// whole std::map.  Filling N keys one publish at a time costs
/// N * (N/ShardCount + ShardCount): linear in N while N stays below
/// ShardCount^2 (4096), and ShardCount times cheaper than O(N^2) above.
///
/// A published map is never modified: readers call find() on it with no
/// lock, and a superseded snapshot still reads exactly as it did.  Only
/// a value the writer holds privately (a fresh copy, before publishing)
/// may be set().  Values that carry relaxed-atomic statistics (the V2
/// cache entries) may be bumped in place through find(); such bumps land
/// in every snapshot that shares the shard.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_SUPPORT_SNAPSHOTMAP_H
#define DSU_SUPPORT_SNAPSHOTMAP_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dsu {

template <typename V> class SnapshotMap {
public:
  static constexpr size_t ShardCount = 64;
  using Entry = std::pair<std::string, V>;
  using Shard = std::vector<Entry>;

  SnapshotMap() { Shards.fill(emptyShard()); }

  /// The shard that holds \p Key in every map of this type.
  static size_t shardOf(const std::string &Key) {
    return std::hash<std::string>{}(Key) % ShardCount;
  }

  /// The value at \p Key, or nullptr.  Valid as long as this map (or a
  /// copy sharing the shard) is alive.
  const V *find(const std::string &Key) const {
    const Shard &S = *Shards[shardOf(Key)];
    auto It = lowerBound(S, Key);
    return It != S.end() && It->first == Key ? &It->second : nullptr;
  }

  size_t size() const { return Size; }

  /// Adds or replaces \p Key.  Clones only the shard that holds it; every
  /// other copy of this map is left unchanged.
  void set(const std::string &Key, V Value) {
    std::shared_ptr<const Shard> &Slot = Shards[shardOf(Key)];
    const Shard &Old = *Slot;
    auto It = lowerBound(Old, Key);
    bool Replace = It != Old.end() && It->first == Key;
    auto Next = std::make_shared<Shard>();
    Next->reserve(Old.size() + !Replace);
    Next->insert(Next->end(), Old.begin(), It);
    Next->emplace_back(Key, std::move(Value));
    Next->insert(Next->end(), Replace ? It + 1 : It, Old.end());
    Slot = std::move(Next);
    Size += !Replace;
  }

  /// Calls \p F(key, value) for every entry: shard by shard, in key
  /// order within a shard (not in global key order).
  template <typename Fn> void forEach(Fn &&F) const {
    for (const auto &S : Shards)
      for (const Entry &E : *S)
        F(E.first, E.second);
  }

  /// A map with the same keys and F(value) as values, built in one O(N)
  /// pass (state transformers).
  template <typename U, typename Fn> SnapshotMap<U> mapValues(Fn &&F) const {
    SnapshotMap<U> Out;
    for (size_t I = 0; I != ShardCount; ++I) {
      if (Shards[I]->empty())
        continue;
      auto S = std::make_shared<typename SnapshotMap<U>::Shard>();
      S->reserve(Shards[I]->size());
      for (const Entry &E : *Shards[I])
        S->emplace_back(E.first, F(E.second));
      Out.Shards[I] = std::move(S);
    }
    Out.Size = Size;
    return Out;
  }

  /// Shard \p I itself, for checks that copies share structure.
  const Shard *shard(size_t I) const { return Shards[I].get(); }

private:
  template <typename> friend class SnapshotMap;

  static typename Shard::const_iterator lowerBound(const Shard &S,
                                                   const std::string &Key) {
    return std::lower_bound(
        S.begin(), S.end(), Key,
        [](const Entry &E, const std::string &K) { return E.first < K; });
  }

  static const std::shared_ptr<const Shard> &emptyShard() {
    static const std::shared_ptr<const Shard> Empty =
        std::make_shared<const Shard>();
    return Empty;
  }

  std::array<std::shared_ptr<const Shard>, ShardCount> Shards;
  size_t Size = 0;
};

} // namespace dsu

#endif // DSU_SUPPORT_SNAPSHOTMAP_H
