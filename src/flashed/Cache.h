//===- flashed/Cache.h - FlashEd response cache representations -*- C++ -*-//
///
/// \file
/// The cache payload types FlashEd keeps in a dsu state cell.  Version 1
/// caches bodies only; version 2 (introduced by patch P3, the paper-style
/// "type change with state transformer") adds per-entry hit counters and
/// last-access stamps.  The dsu named type `%flashed_cache@N` describes
/// the cell; these structs are the C++ representations at each version.
///
/// Bodies are held as shared_ptr<const string>: the string-typed
/// updateable stages (`flashed.cache_get` et al.) copy on the way out —
/// that marshalling is part of what E2 measures — while the serving fast
/// path shares the same bytes with the socket layer without copying.
///
/// Both versions keep their entries in a SnapshotMap, so a miss's
/// copy-set-publish clones one shard, not the whole cache.
///
//===----------------------------------------------------------------------===//

#ifndef DSU_FLASHED_CACHE_H
#define DSU_FLASHED_CACHE_H

#include "support/SnapshotMap.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

namespace dsu {
namespace flashed {

/// A shared, immutable response body.
using SharedBody = std::shared_ptr<const std::string>;

/// %flashed_cache@1 : array<{path: string, body: string}>
struct CacheV1 {
  SnapshotMap<SharedBody> Entries;
};

/// One entry of %flashed_cache@2.  The statistics fields are relaxed
/// atomics: the cache payload is published as an immutable snapshot
/// (StateCell::publish / live()), and a hit on the lock-free serving
/// path bumps the counters of the shared snapshot in place — structure
/// immutable, statistics concurrent, no mutex.  Copying (snapshot
/// forks, state-transformer builds) reads the counters relaxed.
struct CacheEntryV2 {
  SharedBody Body;
  std::atomic<int64_t> Hits{0};
  std::atomic<int64_t> LastAccessMs{0};

  CacheEntryV2() = default;
  /// A fresh entry: no hits yet, last accessed at \p NowMs.
  CacheEntryV2(SharedBody Body, int64_t NowMs)
      : Body(std::move(Body)), LastAccessMs(NowMs) {}
  CacheEntryV2(const CacheEntryV2 &O)
      : Body(O.Body), Hits(O.Hits.load(std::memory_order_relaxed)),
        LastAccessMs(O.LastAccessMs.load(std::memory_order_relaxed)) {}
  CacheEntryV2(CacheEntryV2 &&O) noexcept
      : Body(std::move(O.Body)),
        Hits(O.Hits.load(std::memory_order_relaxed)),
        LastAccessMs(O.LastAccessMs.load(std::memory_order_relaxed)) {}
  CacheEntryV2 &operator=(const CacheEntryV2 &O) {
    Body = O.Body;
    Hits.store(O.Hits.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    LastAccessMs.store(O.LastAccessMs.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }
  CacheEntryV2 &operator=(CacheEntryV2 &&O) noexcept {
    Body = std::move(O.Body);
    Hits.store(O.Hits.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    LastAccessMs.store(O.LastAccessMs.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }

  int64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  int64_t lastAccessMs() const {
    return LastAccessMs.load(std::memory_order_relaxed);
  }
  void noteHit(int64_t NowMs) {
    Hits.fetch_add(1, std::memory_order_relaxed);
    LastAccessMs.store(NowMs, std::memory_order_relaxed);
  }
};

/// %flashed_cache@2 :
///   array<{path: string, body: string, hits: int, last_ms: int}>
struct CacheV2 {
  SnapshotMap<CacheEntryV2> Entries;
};

/// Type text of each representation (kept beside the structs so the
/// descriptor and the C++ type evolve together).
inline const char *cacheReprV1() {
  return "array<{path: string, body: string}>";
}
inline const char *cacheReprV2() {
  return "array<{path: string, body: string, hits: int, last_ms: int}>";
}

} // namespace flashed
} // namespace dsu

#endif // DSU_FLASHED_CACHE_H
