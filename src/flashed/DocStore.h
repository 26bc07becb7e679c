//===- flashed/DocStore.h - In-memory document tree -----------*- C++ -*-===//
///
/// \file
/// The document tree FlashEd serves.  The paper's testbed serves files
/// from disk through Flash's caches; the reproduction serves an in-memory
/// tree so benchmark numbers measure the server and updating machinery,
/// not the benchmark host's filesystem.  Synthetic workloads (fixed-size
/// documents across a range of reply sizes) are generated here for the
/// throughput experiment (E2).
///
//===----------------------------------------------------------------------===//

#ifndef DSU_FLASHED_DOCSTORE_H
#define DSU_FLASHED_DOCSTORE_H

#include "epoch/Epoch.h"
#include "support/SnapshotMap.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dsu {
namespace flashed {

/// Path -> document body map with simple traversal protection.  Bodies
/// are held as shared_ptr<const string> so the serving fast path can
/// hand them to the socket layer without copying.
///
/// Concurrency: the tree is an immutable snapshot published through an
/// epoch::Ptr — readers (every reactor worker of a pool, concurrently)
/// take an epoch guard and one atomic load, **no mutex on the read
/// path**; writers (hot content reload on the admin path) serialize on
/// a write lock, copy-set-publish, and the superseded snapshot is
/// epoch-retired once every worker has passed its next quiescent point.
/// The tree is a SnapshotMap, so a put() clones one shard, not the tree.
/// Document reads cost the same with 1 worker or 64.
class DocStore {
public:
  using Map = SnapshotMap<std::shared_ptr<const std::string>>;

  DocStore() : Tree(new Map) {}
  /// Move transfers the tree only; moves happen during single-threaded
  /// setup (App::init), never while serving.
  DocStore(DocStore &&Other) noexcept : Tree(Other.Tree.exchange(new Map)) {}
  DocStore &operator=(DocStore &&Other) noexcept {
    delete Tree.exchange(Other.Tree.exchange(new Map));
    return *this;
  }

  /// Adds or replaces a document at \p Path (must start with '/').
  void put(const std::string &Path, std::string Body);

  /// Returns the body at \p Path, or nullptr.  The pointer is valid for
  /// the current epoch scope only (callers inside a request/guard);
  /// live-replacement flows use getShared().
  const std::string *get(const std::string &Path) const;

  /// Returns the body at \p Path as a shared handle (zero-copy serving,
  /// valid past any snapshot retirement), or nullptr.
  std::shared_ptr<const std::string> getShared(const std::string &Path) const;

  /// True for paths attempting directory traversal ("..").
  static bool isUnsafePath(const std::string &Path);

  size_t size() const;
  /// Every document path, sorted.
  std::vector<std::string> paths() const;

  /// Fills the store with deterministic synthetic documents named
  /// "/doc<i>.html" of \p Bytes each (one snapshot publish, not Count).
  void fillSynthetic(unsigned Count, size_t Bytes);

private:
  /// Writers only: copy the live snapshot (sharing its shards), set
  /// keys via \p Mutate, publish, retire the old snapshot.
  template <typename Fn> void updateTree(Fn &&Mutate);

  std::mutex WriteMu; ///< serializes writers; readers never take it
  epoch::Ptr<const Map> Tree;
};

/// Deterministic pseudo-text content of \p Bytes (used by benches and
/// tests so bodies are verifiable).
std::string syntheticBody(size_t Bytes, uint64_t Seed = 0);

} // namespace flashed
} // namespace dsu

#endif // DSU_FLASHED_DOCSTORE_H
