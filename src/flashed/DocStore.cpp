//===- flashed/DocStore.cpp -----------------------------------*- C++ -*-===//

#include "flashed/DocStore.h"

#include "support/StringUtil.h"

#include <algorithm>

using namespace dsu;
using namespace dsu::flashed;

template <typename Fn> void DocStore::updateTree(Fn &&Mutate) {
  std::lock_guard<std::mutex> G(WriteMu);
  // The write lock is the only retirer of the live snapshot, so reading
  // it here without a guard is safe: it cannot be freed under us.
  const Map *Cur = Tree.load();
  auto *Next = new Map(*Cur);
  Mutate(*Next);
  Tree.publish(Next);
}

void DocStore::put(const std::string &Path, std::string Body) {
  auto Shared = std::make_shared<const std::string>(std::move(Body));
  updateTree([&](Map &M) { M.set(Path, std::move(Shared)); });
}

const std::string *DocStore::get(const std::string &Path) const {
  // The returned pointer is kept alive by the body's shared_ptr in the
  // snapshot; a concurrent put() to the SAME path can retire it after
  // the caller's epoch scope, so live replacement flows use getShared().
  epoch::Guard G;
  const auto *B = Tree.load()->find(Path);
  return B ? B->get() : nullptr;
}

std::shared_ptr<const std::string>
DocStore::getShared(const std::string &Path) const {
  epoch::Guard G;
  const auto *B = Tree.load()->find(Path);
  return B ? *B : nullptr;
}

bool DocStore::isUnsafePath(const std::string &Path) {
  return Path.find("..") != std::string::npos;
}

size_t DocStore::size() const {
  epoch::Guard G;
  return Tree.load()->size();
}

std::vector<std::string> DocStore::paths() const {
  epoch::Guard G;
  const Map *M = Tree.load();
  std::vector<std::string> Out;
  Out.reserve(M->size());
  M->forEach([&](const std::string &Path, const auto &) {
    Out.push_back(Path);
  });
  std::sort(Out.begin(), Out.end());
  return Out;
}

void DocStore::fillSynthetic(unsigned Count, size_t Bytes) {
  updateTree([&](Map &M) {
    for (unsigned I = 0; I != Count; ++I)
      M.set(formatString("/doc%u.html", I),
            std::make_shared<const std::string>(syntheticBody(Bytes, I)));
  });
}

std::string dsu::flashed::syntheticBody(size_t Bytes, uint64_t Seed) {
  static const char Words[] =
      "the quick brown fox jumps over the lazy dog and keeps running ";
  std::string Out;
  Out.reserve(Bytes);
  uint64_t X = Seed * 6364136223846793005ull + 1442695040888963407ull;
  while (Out.size() < Bytes) {
    size_t Off = X % (sizeof(Words) - 1);
    Out.append(Words + Off, std::min(sizeof(Words) - 1 - Off,
                                     Bytes - Out.size()));
    X = X * 6364136223846793005ull + 1442695040888963407ull;
  }
  return Out;
}
