//===- dsubench/src/Common.h - Clocks, inputs, samples and spans -*- C++ -*-//
///
/// \file
/// Small pieces shared by the benchmark's generator and main program: the
/// monotonic clock, the seeded input generator, the body fingerprint the
/// correctness checker compares against, sample sets with percentiles,
/// and the in-memory span recorder of the traced run.
///
//===----------------------------------------------------------------------===//

#ifndef DSUBENCH_COMMON_H
#define DSUBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <sys/resource.h>
#include <vector>

namespace dsubench {

/// CPU time (user + system) of the process (RUSAGE_SELF) or of the
/// calling thread (RUSAGE_THREAD), in microseconds.
inline double cpuUs(int Who) {
  rusage U;
  getrusage(Who, &U);
  return (U.ru_utime.tv_sec + U.ru_stime.tv_sec) * 1e6 + U.ru_utime.tv_usec +
         U.ru_stime.tv_usec;
}

/// CLOCK_MONOTONIC nanoseconds (what timerfd's absolute deadlines use).
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the only source of randomness, so a seed fixes the inputs.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ULL);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }
  uint32_t below(uint32_t N) {
    return static_cast<uint32_t>((next() >> 32) * N >> 32);
  }
};

/// The order documents are requested in: rounds that each name every
/// document once, shuffled by the seed.  Every document stays equally
/// likely, and every round has the same size mix, so the load does not
/// drift with how a seed happens to cluster the large documents.
class RequestStream {
public:
  RequestStream(uint64_t Seed, uint32_t NumDocs)
      : R(Seed ^ 0x5EEDULL), Order(NumDocs), Next(NumDocs) {
    for (uint32_t I = 0; I != NumDocs; ++I)
      Order[I] = I;
  }
  uint32_t next() {
    if (Next == Order.size()) {
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[R.below(static_cast<uint32_t>(I))]);
      Next = 0;
    }
    return Order[Next++];
  }

private:
  Rng R;
  std::vector<uint32_t> Order;
  size_t Next;
};

/// 64-bit fingerprint of a body.  Four independent lanes of eight bytes
/// each keep the multiplies from serializing, so checking a 256 KiB
/// response costs a few microseconds of the generator's core.
inline uint64_t fingerprint(const char *P, size_t N) {
  const uint64_t K = 0x100000001B3ULL;
  uint64_t H[4] = {0x243F6A8885A308D3ULL ^ N, 0x13198A2E03707344ULL,
                   0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
  size_t I = 0;
  for (; I + 32 <= N; I += 32)
    for (int L = 0; L != 4; ++L) {
      uint64_t W;
      std::memcpy(&W, P + I + 8 * L, 8);
      H[L] = (H[L] ^ W) * K;
      H[L] ^= H[L] >> 29;
    }
  uint64_t T = 0;
  for (; I != N; ++I)
    T = (T << 8 | static_cast<unsigned char>(P[I])) * K + 1;
  uint64_t R = H[0] ^ T;
  for (int L = 1; L != 4; ++L)
    R = (R ^ H[L]) * K ^ (R >> 31);
  return R ^ (R >> 32);
}

/// The served document set: bodies the generator made from the seed,
/// and the fingerprint each response is checked against.
struct DocSet {
  std::vector<std::string> Paths;
  std::vector<std::shared_ptr<const std::string>> Bodies;
  std::vector<uint64_t> Hashes;
  size_t size() const { return Paths.size(); }
};

/// A set of timing samples (any unit) with nearest-rank percentiles,
/// stored as float: a 20 s closed-loop window holds two million of them,
/// and their memory counts toward the process's peak RSS.
class Samples {
public:
  void add(double V) { V_.push_back(static_cast<float>(V)); }
  size_t count() const { return V_.size(); }
  bool empty() const { return V_.empty(); }
  void append(const Samples &O) {
    V_.insert(V_.end(), O.V_.begin(), O.V_.end());
  }
  /// Percentile \p P in [0,100]; sorts lazily.
  double pct(double P) {
    if (V_.empty())
      return 0;
    if (!Sorted) {
      std::sort(V_.begin(), V_.end());
      Sorted = true;
    }
    size_t Rank = static_cast<size_t>(P / 100.0 * V_.size());
    return V_[std::min(Rank, V_.size() - 1)];
  }
  double median() { return pct(50); }
  /// Mean of the middle half (the interquartile mean): robust to the
  /// tails like the median, but it moves smoothly when the samples are
  /// bimodal, where the median jumps between the two modes.
  double midMean() {
    if (V_.empty())
      return 0;
    pct(0);
    size_t Lo = V_.size() / 4, Hi = V_.size() - V_.size() / 4;
    double S = 0;
    for (size_t I = Lo; I != Hi; ++I)
      S += V_[I];
    return S / static_cast<double>(Hi - Lo);
  }

private:
  std::vector<float> V_;
  bool Sorted = false;
};

/// One recorded span: a timed call the benchmark made into a layer.
/// \c Req ties the spans of one request together (0 for update work).
struct Span {
  uint64_t Id;
  uint64_t Parent; ///< 0 for a root span
  uint64_t Req;
  const char *Name; ///< a string literal
  int64_t StartNs;
  int64_t EndNs;
};

/// Per-thread span buffer: appends only, read after the thread joins.
/// Disabled (the untraced run) it records nothing.
class SpanLog {
public:
  explicit SpanLog(bool Enabled = false, uint64_t IdBase = 0)
      : Enabled(Enabled), NextId(IdBase + 1) {}
  bool enabled() const { return Enabled; }
  /// Opens a span and returns its id (0 when disabled).
  uint64_t open(const char *Name, uint64_t Parent, uint64_t Req) {
    if (!Enabled)
      return 0;
    uint64_t Id = NextId++;
    Spans.push_back({Id, Parent, Req, Name, nowNs(), 0});
    return Id;
  }
  /// Closes the most recent span with id \p Id.
  void close(uint64_t Id) {
    if (!Enabled || !Id)
      return;
    for (size_t I = Spans.size(); I-- > 0;)
      if (Spans[I].Id == Id) {
        Spans[I].EndNs = nowNs();
        return;
      }
  }
  /// Records an already-timed span.
  uint64_t add(const char *Name, uint64_t Parent, uint64_t Req,
               int64_t StartNs, int64_t EndNs) {
    if (!Enabled)
      return 0;
    uint64_t Id = NextId++;
    Spans.push_back({Id, Parent, Req, Name, StartNs, EndNs});
    return Id;
  }
  std::vector<Span> Spans;

private:
  bool Enabled;
  uint64_t NextId;
};

} // namespace dsubench

#endif // DSUBENCH_COMMON_H
