//===- dsubench/src/Generator.h - Load generator and checker ---*- C++ -*-===//
///
/// \file
/// The benchmark's client: one thread, pinned to its own core, driving at
/// most four keep-alive loopback connections from a single epoll loop.
///
///  - Closed loop: each connection keeps exactly one request outstanding
///    and sends the next the moment a response completes.
///  - Open loop: requests fall due on a fixed schedule and are sent
///    round-robin whatever is outstanding (pipelining on keep-alive).
///    Between sends the thread sleeps on a timerfd armed to the next due
///    time in nanoseconds, so it never spins.
///
/// Every request is timed from when it was *due* (closed loop: the
/// moment its connection became free), and every response is checked:
/// status, Content-Type, Content-Length and a fingerprint of the body
/// against the document the request named.  A 500 seen while a canary
/// rollout is in flight is a bad serve the rollout is expected to
/// cause; any other mismatch, a timeout or a dropped connection is a
/// failed request.
///
//===----------------------------------------------------------------------===//

#ifndef DSUBENCH_GENERATOR_H
#define DSUBENCH_GENERATOR_H

#include "Common.h"

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace dsubench {

/// A blocking connect to 127.0.0.1:\p Port; -1 on failure.
int connectLoopback(uint16_t Port);

/// One generator run (a measured window, a drill, or a warm-up pass).
struct GenPhase {
  bool Open = false;
  double Rate = 0;        ///< open loop: requests per second
  int64_t DurationNs = 0; ///< 0: run until *Stop is set
  const std::atomic<bool> *Stop = nullptr;
  bool Record = true;      ///< keep latency samples
  bool WarmAll = false;    ///< request every document once, in order,
                           ///< one request at a time
  bool TraceSlices = false; ///< traced run: trace every other 250 ms slice
};

struct GenResult {
  Samples TracedUs;       ///< completions due in traced slices
  Samples UntracedUs;     ///< completions due in untraced slices
  /// Latencies by the 100 ms slice of the window they fell due in.
  std::vector<Samples> SliceUs;
  /// Completions by the 100 ms slice of the window they arrived in.
  std::vector<uint32_t> SliceDone;
  uint64_t Attempted = 0; ///< requests sent
  uint64_t Checked = 0;   ///< responses the checker examined
  uint64_t Completed = 0; ///< responses that passed the check (or were
                          ///< expected canary 500s)
  uint64_t Failed = 0;
  uint64_t BadServes = 0; ///< 500s inside a canary window
  uint64_t Reconnects = 0;
  int64_t MaxLateNs = 0; ///< worst send delay behind schedule
  double CpuUs = 0;      ///< generator thread CPU over the run
  std::vector<std::string> Notes; ///< first few failure descriptions
};

class Generator {
public:
  /// \p CanaryGen is odd while a canary rollout is in flight (the
  /// operator bumps it around each one).  \p Cpu < 0 leaves the thread
  /// unpinned.
  Generator(const DocSet &Docs, uint64_t Seed, bool QueryTag,
            const std::atomic<uint64_t> &CanaryGen, int Cpu);
  ~Generator();
  Generator(const Generator &) = delete;
  Generator &operator=(const Generator &) = delete;

  /// Takes ownership of a connected loopback socket to \p Port.
  void adopt(int Fd, uint16_t Port);
  size_t connections() const { return Conns.size(); }

  /// Runs \p P on a fresh pinned thread and returns when it has ended
  /// and every outstanding response has arrived (or timed out).
  GenResult run(const GenPhase &P);

  /// client.request spans recorded in traced slices.
  SpanLog &spans() { return Log; }
  void enableSpans() { Log = SpanLog(true, 0); }

  /// The request text for request \p Id naming document \p Doc.
  static std::string requestText(const DocSet &Docs, uint32_t Doc,
                                 uint64_t Id, bool QueryTag);

private:
  struct Pending {
    uint64_t Id;
    uint32_t Doc;
    int64_t DueNs;
    uint64_t CanaryGen; ///< value at send time
    bool Traced;
  };
  struct Conn {
    int Fd = -1;
    /// Received bytes [Off, Len) of a buffer of Cap bytes, grown without
    /// zero-filling.
    std::unique_ptr<char[]> In;
    size_t Cap = 0, Len = 0, Off = 0;
    size_t Need = 0; ///< bytes of the head response once its head parsed
    size_t HeadLen = 0;
    std::deque<Pending> Q;
    std::string Out;
    size_t OutOff = 0;
    bool WantOut = false;
  };

  void loop(const GenPhase &P, GenResult &R);
  void send(Conn &C, int Ep, uint32_t Idx, uint32_t Doc, int64_t DueNs,
            bool Traced, GenResult &R);
  bool flush(Conn &C, int Ep, uint32_t Idx);
  /// Reads what is available and checks every complete response.
  /// Returns false when the connection broke.
  bool readable(Conn &C, GenResult &R, const GenPhase &P,
                std::vector<uint32_t> &Freed, uint32_t Idx);
  void check(const Pending &Pd, const char *Resp, size_t HeadLen,
             size_t Total, GenResult &R, const GenPhase &P);
  void fail(GenResult &R, const std::string &Why, uint64_t N = 1);
  /// Fails everything outstanding on \p C and replaces its socket.
  void reconnect(Conn &C, int Ep, uint32_t Idx, GenResult &R,
                 const std::string &Why);

  const DocSet &Docs;
  RequestStream Pick;
  bool QueryTag;
  const std::atomic<uint64_t> &CanaryGen;
  int Cpu;
  uint16_t Port = 0;
  uint64_t NextId = 1;
  int64_t RunStartNs = 0; ///< start of the running phase
  std::vector<Conn> Conns;
  SpanLog Log;
};

} // namespace dsubench

#endif // DSUBENCH_GENERATOR_H
