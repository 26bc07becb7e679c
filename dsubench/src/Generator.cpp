//===- dsubench/src/Generator.cpp -----------------------------*- C++ -*-===//

#include "Generator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <cerrno>
#include <algorithm>
#include <climits>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <thread>
#include <unistd.h>

using namespace dsubench;

namespace {

constexpr int64_t kSliceNs = 100'000'000;      // latency percentile slices
constexpr int64_t kTraceSliceNs = 250'000'000; // traced/untraced alternation
constexpr int64_t kTimeoutNs = 2'000'000'000; // a response later than this fails
constexpr uint32_t kTimerTag = UINT32_MAX;
constexpr size_t kMaxNotes = 8;

} // namespace

int dsubench::connectLoopback(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  // A fixed receive buffer that holds the largest response whole: left
  // to autotuning, its size (and so how often a large body stalls the
  // sender) would depend on each connection's history.
  int Buf = 1 << 20;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &Buf, sizeof(Buf));
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_port = htons(Port);
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

namespace {

void makeNonBlocking(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  int Flags = fcntl(Fd, F_GETFL);
  fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

/// Case-insensitive search for header \p Name in a response head;
/// returns the value (up to CR) or an empty view.
std::string_view headerValue(std::string_view Head, std::string_view Name) {
  size_t Pos = Head.find("\r\n");
  while (Pos != std::string_view::npos && Pos + 2 < Head.size()) {
    size_t LineStart = Pos + 2;
    size_t LineEnd = Head.find("\r\n", LineStart);
    if (LineEnd == std::string_view::npos)
      LineEnd = Head.size();
    std::string_view Line = Head.substr(LineStart, LineEnd - LineStart);
    if (Line.size() > Name.size() && Line[Name.size()] == ':') {
      bool Eq = true;
      for (size_t I = 0; I != Name.size() && Eq; ++I)
        Eq = (Line[I] | 0x20) == (Name[I] | 0x20);
      if (Eq) {
        std::string_view V = Line.substr(Name.size() + 1);
        while (!V.empty() && V.front() == ' ')
          V.remove_prefix(1);
        return V;
      }
    }
    Pos = LineEnd;
  }
  return {};
}

} // namespace

Generator::Generator(const DocSet &Docs, uint64_t Seed, bool QueryTag,
                     const std::atomic<uint64_t> &CanaryGen, int Cpu)
    : Docs(Docs), Pick(Seed, static_cast<uint32_t>(Docs.size())),
      QueryTag(QueryTag),
      CanaryGen(CanaryGen), Cpu(Cpu) {}

Generator::~Generator() {
  for (Conn &C : Conns)
    if (C.Fd >= 0)
      ::close(C.Fd);
}

void Generator::adopt(int Fd, uint16_t P) {
  Port = P;
  makeNonBlocking(Fd);
  Conns.emplace_back();
  Conns.back().Fd = Fd;
}

std::string Generator::requestText(const DocSet &Docs, uint32_t Doc,
                                   uint64_t Id, bool QueryTag) {
  std::string R = "GET ";
  R += Docs.Paths[Doc];
  if (QueryTag) {
    R += "?r=";
    R += std::to_string(Id);
  }
  R += " HTTP/1.1\r\nHost: dsubench\r\n\r\n";
  return R;
}

GenResult Generator::run(const GenPhase &P) {
  GenResult R;
  std::thread T([&] {
    if (Cpu >= 0) {
      cpu_set_t Set;
      CPU_ZERO(&Set);
      CPU_SET(Cpu, &Set);
      pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
    }
    loop(P, R);
  });
  T.join();
  return R;
}

void Generator::fail(GenResult &R, const std::string &Why, uint64_t N) {
  R.Failed += N;
  if (R.Notes.size() < kMaxNotes)
    R.Notes.push_back(Why);
}

bool Generator::flush(Conn &C, int Ep, uint32_t Idx) {
  while (C.OutOff < C.Out.size()) {
    ssize_t N = ::send(C.Fd, C.Out.data() + C.OutOff,
                       C.Out.size() - C.OutOff, MSG_NOSIGNAL);
    if (N > 0) {
      C.OutOff += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!C.WantOut) {
        epoll_event E{};
        E.events = EPOLLIN | EPOLLOUT;
        E.data.u32 = Idx;
        epoll_ctl(Ep, EPOLL_CTL_MOD, C.Fd, &E);
        C.WantOut = true;
      }
      return true;
    }
    return false;
  }
  C.Out.clear();
  C.OutOff = 0;
  if (C.WantOut) {
    epoll_event E{};
    E.events = EPOLLIN;
    E.data.u32 = Idx;
    epoll_ctl(Ep, EPOLL_CTL_MOD, C.Fd, &E);
    C.WantOut = false;
  }
  return true;
}

void Generator::send(Conn &C, int Ep, uint32_t Idx, uint32_t Doc,
                     int64_t DueNs, bool Traced, GenResult &R) {
  uint64_t Id = NextId++;
  C.Q.push_back({Id, Doc, DueNs, CanaryGen.load(std::memory_order_acquire),
                 Traced});
  C.Out += requestText(Docs, Doc, Id, QueryTag);
  ++R.Attempted;
  int64_t Late = nowNs() - DueNs;
  if (Late > R.MaxLateNs)
    R.MaxLateNs = Late;
  if (!flush(C, Ep, Idx))
    reconnect(C, Ep, Idx, R, "send failed");
}

void Generator::reconnect(Conn &C, int Ep, uint32_t Idx, GenResult &R,
                          const std::string &Why) {
  fail(R, Why + " (" + std::to_string(C.Q.size()) + " outstanding)",
       C.Q.empty() ? 1 : C.Q.size());
  ++R.Reconnects;
  epoll_ctl(Ep, EPOLL_CTL_DEL, C.Fd, nullptr);
  ::close(C.Fd);
  C = Conn();
  C.Fd = connectLoopback(Port);
  if (C.Fd < 0)
    return;
  makeNonBlocking(C.Fd);
  epoll_event E{};
  E.events = EPOLLIN;
  E.data.u32 = Idx;
  epoll_ctl(Ep, EPOLL_CTL_ADD, C.Fd, &E);
}

void Generator::check(const Pending &Pd, const char *Resp, size_t HeadLen,
                      size_t Total, GenResult &R, const GenPhase &P) {
  ++R.Checked;
  std::string_view Head(Resp, HeadLen);
  int Code = 0;
  if (Head.size() > 12 && Head.compare(0, 5, "HTTP/") == 0)
    Code = std::atoi(Resp + 9);
  int64_t Now = nowNs();
  auto completed = [&] {
    ++R.Completed;
    if (!P.Record)
      return;
    double Us = (Now - Pd.DueNs) / 1e3;
    size_t Slice = static_cast<size_t>((Pd.DueNs - RunStartNs) / kSliceNs);
    if (R.SliceUs.size() <= Slice)
      R.SliceUs.resize(Slice + 1);
    R.SliceUs[Slice].add(Us);
    size_t Done = static_cast<size_t>((Now - RunStartNs) / kSliceNs);
    if (R.SliceDone.size() <= Done)
      R.SliceDone.resize(Done + 1);
    ++R.SliceDone[Done];
    if (P.TraceSlices)
      (Pd.Traced ? R.TracedUs : R.UntracedUs).add(Us);
    if (Pd.Traced)
      Log.add("client.request", 0, Pd.Id, Pd.DueNs, Now);
  };
  if (Code == 500 &&
      ((Pd.CanaryGen & 1) ||
       CanaryGen.load(std::memory_order_acquire) != Pd.CanaryGen)) {
    ++R.BadServes;
    completed();
    return;
  }
  const std::string &Want = *Docs.Bodies[Pd.Doc];
  size_t BodyLen = Total - HeadLen;
  std::string Why;
  if (Code != 200)
    Why = "status " + std::to_string(Code);
  else if (headerValue(Head, "Content-Type") != "text/html")
    Why = "content-type";
  else if (BodyLen != Want.size())
    Why = "length " + std::to_string(BodyLen) + " want " +
          std::to_string(Want.size());
  else if (fingerprint(Resp + HeadLen, BodyLen) != Docs.Hashes[Pd.Doc])
    Why = "body mismatch";
  if (!Why.empty()) {
    fail(R, Why + " for " + Docs.Paths[Pd.Doc]);
    return;
  }
  completed();
}

bool Generator::readable(Conn &C, GenResult &R, const GenPhase &P,
                         std::vector<uint32_t> &Freed, uint32_t Idx) {
  // Receive straight into the connection's buffer: a second copy of
  // every body would make the generator's share of each latency depend
  // on memory bandwidth, which the host's other tenants share.
  constexpr size_t Chunk = 1 << 16;
  for (;;) {
    if (C.Off == C.Len)
      C.Off = C.Len = 0;
    if (C.Cap - C.Len < Chunk) {
      size_t Keep = C.Len - C.Off;
      if (C.Cap - Keep >= Chunk) {
        std::memmove(C.In.get(), C.In.get() + C.Off, Keep);
      } else {
        size_t NewCap = std::max(2 * C.Cap, Keep + Chunk);
        std::unique_ptr<char[]> Grown(new char[NewCap]);
        std::memcpy(Grown.get(), C.In.get() + C.Off, Keep);
        C.In = std::move(Grown);
        C.Cap = NewCap;
      }
      C.Len = Keep;
      C.Off = 0;
    }
    ssize_t N = ::recv(C.Fd, C.In.get() + C.Len, C.Cap - C.Len, 0);
    if (N > 0) {
      C.Len += static_cast<size_t>(N);
      if (C.Len < C.Cap)
        break; // the socket is drained
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    return false; // peer closed or error
  }
  for (;;) {
    size_t Avail = C.Len - C.Off;
    if (C.Need == 0) {
      std::string_view V(C.In.get() + C.Off, Avail);
      size_t End = V.find("\r\n\r\n");
      if (End == std::string_view::npos) {
        if (Avail > (1 << 16))
          return false; // no head in 64 KiB: protocol error
        break;
      }
      std::string_view Len =
          headerValue(V.substr(0, End + 2), "Content-Length");
      size_t Body = static_cast<size_t>(std::strtoull(
          std::string(Len).c_str(), nullptr, 10));
      C.HeadLen = End + 4;
      C.Need = C.HeadLen + Body;
    }
    if (Avail < C.Need)
      break;
    if (C.Q.empty())
      return false; // a response nobody asked for
    Pending Pd = C.Q.front();
    C.Q.pop_front();
    check(Pd, C.In.get() + C.Off, C.HeadLen, C.Need, R, P);
    C.Off += C.Need;
    C.Need = 0;
    Freed.push_back(Idx);
  }
  return true;
}

void Generator::loop(const GenPhase &P, GenResult &R) {
  double Cpu0 = cpuUs(RUSAGE_THREAD);
  int Ep = epoll_create1(EPOLL_CLOEXEC);
  for (uint32_t I = 0; I != Conns.size(); ++I) {
    epoll_event E{};
    E.events = EPOLLIN;
    E.data.u32 = I;
    epoll_ctl(Ep, EPOLL_CTL_ADD, Conns[I].Fd, &E);
  }
  int Tfd = -1;
  if (P.Open) {
    Tfd = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    epoll_event E{};
    E.events = EPOLLIN;
    E.data.u32 = kTimerTag;
    epoll_ctl(Ep, EPOLL_CTL_ADD, Tfd, &E);
  }

  const int64_t Start = RunStartNs = nowNs();
  const int64_t End = P.DurationNs ? Start + P.DurationNs : INT64_MAX;
  const int64_t IntervalNs =
      P.Open ? static_cast<int64_t>(1e9 / P.Rate) : 0;
  const uint32_t NConns = static_cast<uint32_t>(Conns.size());
  uint64_t Sent = 0;
  int64_t NextDue = Start;
  int64_t ArmedFor = 0;
  int64_t NextTimeoutScan = Start + kTimeoutNs / 4;
  uint32_t WarmNext = 0;

  auto traced = [&](int64_t Due) {
    return P.TraceSlices && Log.enabled() &&
           ((Due - Start) / kTraceSliceNs) % 2;
  };
  auto pickDoc = [&]() -> uint32_t {
    if (P.WarmAll)
      return WarmNext++;
    return Pick.next();
  };
  auto outstanding = [&] {
    for (const Conn &C : Conns)
      if (!C.Q.empty())
        return true;
    return false;
  };

  if (!P.Open && !P.WarmAll)
    for (uint32_t I = 0; I != NConns; ++I)
      send(Conns[I], Ep, I, pickDoc(), Start, traced(Start), R);

  std::vector<uint32_t> Freed;
  epoll_event Evs[16];
  for (;;) {
    int64_t Now = nowNs();
    bool Stopping = Now >= End || (P.Stop && P.Stop->load()) ||
                    (P.WarmAll && WarmNext >= Docs.size());
    if (P.Open && !Stopping) {
      while (NextDue <= Now && NextDue < End) {
        uint32_t I = static_cast<uint32_t>(Sent % NConns);
        send(Conns[I], Ep, I, pickDoc(), NextDue, traced(NextDue), R);
        ++Sent;
        NextDue = Start + static_cast<int64_t>(Sent) * IntervalNs;
      }
      if (NextDue != ArmedFor && NextDue < End) {
        itimerspec Ts{};
        Ts.it_value.tv_sec = NextDue / 1'000'000'000;
        Ts.it_value.tv_nsec = NextDue % 1'000'000'000;
        timerfd_settime(Tfd, TFD_TIMER_ABSTIME, &Ts, nullptr);
        ArmedFor = NextDue;
      }
    }
    if (Stopping && !outstanding())
      break;
    if (P.WarmAll && !outstanding()) {
      // One request at a time, rotating over the connections (and so
      // over both workers).
      uint32_t J = WarmNext % NConns;
      send(Conns[J], Ep, J, pickDoc(), Now, false, R);
    }
    if (Now >= NextTimeoutScan) {
      NextTimeoutScan = Now + kTimeoutNs / 4;
      for (uint32_t I = 0; I != NConns; ++I)
        if (!Conns[I].Q.empty() &&
            Now - Conns[I].Q.front().DueNs > kTimeoutNs)
          reconnect(Conns[I], Ep, I, R, "response timeout");
    }

    int N = epoll_wait(Ep, Evs, 16, 10);
    for (int K = 0; K < N; ++K) {
      uint32_t I = Evs[K].data.u32;
      if (I == kTimerTag) {
        uint64_t Ticks;
        (void)!::read(Tfd, &Ticks, sizeof(Ticks));
        continue;
      }
      Conn &C = Conns[I];
      if ((Evs[K].events & EPOLLOUT) && !flush(C, Ep, I)) {
        reconnect(C, Ep, I, R, "send failed");
        continue;
      }
      if (Evs[K].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        Freed.clear();
        if (!readable(C, R, P, Freed, I)) {
          reconnect(C, Ep, I, R, "connection lost");
          continue;
        }
        if (!P.Open && !P.WarmAll) {
          for (size_t F = 0; F != Freed.size(); ++F) {
            int64_t T = nowNs();
            if (T >= End || (P.Stop && P.Stop->load()))
              break;
            send(C, Ep, I, pickDoc(), T, traced(T), R);
          }
        }
      }
    }
  }
  if (Tfd >= 0)
    ::close(Tfd);
  ::close(Ep);
  R.CpuUs = cpuUs(RUSAGE_THREAD) - Cpu0;
}
