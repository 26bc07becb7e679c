//===- trace/Trace.cpp - Update-pipeline flight recorder ------------------===//

#include "trace/Trace.h"

#include "support/StringUtil.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <string_view>

using namespace dsu;
using namespace dsu::trace;

// --- Thread-local update id ---------------------------------------------

namespace {
thread_local uint64_t CurUpdateId = 0;
} // namespace

uint64_t dsu::trace::currentUpdateId() { return CurUpdateId; }

ScopedUpdateId::ScopedUpdateId(uint64_t Id) : Prev(CurUpdateId) {
  CurUpdateId = Id;
}

ScopedUpdateId::~ScopedUpdateId() { CurUpdateId = Prev; }

// --- Recorder -----------------------------------------------------------

static uint64_t steadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Recorder::Recorder() : EpochNs(steadyNowNs()) {}

Recorder &Recorder::instance() {
  static Recorder *R = new Recorder(); // leaked: threads may record at exit
  return *R;
}

uint64_t Recorder::nowUs() const { return (steadyNowNs() - EpochNs) / 1000; }

namespace dsu {
namespace trace {
/// Thread-exit hook: returns the thread's ring to the free pool so a
/// later thread reuses it instead of growing the registry.
struct RingHandle {
  Recorder::Ring *R = nullptr;
  ~RingHandle() {
    if (R)
      Recorder::instance().releaseRing(R);
  }
};
} // namespace trace
} // namespace dsu

namespace {
thread_local RingHandle MyRing;
} // namespace

Recorder::Ring *Recorder::acquireRing() {
  std::lock_guard<std::mutex> L(RegMu);
  for (std::unique_ptr<Ring> &R : Rings) {
    bool Expected = false;
    if (R->InUse.compare_exchange_strong(Expected, true))
      return R.get();
  }
  Rings.push_back(
      std::make_unique<Ring>(static_cast<uint32_t>(Rings.size() + 1)));
  return Rings.back().get();
}

void Recorder::releaseRing(Ring *R) {
  // The ring's events stay snapshottable; only the write cursor's
  // ownership is handed to the next thread that acquires it.
  R->InUse.store(false, std::memory_order_release);
}

void Recorder::record(EventKind K, const char *Cat, const char *Name,
                      uint64_t StartUs, uint64_t DurUs, uint64_t UpdateId,
                      uint64_t Arg) {
  if (!MyRing.R)
    MyRing.R = acquireRing(); // once per thread; hot path is alloc-free
  Ring &R = *MyRing.R;
  uint64_t Idx =
      R.Next.fetch_add(1, std::memory_order_relaxed) % SlotsPerThread;
  Slot &S = R.Slots[Idx];
  // Per-slot seqlock: invalidate, fill, publish.  The single writer is
  // this thread; concurrent snapshot() readers skip Seq==0 slots and
  // retry on a serial change.
  S.Seq.store(0, std::memory_order_release);
  S.Category.store(Cat, std::memory_order_relaxed);
  S.Name.store(Name, std::memory_order_relaxed);
  S.StartUs.store(StartUs, std::memory_order_relaxed);
  S.DurUs.store(DurUs, std::memory_order_relaxed);
  S.UpdateId.store(UpdateId, std::memory_order_relaxed);
  S.Arg.store(Arg, std::memory_order_relaxed);
  S.Kind.store(static_cast<uint8_t>(K), std::memory_order_relaxed);
  S.Seq.store(Serial.fetch_add(1, std::memory_order_relaxed) + 1,
              std::memory_order_release);
}

void Recorder::complete(const char *Cat, const char *Name, uint64_t StartUs,
                        uint64_t DurUs, uint64_t Arg) {
  record(EventKind::Complete, Cat, Name, StartUs, DurUs, CurUpdateId, Arg);
}

void Recorder::instant(const char *Cat, const char *Name, uint64_t Arg) {
  record(EventKind::Instant, Cat, Name, nowUs(), 0, CurUpdateId, Arg);
}

void Recorder::begin(const char *Cat, const char *Name, uint64_t UpdateId,
                     uint64_t Arg) {
  record(EventKind::Begin, Cat, Name, nowUs(), 0, UpdateId, Arg);
}

void Recorder::end(const char *Cat, const char *Name, uint64_t UpdateId,
                   uint64_t Arg) {
  record(EventKind::End, Cat, Name, nowUs(), 0, UpdateId, Arg);
}

std::vector<EventCopy> Recorder::snapshot() const {
  std::vector<EventCopy> Out;
  std::lock_guard<std::mutex> L(RegMu);
  for (const std::unique_ptr<Ring> &R : Rings) {
    for (const Slot &S : R->Slots) {
      for (int Try = 0; Try != 3; ++Try) {
        uint64_t Seq1 = S.Seq.load(std::memory_order_acquire);
        if (Seq1 == 0)
          break; // empty or mid-write; the writer will republish
        EventCopy E;
        E.Serial = Seq1;
        E.Category = S.Category.load(std::memory_order_relaxed);
        E.Name = S.Name.load(std::memory_order_relaxed);
        E.StartUs = S.StartUs.load(std::memory_order_relaxed);
        E.DurUs = S.DurUs.load(std::memory_order_relaxed);
        E.UpdateId = S.UpdateId.load(std::memory_order_relaxed);
        E.Arg = S.Arg.load(std::memory_order_relaxed);
        E.Tid = R->Tid;
        E.Kind = static_cast<EventKind>(S.Kind.load(std::memory_order_relaxed));
        if (S.Seq.load(std::memory_order_acquire) == Seq1) {
          Out.push_back(E);
          break;
        }
      }
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const EventCopy &A, const EventCopy &B) {
              return A.Serial < B.Serial;
            });
  return Out;
}

uint64_t Recorder::dropped() const {
  uint64_t D = 0;
  std::lock_guard<std::mutex> L(RegMu);
  for (const std::unique_ptr<Ring> &R : Rings) {
    uint64_t N = R->Next.load(std::memory_order_relaxed);
    if (N > SlotsPerThread)
      D += N - SlotsPerThread;
  }
  return D;
}

void Recorder::clear() {
  std::lock_guard<std::mutex> L(RegMu);
  for (const std::unique_ptr<Ring> &R : Rings)
    for (Slot &S : R->Slots)
      S.Seq.store(0, std::memory_order_release);
}

// --- String interning ---------------------------------------------------

const char *dsu::trace::intern(const std::string &S) {
  static std::mutex Mu;
  static std::deque<std::string> Pool; // deque: stable element addresses
  std::lock_guard<std::mutex> L(Mu);
  for (const std::string &P : Pool)
    if (P == S)
      return P.c_str();
  Pool.push_back(S);
  return Pool.back().c_str();
}

// --- Phase histograms ---------------------------------------------------

const char *dsu::trace::phaseName(Phase P) {
  switch (P) {
  case Phase::Analysis:
    return "analysis";
  case Phase::Verify:
    return "verify";
  case Phase::LinkPrepare:
    return "link_prepare";
  case Phase::StateBuild:
    return "state_build";
  case Phase::QueueWait:
    return "queue_wait";
  case Phase::Commit:
    return "commit";
  case Phase::BarrierPark:
    return "barrier_park";
  case Phase::RollingAdopt:
    return "rolling_adopt";
  case Phase::JournalIntent:
    return "journal_intent";
  case Phase::JournalSeal:
    return "journal_seal";
  case Phase::NumPhases:
    break;
  }
  return "?";
}

LatencyHistogram &dsu::trace::phaseHistogram(Phase P) {
  static LatencyHistogram H[static_cast<unsigned>(Phase::NumPhases)];
  return H[static_cast<unsigned>(P)];
}

void dsu::trace::notePhase(Phase P, uint64_t Us) {
  phaseHistogram(P).note(Us);
}

// --- JSON views ---------------------------------------------------------

namespace {

struct SpanNode {
  const EventCopy *E;
  uint64_t EndUs; ///< StartUs + DurUs (synthesized for Begin/End pairs)
  std::vector<size_t> Children;
};

void appendSpanJson(std::string &Out, const std::vector<SpanNode> &Nodes,
                    size_t I) {
  const SpanNode &N = Nodes[I];
  const char *KindName = N.E->Kind == EventKind::Instant
                             ? "instant"
                             : (N.E->Kind == EventKind::Begin ? "interval"
                                                              : "span");
  Out += "{\"category\":\"";
  jsonEscapeTo(Out, N.E->Category);
  Out += "\",\"name\":\"";
  jsonEscapeTo(Out, N.E->Name);
  Out += formatString("\",\"kind\":\"%s\",\"tid\":%u,\"start_us\":%llu,"
                      "\"dur_us\":%llu,\"arg\":%llu",
                      KindName, N.E->Tid,
                      static_cast<unsigned long long>(N.E->StartUs),
                      static_cast<unsigned long long>(N.EndUs - N.E->StartUs),
                      static_cast<unsigned long long>(N.E->Arg));
  if (!N.Children.empty()) {
    Out += ",\"children\":[";
    for (size_t C = 0; C != N.Children.size(); ++C) {
      if (C)
        Out += ',';
      appendSpanJson(Out, Nodes, N.Children[C]);
    }
    Out += ']';
  }
  Out += '}';
}

} // namespace

std::string dsu::trace::spanTreeJson(uint64_t UpdateId) {
  Recorder &R = Recorder::instance();
  std::vector<EventCopy> All = R.snapshot();

  // The update's own events, plus synthesized spans for Begin/End pairs
  // (paired by category+name in publication order; an unmatched Begin
  // becomes an open interval ending now).
  std::vector<EventCopy> Mine;
  std::vector<std::pair<EventCopy, uint64_t>> Intervals; // (begin, end-us)
  for (const EventCopy &E : All) {
    if (E.UpdateId != UpdateId)
      continue;
    if (E.Kind == EventKind::Begin) {
      Intervals.emplace_back(E, 0);
    } else if (E.Kind == EventKind::End) {
      for (auto It = Intervals.rbegin(); It != Intervals.rend(); ++It)
        if (It->second == 0 && std::string_view(It->first.Category) ==
                                   E.Category &&
            std::string_view(It->first.Name) == E.Name) {
          It->second = E.StartUs;
          break;
        }
    } else {
      Mine.push_back(E);
    }
  }
  uint64_t Now = R.nowUs();
  for (std::pair<EventCopy, uint64_t> &IV : Intervals) {
    EventCopy E = IV.first;
    uint64_t EndUs = IV.second ? IV.second : Now;
    E.DurUs = EndUs > E.StartUs ? EndUs - E.StartUs : 0;
    Mine.push_back(E);
  }

  // Nest by time containment per thread (cross-thread intervals nest at
  // the root).  Sort outermost-first: earlier start, then longer.
  std::vector<SpanNode> Nodes;
  Nodes.reserve(Mine.size());
  std::sort(Mine.begin(), Mine.end(),
            [](const EventCopy &A, const EventCopy &B) {
              if (A.StartUs != B.StartUs)
                return A.StartUs < B.StartUs;
              if (A.DurUs != B.DurUs)
                return A.DurUs > B.DurUs;
              return A.Serial < B.Serial;
            });
  for (const EventCopy &E : Mine)
    Nodes.push_back(SpanNode{&E, E.StartUs + E.DurUs, {}});

  // One ancestor stack per thread; a node nests under the deepest
  // same-thread Complete span that time-contains it, else it is a root.
  // Synthesized Begin/End intervals may straddle threads, so they can
  // be children but never parents.
  std::vector<size_t> Roots;
  std::map<uint32_t, std::vector<size_t>> Stacks;
  for (size_t I = 0; I != Nodes.size(); ++I) {
    const EventCopy &E = *Nodes[I].E;
    uint64_t EndUs = Nodes[I].EndUs;
    std::vector<size_t> &St = Stacks[E.Tid];
    while (!St.empty()) {
      const SpanNode &Top = Nodes[St.back()];
      if (E.StartUs >= Top.E->StartUs && EndUs <= Top.EndUs)
        break; // contained: Top is the parent
      St.pop_back();
    }
    if (!St.empty())
      Nodes[St.back()].Children.push_back(I);
    else
      Roots.push_back(I);
    if (E.Kind == EventKind::Complete)
      St.push_back(I);
  }

  std::string Out = formatString(
      "{\"update\":%llu,\"events\":%zu,\"dropped\":%llu,\"spans\":[",
      static_cast<unsigned long long>(UpdateId), Mine.size(),
      static_cast<unsigned long long>(R.dropped()));
  for (size_t I = 0; I != Roots.size(); ++I) {
    if (I)
      Out += ',';
    appendSpanJson(Out, Nodes, Roots[I]);
  }
  Out += "]}";
  return Out;
}

std::string dsu::trace::chromeTraceJson(uint64_t FilterUpdateId) {
  std::vector<EventCopy> All = Recorder::instance().snapshot();
  std::string Out = "{\"traceEvents\":[";
  bool First = true;
  for (const EventCopy &E : All) {
    if (FilterUpdateId && E.UpdateId != FilterUpdateId)
      continue;
    const char *Ph = "X";
    switch (E.Kind) {
    case EventKind::Complete:
      Ph = "X";
      break;
    case EventKind::Instant:
      Ph = "i";
      break;
    case EventKind::Begin:
      Ph = "b";
      break;
    case EventKind::End:
      Ph = "e";
      break;
    }
    if (!First)
      Out += ',';
    First = false;
    Out += formatString("{\"ph\":\"%s\",\"pid\":1,\"tid\":%u,\"ts\":%llu",
                        Ph, E.Tid,
                        static_cast<unsigned long long>(E.StartUs));
    if (E.Kind == EventKind::Complete)
      Out += formatString(",\"dur\":%llu",
                          static_cast<unsigned long long>(E.DurUs));
    if (E.Kind == EventKind::Instant)
      Out += ",\"s\":\"t\"";
    if (E.Kind == EventKind::Begin || E.Kind == EventKind::End)
      Out += formatString(",\"id\":%llu",
                          static_cast<unsigned long long>(E.UpdateId));
    Out += ",\"cat\":\"";
    jsonEscapeTo(Out, E.Category);
    Out += "\",\"name\":\"";
    jsonEscapeTo(Out, E.Name);
    Out += formatString(
        "\",\"args\":{\"update\":%llu,\"arg\":%llu}}",
        static_cast<unsigned long long>(E.UpdateId),
        static_cast<unsigned long long>(E.Arg));
  }
  Out += "]}";
  return Out;
}
