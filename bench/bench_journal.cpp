//===- bench/bench_journal.cpp - Durable journal costs --------------------===//
///
/// What does crash safety cost?  Two numbers matter:
///
///   1. Append latency — the fsync'd Intent+Seal pair added to every
///      operator update's staging path (measured with Sync on and off,
///      so the fdatasync share is visible).
///   2. Replay time — how long a restarted server spends rebuilding its
///      committed chain through the ordinary stage->commit pipeline
///      before the listeners open, as a function of chain length.
///
/// Usage: bench_journal [--json] [--out FILE] [--merge FILE]
///                      [--appends N] [--chains N]
///
/// `--merge BENCH_update.json` splices a "journal" object into the
/// existing report so one file tracks the whole update-path trajectory.

#include "core/Runtime.h"
#include "flashed/App.h"
#include "flashed/DocStore.h"
#include "patch/PatchLoader.h"
#include "persist/Journal.h"
#include "persist/Replay.h"
#include "support/Error.h"
#include "support/MemoryBuffer.h"
#include "support/StringUtil.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace dsu;
using namespace dsu::flashed;

namespace {

std::string mimePatch(unsigned I) {
  return formatString(R"dsu(
(patch
  (id "bench-journal-%u")
  (description "bench: mime_type constant %u")
  (provides
    (fn (name "flashed.mime_type")
        (type "fn(string) -> string")
        (vtal-fn "mime_type")))
  (vtal-module
"module bench_journal
func mime_type (path: string) -> string {
  push.s \"text/x-bench-%u\"
  ret
}"))
)dsu",
                      I, I, I);
}

std::string freshDir(const std::string &Name) {
  std::string D = "/tmp/dsu_bench_journal_" + Name;
  std::system(("rm -rf '" + D + "'").c_str());
  return D;
}

struct AppendStats {
  bool Sync = false;
  RunningStat IntentUs, SealUs;
};

/// N Intent+Seal pairs against one journal; the artifact text is
/// identical every round so the content-addressed store is written once
/// and the numbers isolate the log append (+ fdatasync when \p Sync).
AppendStats benchAppend(unsigned N, bool Sync) {
  AppendStats St;
  St.Sync = Sync;
  std::string Dir = freshDir(Sync ? "append_sync" : "append_nosync");
  persist::UpdateJournal::Options O;
  O.Sync = Sync;
  std::unique_ptr<persist::UpdateJournal> J =
      cantFail(persist::UpdateJournal::open(Dir, O), "open journal");
  J->beginBoot("");
  std::string Art = mimePatch(0);
  for (unsigned I = 0; I != N; ++I) {
    Timer T;
    uint64_t Seq = cantFail(
        J->appendIntent("bench-journal-0", Art,
                        persist::IntentOrigin::Operator),
        "append intent");
    St.IntentUs.addSample(T.elapsedNs() / 1e3);
    T.reset();
    cantFail(J->appendSeal(Seq, persist::SealOutcome::Committed, "rolling",
                           ""),
             "append seal");
    St.SealUs.addSample(T.elapsedNs() / 1e3);
  }
  cantFail(J->sealCleanShutdown(), "clean shutdown");
  return St;
}

struct ReplayPoint {
  unsigned Chain = 0;
  double Ms = 0;
};

/// Builds a committed chain of length \p L through the real pipeline,
/// closes the journal, then measures a cold-boot replay into a fresh
/// runtime.  Distinct patch bodies per link keep every artifact hash —
/// and therefore every store read — distinct.
ReplayPoint benchReplay(unsigned L) {
  std::string Dir = freshDir(formatString("replay_%u", L));
  persist::UpdateJournal::Options O;
  O.Sync = false;
  {
    std::unique_ptr<persist::UpdateJournal> J =
        cantFail(persist::UpdateJournal::open(Dir, O), "open journal");
    J->beginBoot("");
    Runtime RT;
    FlashedApp App(RT);
    DocStore Docs;
    Docs.put("/doc.html", "<html>bench</html>");
    cantFail(App.init(std::move(Docs)), "app init");
    RT.attachJournal(J.get());
    for (unsigned I = 0; I != L; ++I) {
      std::string Art = mimePatch(I);
      uint64_t Seq = cantFail(
          J->appendIntent(formatString("bench-journal-%u", I), Art,
                          persist::IntentOrigin::Operator),
          "append intent");
      Patch P = cantFail(loadVtalPatch(RT.types(), RT.exports(), Art,
                                       "bench_journal"),
                         "load patch");
      StagedUpdate U =
          cantFail(RT.stage(std::move(P), Seq), "stage");
      cantFail(U.commit(), "commit");
    }
    cantFail(J->sealCleanShutdown(), "clean shutdown");
    RT.attachJournal(nullptr);
  }

  std::unique_ptr<persist::UpdateJournal> J =
      cantFail(persist::UpdateJournal::open(Dir, O), "reopen journal");
  J->beginBoot("");
  Runtime RT;
  FlashedApp App(RT);
  DocStore Docs;
  Docs.put("/doc.html", "<html>bench</html>");
  cantFail(App.init(std::move(Docs)), "app init");
  RT.attachJournal(J.get());

  Timer T;
  persist::ReplayStats St = persist::replayJournal(RT, *J);
  ReplayPoint Pt;
  Pt.Chain = L;
  Pt.Ms = T.elapsedNs() / 1e6;
  RT.attachJournal(nullptr);
  if (St.Committed != L) {
    std::fprintf(stderr, "bench_journal: replay committed %u of %u\n",
                 St.Committed, L);
    std::exit(1);
  }
  return Pt;
}

std::string appendJson(const std::vector<AppendStats> &Appends,
                       const std::vector<ReplayPoint> &Replays) {
  std::string Rows;
  for (const AppendStats &A : Appends) {
    if (!Rows.empty())
      Rows += ",\n";
    Rows += formatString(
        "    {\"mode\": \"%s\", \"samples\": %zu, "
        "\"intent_mean_us\": %.2f, \"intent_p50_us\": %.2f, "
        "\"intent_p99_us\": %.2f, \"intent_max_us\": %.2f, "
        "\"seal_mean_us\": %.2f, \"seal_p99_us\": %.2f}",
        A.Sync ? "fsync" : "nosync", A.IntentUs.count(), A.IntentUs.mean(),
        A.IntentUs.percentile(50), A.IntentUs.percentile(99),
        A.IntentUs.max(), A.SealUs.mean(), A.SealUs.percentile(99));
  }
  std::string RRows;
  for (const ReplayPoint &R : Replays) {
    if (!RRows.empty())
      RRows += ",\n";
    RRows += formatString(
        "    {\"chain\": %u, \"replay_ms\": %.3f, \"per_patch_ms\": %.3f}",
        R.Chain, R.Ms, R.Chain ? R.Ms / R.Chain : 0.0);
  }
  return "{\n  \"append\": [\n" + Rows + "\n  ],\n  \"replay\": [\n" +
         RRows + "\n  ]\n}";
}

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  std::string OutFile, MergeFile;
  uint64_t Appends = 512, Chains = 32;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    const char *P = I + 1 < argc ? argv[I + 1] : nullptr;
    if (A == "--json")
      Json = true;
    else if (A == "--out" && P)
      OutFile = argv[++I];
    else if (A == "--merge" && P)
      MergeFile = argv[++I];
    else if (A == "--appends" && P && parseUInt(argv[I + 1], Appends))
      ++I;
    else if (A == "--chains" && P && parseUInt(argv[I + 1], Chains))
      ++I;
    else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--out FILE] [--merge FILE] "
                   "[--appends N] [--chains N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!Appends || !Chains) {
    std::fprintf(stderr, "bench_journal: --appends/--chains must be > 0\n");
    return 2;
  }

  std::vector<AppendStats> Appended;
  Appended.push_back(benchAppend(static_cast<unsigned>(Appends), true));
  Appended.push_back(benchAppend(static_cast<unsigned>(Appends), false));

  std::vector<ReplayPoint> Replays;
  for (unsigned L : {1u, 8u, 32u})
    if (L < Chains)
      Replays.push_back(benchReplay(L));
  Replays.push_back(benchReplay(static_cast<unsigned>(Chains)));

  if (!Json) {
    std::printf("update journal: append latency (%llu appends each)\n",
                static_cast<unsigned long long>(Appends));
    for (const AppendStats &A : Appended)
      std::printf("  %-7s intent mean %8.2fus  p50 %8.2fus  p99 %8.2fus"
                  "  max %8.2fus | seal mean %8.2fus  p99 %8.2fus\n",
                  A.Sync ? "fsync" : "nosync", A.IntentUs.mean(),
                  A.IntentUs.percentile(50), A.IntentUs.percentile(99),
                  A.IntentUs.max(), A.SealUs.mean(),
                  A.SealUs.percentile(99));
    std::printf("update journal: boot-time replay\n");
    for (const ReplayPoint &R : Replays)
      std::printf("  chain %3u  replay %8.3fms  (%.3fms/patch)\n", R.Chain,
                  R.Ms, R.Chain ? R.Ms / R.Chain : 0.0);
    return 0;
  }

  std::string J = appendJson(Appended, Replays);
  if (!MergeFile.empty()) {
    // Splice into an existing report: "...}" -> "..., "journal": {...}}".
    Expected<std::string> Existing = readFile(MergeFile);
    if (!Existing) {
      std::fprintf(stderr, "bench_journal: cannot merge into %s: %s\n",
                   MergeFile.c_str(), Existing.error().str().c_str());
      return 1;
    }
    size_t Close = Existing->rfind('}');
    if (Close == std::string::npos) {
      std::fprintf(stderr, "bench_journal: %s is not a JSON object\n",
                   MergeFile.c_str());
      return 1;
    }
    std::string Merged = Existing->substr(0, Close);
    while (!Merged.empty() &&
           (Merged.back() == '\n' || Merged.back() == ' '))
      Merged.pop_back();
    Merged += ",\n  \"journal\": ";
    // Re-indent the journal object to sit one level deep.
    for (char C : J) {
      Merged += C;
      if (C == '\n')
        Merged += "  ";
    }
    Merged += "\n}\n";
    if (Error E = writeFile(MergeFile, Merged)) {
      std::fprintf(stderr, "bench_journal: %s\n", E.str().c_str());
      return 1;
    }
    std::printf("merged journal bench into %s\n", MergeFile.c_str());
    return 0;
  }
  if (!OutFile.empty()) {
    if (Error E = writeFile(OutFile, J + "\n")) {
      std::fprintf(stderr, "bench_journal: %s\n", E.str().c_str());
      return 1;
    }
    std::printf("wrote %s\n", OutFile.c_str());
    return 0;
  }
  std::printf("%s\n", J.c_str());
  return 0;
}
