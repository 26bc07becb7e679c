//===- examples/flashed_live_update.cpp - The paper's headline demo -*- C++ -*-//
///
/// \file
/// FlashEd end to end: an event-driven web server (a one-worker
/// net::ReactorPool) keeps serving while the full P1..P5 patch series is
/// applied at the worker's update point.  This is the PLDI 2001
/// evaluation scenario in one binary: every request before, during and
/// after each update is answered; behaviour changes between requests,
/// never within one.
///
//===----------------------------------------------------------------------===//

#include "flashed/App.h"
#include "flashed/Client.h"
#include "flashed/Patches.h"
#include "net/ReactorPool.h"
#include "runtime/UpdateController.h"

#include <cstdio>
#include <thread>

using namespace dsu;
using namespace dsu::flashed;

namespace {

void show(const char *Label, uint16_t Port, const std::string &Target) {
  Expected<FetchResult> R = httpGet(Port, Target);
  if (!R) {
    std::printf("  %-34s -> error: %s\n", Target.c_str(),
                R.error().str().c_str());
    return;
  }
  std::string FirstLine = R->Headers.substr(0, R->Headers.find('\r'));
  std::printf("  %-34s -> %s  [%zu bytes] (%s)\n", Target.c_str(),
              FirstLine.c_str(), R->Body.size(), Label);
}

} // namespace

int main() {
  Runtime RT;
  FlashedApp App(RT);

  DocStore Docs;
  Docs.put("/index.html", "<html><h1>FlashEd</h1></html>");
  Docs.put("/paper.html", "<html>Dynamic Software Updating</html>");
  Docs.put("/style.css", "h1 { color: teal }");
  cantFail(App.init(std::move(Docs)), "init");

  net::ReactorPool Pool([&App](const RequestHead &Head, std::string_view Raw,
                              std::string &Out, SharedBody &Body) {
    App.handleInto(Head, Raw, Out, Body);
  });
  // The worker's idle point, between requests, is FlashEd's update point.
  Pool.setUpdateRuntime(RT);
  cantFail(Pool.start(), "listen");
  const uint16_t Port = Pool.port();
  std::printf("FlashEd serving on 127.0.0.1:%u\n\n", Port);

  auto applyAndWait = [&](Expected<Patch> P, const char *Name) {
    Patch Patch = cantFail(std::move(P), Name);
    unsigned Want = RT.updatesApplied() + 1;
    // Stage asynchronously on the controller's worker; the reactor
    // worker commits at its next (quiescent) update point.
    RT.controller().stagePatch(std::move(Patch));
    while (RT.updatesApplied() < Want)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    UpdateRecord Rec = RT.updateLog().back();
    std::printf("\n== applied %s (staged %.3fms off-thread: verify %.3f "
                "prepare %.3f build %.3f; serving pause %.3fms%s, %zu "
                "cells)\n",
                Rec.PatchId.c_str(), Rec.StageMs, Rec.VerifyMs,
                Rec.PrepareMs, Rec.BuildMs, Rec.CommitMs,
                Rec.StateRebuilt ? " [state rebuilt]" : "",
                Rec.CellsMigrated);
  };

  std::printf("-- version 1 behaviour\n");
  show("works", Port, "/index.html");
  show("v1 bug: query string defeats lookup", Port,
       "/paper.html?ref=pldi01");
  show("v1: css is octet-stream", Port, "/style.css");

  applyAndWait(makePatchP1(App), "P1");
  show("query strings fixed, server never stopped", Port,
       "/paper.html?ref=pldi01");

  applyAndWait(makePatchP2(App), "P2");
  show("css typed properly now", Port, "/style.css");

  // Warm the cache, then migrate its representation live.
  show("warming cache", Port, "/paper.html");
  applyAndWait(makePatchP3(App), "P3");
  show("served from the *migrated* cache", Port, "/paper.html");
  {
    auto Stats = cantFail(bindUpdateable<std::string()>(
                              RT.updateables(), RT.types(),
                              "flashed.cache_stats"),
                          "cache_stats");
    std::printf("  cache stats (new fn from P3): %s\n", Stats().c_str());
  }

  applyAndWait(makePatchP4(App), "P4");
  applyAndWait(makePatchP5(App), "P5");
  show("still serving after 5 live updates", Port, "/index.html");
  {
    auto Count = cantFail(bindUpdateable<int64_t()>(RT.updateables(),
                                                    RT.types(),
                                                    "flashed.log_count"),
                          "log_count");
    auto Recent = cantFail(bindUpdateable<std::string()>(
                               RT.updateables(), RT.types(),
                               "flashed.log_recent"),
                           "log_recent");
    std::printf("  access log (new subsystem from P5): %lld entries\n",
                static_cast<long long>(Count()));
    std::printf("%s", Recent().c_str());
  }

  std::printf("\ntotal requests served across all versions: %llu\n",
              static_cast<unsigned long long>(Pool.requestsServed()));
  Pool.stop();
  return 0;
}
