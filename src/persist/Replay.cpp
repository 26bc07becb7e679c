//===- persist/Replay.cpp -------------------------------------*- C++ -*-===//

#include "persist/Replay.h"

#include "core/Runtime.h"
#include "support/FaultInject.h"
#include "support/Logging.h"
#include "support/Timer.h"

using namespace dsu;
using namespace dsu::persist;

ReplayStats persist::replayJournal(Runtime &RT, UpdateJournal &J) {
  ReplayStats Stats;
  Timer Total;
  std::vector<ChainEntry> Chain = J.committedChain();

  for (const ChainEntry &E : Chain) {
    ++Stats.Attempted;
    auto Failed = [&](const Error &Err) {
      ++Stats.Failed;
      Stats.FailedIds.push_back(E.PatchId);
      DSU_LOG_WARN("replay: chain entry %s (%s) not reapplied: %s",
                   E.PatchId.c_str(), E.Hash.c_str(), Err.str().c_str());
    };

    Expected<std::string> Text = J.readArtifact(E.Hash);
    if (!Text) {
      // No replay Intent exists yet, so seal nothing; the operator
      // intent stays Committed and the next boot retries.
      Failed(Text.error());
      continue;
    }

    // Two-phase, same as a live update: the replay Intent is on disk
    // before the pipeline runs, so a crash anywhere below is sealed
    // Crashed at the next boot and counted against the hash.
    Expected<uint64_t> Seq =
        J.appendIntent(E.PatchId, *Text, IntentOrigin::Replay);
    if (!Seq) {
      Failed(Seq.error());
      continue;
    }
    faultinject::maybeCrash(faultinject::CrashPoint::MidReplay, E.PatchId);

    Expected<Patch> P = loadVtalPatch(RT.types(), RT.exports(), *Text,
                                      "journal:" + E.Hash);
    if (!P) {
      Error Err = P.takeError().withContext("replaying " + E.PatchId);
      (void)J.appendSeal(*Seq, SealOutcome::RolledBack, "", Err.str());
      Failed(Err);
      continue;
    }

    // stage() pins the Intent's sequence number on the
    // transaction before staging begins, so Runtime::finalize seals
    // this Intent whatever the outcome — stage failure, commit
    // failure, or Committed.
    Expected<StagedUpdate> U = RT.stage(std::move(*P), *Seq);
    if (!U) {
      Failed(U.error()); // finalize already sealed RolledBack
      continue;
    }
    if (Error CE = U->commit()) {
      Failed(CE); // finalize already sealed RolledBack
      continue;
    }
    ++Stats.Committed;
  }

  Stats.DurationMs = static_cast<uint64_t>(Total.elapsedMs());
  J.noteReplay(Stats.Attempted, Stats.Committed, Stats.Failed,
               Stats.DurationMs);
  if (Stats.Attempted)
    DSU_LOG_INFO("replay: %u/%u chain entries reapplied in %llums%s",
                 Stats.Committed, Stats.Attempted,
                 static_cast<unsigned long long>(Stats.DurationMs),
                 Stats.Failed ? " (failures sealed rolled-back)" : "");
  return Stats;
}
