//===- replay/Replayer.h - Offline replay of captured regions ---*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.3's replay mechanism: a loader rebuilds a partial process
/// whose memory equals the captured snapshot, then re-executes the hot
/// region under any code version — the original Android binary, the
/// interpreter (for verification/profiling, Section 3.4), or a freshly
/// optimized LLVM binary.
///
/// The loader itself occupies pages at an ASLR-randomized base; captured
/// pages that collide are staged at a free temporary location, the loader's
/// break-free stub releases the loader pages, and the staged pages move to
/// their final addresses — faithfully modelled over the simulated address
/// space, with every step observable for tests. The runtime image is not
/// restored at all: every replay maps the boot's shared image pages
/// (vm::Runtime::runtimeImage, DESIGN.md §19).
///
/// **Replay sessions (fork-server mode, DESIGN.md §16).** With
/// `setSessionMode(true)`, the Replayer keeps one pristine restored
/// address space per capture: the loader runs once, and a snapshot is
/// taken of the final restored layout. Every replay then executes directly against that space and is
/// followed by a dirty-page delta reset (`os::AddressSpace::
/// resetToSnapshot`) that reverts exactly the pages the region wrote.
/// Because the reset restores bit-identical pre-region memory and every
/// replay still gets a fresh `vm::Runtime` (cache simulator, branch
/// predictor, cycle totals), session replays produce byte-identical
/// `CallResult`s and `VerificationMap`s to fresh rebuilds — the session
/// is invisible to every digest. If a capture's content changes under a
/// live session, or the reset is ever impossible (structural address-
/// space change), the session is dropped and rebuilt (`SessionStats::
/// FullRebuilds`, `replay.full_rebuilds`).
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_REPLAY_REPLAYER_H
#define ROPT_REPLAY_REPLAYER_H

#include "capture/Capture.h"
#include "lir/TypeProfile.h"
#include "support/Result.h"
#include "vm/Runtime.h"

#include <functional>
#include <map>
#include <memory>

namespace ropt {
namespace replay {

/// How the region is executed during a replay.
enum class ReplayCode {
  Interpreter, ///< Bytecode interpreter (verification / profiling runs).
  Compiled,    ///< A supplied vm::CodeCache (Android or LLVM binary).
};

/// Loader bookkeeping, exposed for tests and the micro benches.
///
/// Semantics under session mode: loader work happens once per session, so
/// the session-*building* replay reports the full restore (PagesRestored,
/// CollidingPages, ...) and every session-*reusing* replay reports the
/// same cumulative per-session numbers again — the loader work that backs
/// the replay, not work done during it. Sum LoaderStats across replays of
/// one session and you count the build once per replay; use
/// `Replayer::sessionStats()` for cross-replay accounting instead.
struct LoaderStats {
  uint64_t LoaderBase = 0;
  uint64_t CollidingPages = 0; ///< Captured pages staged + relocated.
  uint64_t PagesRestored = 0;
  uint64_t CommonPagesMapped = 0;
};

/// Fork-server accounting across one Replayer's lifetime.
struct SessionStats {
  uint64_t SessionsCreated = 0; ///< Pristine spaces built (loader runs).
  uint64_t SessionReplays = 0;  ///< Replays served from a live session.
  uint64_t FreshReplays = 0;    ///< Replays that rebuilt from scratch
                                ///< (session mode off).
  uint64_t DeltaResets = 0;     ///< Dirty-page reverts between replays.
  uint64_t PagesReverted = 0;   ///< Pages those resets reverted in total.
  uint64_t FullRebuilds = 0;    ///< Sessions dropped: capture changed or
                                ///< the delta reset was impossible.

  SessionStats &operator+=(const SessionStats &O) {
    SessionsCreated += O.SessionsCreated;
    SessionReplays += O.SessionReplays;
    FreshReplays += O.FreshReplays;
    DeltaResets += O.DeltaResets;
    PagesReverted += O.PagesReverted;
    FullRebuilds += O.FullRebuilds;
    return *this;
  }

  double pagesPerReset() const {
    return DeltaResets ? static_cast<double>(PagesReverted) /
                             static_cast<double>(DeltaResets)
                       : 0.0;
  }
};

/// Externally visible behaviour of one region execution: the final values
/// of every heap/static cell the interpreted replay wrote, plus the return
/// value (Section 3.4's verification map).
struct VerificationMap {
  std::map<uint64_t, uint64_t> Cells;
  bool HasReturn = false;
  uint64_t ReturnBits = 0;

  bool empty() const { return Cells.empty() && !HasReturn; }
};

/// Result of one replay.
struct ReplayResult {
  vm::CallResult Result;
  LoaderStats Loader;
};

/// Result of the interpreted verification/profiling replay.
struct InterpretedReplayResult {
  ReplayResult Replay;
  VerificationMap Map;
  lir::TypeProfile Profile;
};

/// Replays captured executions. One Replayer per application; each replay
/// builds a fresh partial process — or, in session mode, reuses a
/// per-capture fork-server process reset between replays.
class Replayer {
public:
  Replayer(const dex::DexFile &File, const vm::NativeRegistry &Natives,
           vm::RuntimeConfig Config, uint64_t AslrSeed = 1);

  /// Replays \p Cap under \p Code (nullptr or Interpreter mode => pure
  /// interpretation). \p Observer, if given, sees the execution's heap
  /// writes and dispatches. A capture whose layout the loader refuses
  /// (see interpretedReplay) runs nothing and reports a MemoryFault trap.
  ReplayResult replay(const capture::Capture &Cap, ReplayCode Mode,
                      const vm::CodeCache *Code,
                      vm::ExecObserver *Observer = nullptr);

  /// The interpreted replay: builds the verification map and the virtual
  /// call-site type profile (Section 3.4). Fails with ReplayCrash /
  /// ReplayTimeout when the interpretation itself traps, and with
  /// CaptureFailed, naming the offending mapping, when the capture's
  /// layout cannot be rebuilt: e.g. a runtime-image mapping other than
  /// exactly [Layout::RuntimeImageBase, +RuntimeImageSize), or a second
  /// one, as a truncated or bit-flipped capture file may carry.
  support::Result<InterpretedReplayResult>
  interpretedReplay(const capture::Capture &Cap);

  /// Replays \p Cap with \p Code and checks the externally visible
  /// behaviour against \p Map. Succeeds only when behaviour matches (same
  /// written cells, same return value, no trap); otherwise the error code
  /// says how it diverged: ReplayCrash, ReplayTimeout, or OutputMismatch
  /// (or CaptureFailed for a layout the loader refuses, as above).
  support::Result<ReplayResult>
  verifiedReplay(const capture::Capture &Cap, const vm::CodeCache &Code,
                 const VerificationMap &Map);

  /// Fork-server replay sessions: keep one restored address space per
  /// capture and delta-reset dirty pages between replays instead of
  /// rebuilding. Off by default — raw Replayer users (tests, loader
  /// benches) see the classic per-replay loader behaviour; evaluation
  /// backends turn it on via SearchOptions::SessionBackends. Turning it
  /// off drops every live session.
  void setSessionMode(bool On);
  bool sessionMode() const { return SessionMode; }

  /// Cross-replay session accounting (see LoaderStats for the
  /// per-replay/per-session split).
  const SessionStats &sessionStats() const { return SessStats; }

  /// Live sessions currently held (tests/benches).
  size_t liveSessions() const { return Sessions.size(); }

  /// The pristine restored space of \p Cap's live session, or nullptr
  /// (tests).
  const os::AddressSpace *sessionSpace(const capture::Capture &Cap) const {
    auto It = Sessions.find(&Cap);
    return It == Sessions.end() ? nullptr : &It->second.Space;
  }

private:
  /// One fork-server process: the restored space snapshot plus the loader
  /// work that built it and a fingerprint to detect capture changes.
  struct Session {
    os::AddressSpace Space;
    LoaderStats Loader;
    uint64_t Fingerprint = 0;
  };

  /// Core replay; \p PostRun (optional) observes the address space after
  /// the region finished, before teardown (or before the session reset).
  support::Result<ReplayResult>
  replayImpl(const capture::Capture &Cap, ReplayCode Mode,
             const vm::CodeCache *Code, vm::ExecObserver *Observer,
             const std::function<void(os::AddressSpace &,
                                      const vm::CallResult &)> &PostRun);

  /// Stages 0-3: check the captured layout, map the boot's shared runtime
  /// image, and run the loader dance until the space holds exactly the
  /// captured layout. Fills \p Loader.
  support::Result<os::AddressSpace>
  buildRestoredSpace(const capture::Capture &Cap, LoaderStats &Loader);

  /// Stage 4: execute the region in \p Space under the chosen code
  /// version with a fresh vm::Runtime; fills \p Out.Result and emits the
  /// per-replay metrics.
  void runRegion(os::AddressSpace &Space, const capture::Capture &Cap,
                 ReplayCode Mode, const vm::CodeCache *Code,
                 vm::ExecObserver *Observer, ReplayResult &Out);

  /// Cheap content signature used to notice a capture changing in place
  /// under a live session.
  static uint64_t captureFingerprint(const capture::Capture &Cap);

  const dex::DexFile &File;
  const vm::NativeRegistry &Natives;
  vm::RuntimeConfig Config;
  Rng AslrRng;

  bool SessionMode = false;
  std::map<const capture::Capture *, Session> Sessions;
  SessionStats SessStats;
};

} // namespace replay
} // namespace ropt

#endif // ROPT_REPLAY_REPLAYER_H
