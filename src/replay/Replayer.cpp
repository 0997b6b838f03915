//===- replay/Replayer.cpp - Offline replay of captured regions -------------===//

#include "replay/Replayer.h"

#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <optional>
#include <set>

using namespace ropt;
using namespace ropt::replay;
using os::AddressSpace;
using os::Mapping;
using os::MappingKind;
using os::PageSize;

Replayer::Replayer(const dex::DexFile &File,
                   const vm::NativeRegistry &Natives,
                   vm::RuntimeConfig Config, uint64_t AslrSeed)
    : File(File), Natives(Natives), Config(Config), AslrRng(AslrSeed) {}

namespace {

/// Size of the loader's own footprint (stack, code, scratch).
constexpr uint64_t LoaderPages = 24;

/// Finds a page-aligned area of \p Pages pages not used by any captured
/// mapping, scanning upward from \p From.
uint64_t findFreeArea(const capture::Capture &Cap, uint64_t From,
                      uint64_t Pages) {
  uint64_t Addr = os::pageBase(From);
  for (;;) {
    bool Clear = true;
    for (const Mapping &M : Cap.Mappings) {
      uint64_t End = Addr + Pages * PageSize;
      if (Addr < M.End && M.Start < End) {
        Clear = false;
        Addr = M.End;
        break;
      }
    }
    if (Clear)
      return Addr;
  }
}

/// Captures are read back from storage, so the loader assumes nothing a
/// truncated or bit-flipped file could break: the entry must name a real
/// method with its arity; mappings must be page-aligned, non-empty, sorted,
/// disjoint and inside the simulated 4 GiB address space; at most one may
/// be the runtime image, and it must cover exactly the range the shared
/// image pages fill; every captured page must be one whole page inside a
/// mapping. Returns the first violation, naming the offending mapping.
std::optional<support::Error> checkLayout(const capture::Capture &Cap,
                                          const dex::DexFile &File) {
  auto Fail = [](std::string Message) {
    return support::Error{support::ErrorCode::CaptureFailed,
                          std::move(Message)};
  };
  auto Describe = [](const Mapping &M) {
    return format("capture mapping '%s' [%#llx, %#llx)", M.Name.c_str(),
                  static_cast<unsigned long long>(M.Start),
                  static_cast<unsigned long long>(M.End));
  };

  if (Cap.Root >= File.methods().size())
    return Fail(format("capture root method %u is not in the dex file",
                       Cap.Root));
  if (Cap.Args.size() != File.method(Cap.Root).ParamCount)
    return Fail(format("capture passes %zu arguments to method %u, which "
                       "takes %u",
                       Cap.Args.size(), Cap.Root,
                       static_cast<unsigned>(
                           File.method(Cap.Root).ParamCount)));

  constexpr uint64_t AddressLimit = 1ULL << 32;
  bool SeenImage = false;
  uint64_t PrevEnd = 0;
  for (const Mapping &M : Cap.Mappings) {
    if (M.Start != os::pageBase(M.Start) || M.End != os::pageBase(M.End) ||
        M.Start >= M.End || M.End > AddressLimit)
      return Fail(Describe(M) + " is not a page-aligned range below 4 GiB");
    if (M.Start < PrevEnd)
      return Fail(Describe(M) + " overlaps the mapping before it");
    PrevEnd = M.End;
    if (M.Kind != MappingKind::RuntimeImage)
      continue;
    if (SeenImage)
      return Fail(Describe(M) + " is a second runtime-image mapping");
    if (M.Start != vm::Layout::RuntimeImageBase ||
        M.sizeBytes() != vm::Layout::RuntimeImageSize)
      return Fail(format(
          "%s is not the runtime image range [%#llx, %#llx)",
          Describe(M).c_str(),
          static_cast<unsigned long long>(vm::Layout::RuntimeImageBase),
          static_cast<unsigned long long>(vm::Layout::RuntimeImageBase +
                                          vm::Layout::RuntimeImageSize)));
    SeenImage = true;
  }

  for (const capture::PageRecord &P : Cap.Pages) {
    bool Inside =
        std::any_of(Cap.Mappings.begin(), Cap.Mappings.end(),
                    [&P](const Mapping &M) { return M.contains(P.Addr); });
    if (P.Addr != os::pageBase(P.Addr) || !P.Page || !Inside)
      return Fail(format("captured page %#llx is not one whole page inside "
                         "a capture mapping",
                         static_cast<unsigned long long>(P.Addr)));
  }
  return std::nullopt;
}

/// Observer that collects the verification map's write set and the type
/// profile during the interpreted replay.
class RecordingObserver : public vm::ExecObserver {
public:
  std::set<uint64_t> WrittenCells;
  lir::TypeProfile Profile;

  void onCellWrite(uint64_t Addr) override { WrittenCells.insert(Addr); }
  void onVirtualDispatch(dex::MethodId Caller, uint32_t Pc,
                         dex::ClassId Receiver) override {
    Profile.record(Caller, Pc, Receiver);
  }
};

} // namespace

// Cells is address-ordered, so runs of cells on one page share one
// page-table lookup.
bool replay::cellsMatch(const AddressSpace &Space, const CellList &Cells) {
  uint64_t Page = ~0ULL;
  bool Mapped = false;
  const uint8_t *Bytes = nullptr;
  for (const auto &[Addr, Expected] : Cells) {
    uint64_t Bits = 0;
    uint64_t Offset = Addr & (PageSize - 1);
    if (Offset + sizeof(Bits) > PageSize) {
      // Straddles two pages: only a corrupted map holds such a cell.
      if (!Space.peek(Addr, &Bits, sizeof(Bits)))
        return false;
    } else {
      if (os::pageNumber(Addr) != Page) {
        Page = os::pageNumber(Addr);
        Mapped = Space.pageBytes(Addr, Bytes);
      }
      if (!Mapped)
        return false;
      if (Bytes)
        std::memcpy(&Bits, Bytes + Offset, sizeof(Bits));
    }
    if (Bits != Expected)
      return false;
  }
  return true;
}

uint64_t Replayer::captureFingerprint(const capture::Capture &Cap) {
  // FNV-1a over the capture's structure and its pages' identities: a
  // capture changed under a live session must not replay against stale
  // session memory. A captured page never changes, so an edit replaces
  // it, and the session still holds the page it mapped, so the new one
  // cannot have the old one's address: the check is exact. Cost is
  // O(pages), paid once per session replay, not per instruction.
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ULL;
  };
  Mix(Cap.BootId);
  Mix(Cap.Root);
  Mix(Cap.Args.size());
  for (const vm::Value &A : Cap.Args)
    Mix(A.Raw);
  Mix(Cap.Mappings.size());
  for (const Mapping &M : Cap.Mappings) {
    Mix(M.Start);
    Mix(M.End);
    Mix(static_cast<uint64_t>(M.Kind));
  }
  Mix(Cap.Pages.size());
  for (const capture::PageRecord &P : Cap.Pages) {
    Mix(P.Addr);
    Mix(reinterpret_cast<uintptr_t>(P.Page.get()));
  }
  return H;
}

support::Result<AddressSpace>
Replayer::buildRestoredSpace(const capture::Capture &Cap,
                             LoaderStats &Loader) {
  if (std::optional<support::Error> Bad = checkLayout(Cap, File))
    return std::move(*Bad);
  AddressSpace Space;

  // --- Stage 0: the loader occupies an ASLR-randomized base, chosen
  // below the runtime image so it never lands on image pages but can
  // genuinely collide with code/data/heap mappings. --------------------
  uint64_t LoaderBase =
      os::pageBase(0x10000000 + AslrRng.below(0x58000000));
  Space.mapRegion(LoaderBase, LoaderPages * PageSize,
                  os::ProtRead | os::ProtWrite, MappingKind::Anonymous,
                  "loader");
  Loader.LoaderBase = LoaderBase;

  // --- Stage 1: map the captured layout; collisions stage elsewhere. ----
  uint64_t StagingBase = findFreeArea(Cap, 0xa0000000, LoaderPages);
  std::vector<std::pair<uint64_t, uint64_t>> Staged; // (final, temp)

  for (const Mapping &M : Cap.Mappings) {
    if (M.Kind == MappingKind::RuntimeImage) {
      // The boot's shared image, fetched page by page on first touch and
      // never copied (checkLayout pinned the range to the image's size).
      Space.mapShared(M.Start, vm::Runtime::runtimeImage(Cap.BootId),
                      os::ProtRead, M.Kind, M.Name);
      Loader.CommonPagesMapped += M.pageCount();
      continue;
    }
    bool CollidesWithLoader =
        M.Start < LoaderBase + LoaderPages * PageSize &&
        LoaderBase < M.End;
    if (!CollidesWithLoader) {
      Space.mapRegion(M.Start, M.sizeBytes(), os::ProtRead | os::ProtWrite,
                      M.Kind, M.Name);
      continue;
    }
    for (uint64_t Addr = M.Start; Addr < M.End; Addr += PageSize) {
      bool Collides = Addr >= LoaderBase &&
                      Addr < LoaderBase + LoaderPages * PageSize;
      if (!Collides) {
        Space.mapRegion(Addr, PageSize, os::ProtRead | os::ProtWrite,
                        M.Kind, M.Name);
        continue;
      }
      uint64_t Temp = StagingBase + Staged.size() * PageSize;
      Space.mapRegion(Temp, PageSize, os::ProtRead | os::ProtWrite,
                      MappingKind::Anonymous, "staged");
      Staged.emplace_back(Addr, Temp);
      ++Loader.CollidingPages;
    }
  }

  auto TargetAddr = [&Staged](uint64_t PageAddr) {
    for (const auto &[Final, Temp] : Staged)
      if (Final == PageAddr)
        return Temp;
    return PageAddr;
  };

  // Captured (process-specific) pages, mapped by reference: the session
  // shares the capture's own page until it writes it, and a reset
  // re-shares it.
  for (const capture::PageRecord &P : Cap.Pages) {
    [[maybe_unused]] bool Ok = Space.sharePage(TargetAddr(P.Addr), P.Page);
    assert(Ok && "captured page has no mapping");
    ++Loader.PagesRestored;
  }

  // --- Stages 2+3: break-free — drop the loader, relocate staged pages. -
  Space.unmapRegion(LoaderBase, LoaderPages * PageSize);
  for (const auto &[Final, Temp] : Staged) {
    os::PhysPageRef Page = Space.physicalPage(Temp);
    assert(Space.isMapped(Temp) && "staged page vanished");
    const Mapping *Owner = nullptr;
    for (const Mapping &Candidate : Cap.Mappings)
      if (Candidate.contains(Final))
        Owner = &Candidate;
    assert(Owner && "staged page outside every mapping");
    Space.mapRegion(Final, PageSize, os::ProtRead | os::ProtWrite,
                    Owner->Kind, Owner->Name);
    // A staged page nothing was captured into stays a lazy zero page.
    if (Page)
      Space.sharePage(Final, std::move(Page));
    Space.unmapRegion(Temp, PageSize);
  }
  return Space;
}

void Replayer::runRegion(AddressSpace &Space, const capture::Capture &Cap,
                         ReplayCode Mode, const vm::CodeCache *Code,
                         vm::ExecObserver *Observer, ReplayResult &Out) {
  // --- Stage 4: pick the code version and execute the region. -----------
  // Always a fresh Runtime: its cache simulator, branch predictor and
  // cycle totals are per-replay state — reusing them across replays would
  // change charged cycles (and Env.NowMillis) and break digest identity.
  vm::Runtime RT(Space, File, Natives, Config);
  if (Mode == ReplayCode::Compiled && Code) {
    // Zero-copy install: the compiled binary is shared by pointer instead
    // of copied into the runtime-owned cache function by function.
    RT.setSharedCode(Code);
    RT.setMode(vm::ExecMode::Mixed);
  } else {
    RT.setMode(vm::ExecMode::InterpretOnly);
  }
  if (Observer)
    RT.setObserver(Observer);

  {
    ROPT_TRACE_SPAN("replay.execute");
    Out.Result = RT.call(Cap.Root, Cap.Args);
  }

  ROPT_METRIC_INC("replay.replays");
  ROPT_METRIC_OBSERVE("replay.cycles", Out.Result.Cycles,
                      ({1e4, 1e5, 1e6, 1e7, 1e8, 1e9}));
}

/// Loader-work metrics count work actually performed, so the session path
/// emits them once per session build while ReplayResult::Loader carries
/// the cumulative per-session numbers on every replay.
static void emitLoaderMetrics(const LoaderStats &L) {
  ROPT_METRIC_ADD("replay.pages_restored", L.PagesRestored);
  ROPT_METRIC_ADD("replay.collisions_handled", L.CollidingPages);
}

support::Result<ReplayResult> Replayer::replayImpl(
    const capture::Capture &Cap, ReplayCode Mode,
    const vm::CodeCache *Code, vm::ExecObserver *Observer,
    const std::function<void(AddressSpace &, const vm::CallResult &)>
        &PostRun) {
  ROPT_TRACE_SPAN("replay.run");
  ReplayResult Out;

  if (!SessionMode) {
    support::Result<AddressSpace> Built = [&] {
      ROPT_TRACE_SPAN("replay.restore");
      return buildRestoredSpace(Cap, Out.Loader);
    }();
    if (!Built)
      return Built.error();
    AddressSpace &Space = Built.value();
    emitLoaderMetrics(Out.Loader);
    runRegion(Space, Cap, Mode, Code, Observer, Out);
    ++SessStats.FreshReplays;
    if (PostRun)
      PostRun(Space, Out.Result);
    return Out;
  }

  // Fork-server path: find (or build) the pristine session for this
  // capture, execute against it, then delta-reset the dirty pages.
  uint64_t Fp = captureFingerprint(Cap);
  auto It = Sessions.find(&Cap);
  if (It != Sessions.end() && It->second.Fingerprint != Fp) {
    // The capture changed in place (or a new capture reuses the address):
    // the session memory is stale. Rebuild from scratch.
    Sessions.erase(It);
    It = Sessions.end();
    ++SessStats.FullRebuilds;
    ROPT_METRIC_INC("replay.full_rebuilds");
  }
  if (It == Sessions.end()) {
    Session S;
    {
      ROPT_TRACE_SPAN("replay.restore");
      support::Result<AddressSpace> Built = buildRestoredSpace(Cap, S.Loader);
      if (!Built)
        return Built.error();
      S.Space = std::move(Built).value();
      S.Space.takeSnapshot();
    }
    // The session's page-table footprint against its layout (CI's fleet
    // job bounds the ratio).
    ROPT_METRIC_ADD("replay.session_table_entries",
                    S.Space.pageTableEntries());
    ROPT_METRIC_ADD("replay.session_mapped_pages", S.Space.mappedPageCount());
    S.Fingerprint = Fp;
    It = Sessions.emplace(&Cap, std::move(S)).first;
    ++SessStats.SessionsCreated;
    ROPT_METRIC_INC("replay.sessions_created");
    emitLoaderMetrics(It->second.Loader);
  }

  Session &S = It->second;
  Out.Loader = S.Loader; // cumulative per-session loader work (see .h)
  runRegion(S.Space, Cap, Mode, Code, Observer, Out);
  ++SessStats.SessionReplays;
  if (PostRun)
    PostRun(S.Space, Out.Result);

  int64_t Reverted;
  {
    ROPT_TRACE_SPAN("replay.reset");
    Reverted = S.Space.resetToSnapshot();
  }
  if (Reverted < 0) {
    // Structural change during the region (never happens for well-formed
    // workloads — the heap never unmaps). Drop the session; the next
    // replay rebuilds it.
    Sessions.erase(It);
    ++SessStats.FullRebuilds;
    ROPT_METRIC_INC("replay.full_rebuilds");
  } else {
    ++SessStats.DeltaResets;
    SessStats.PagesReverted += static_cast<uint64_t>(Reverted);
    ROPT_METRIC_INC("replay.session_resets");
    ROPT_METRIC_ADD("replay.pages_reverted",
                    static_cast<uint64_t>(Reverted));
  }
  return Out;
}

void Replayer::setSessionMode(bool On) {
  if (SessionMode == On)
    return;
  SessionMode = On;
  if (!On)
    Sessions.clear();
}

ReplayResult Replayer::replay(const capture::Capture &Cap, ReplayCode Mode,
                              const vm::CodeCache *Code,
                              vm::ExecObserver *Observer) {
  support::Result<ReplayResult> Out =
      replayImpl(Cap, Mode, Code, Observer, nullptr);
  if (Out)
    return std::move(Out).value();
  ReplayResult Refused; // the loader refused the layout; nothing ran
  Refused.Result.Trap = vm::TrapKind::MemoryFault;
  return Refused;
}

support::Result<InterpretedReplayResult>
Replayer::interpretedReplay(const capture::Capture &Cap) {
  ROPT_TRACE_SPAN("replay.interpreted");
  ROPT_METRIC_INC("replay.interpreted_replays");
  InterpretedReplayResult Out;
  RecordingObserver Obs;

  support::Result<ReplayResult> Replay = replayImpl(
      Cap, ReplayCode::Interpreter, nullptr, &Obs,
      [&Obs, &Out](AddressSpace &Space, const vm::CallResult &Result) {
        (void)Result;
        // The write set is ordered, so Cells comes out sorted.
        Out.Map.Cells.reserve(Obs.WrittenCells.size());
        for (uint64_t Addr : Obs.WrittenCells) {
          uint64_t Bits = 0;
          if (Space.peek(Addr, &Bits, sizeof(Bits)))
            Out.Map.Cells.emplace_back(Addr, Bits);
        }
      });
  if (!Replay)
    return Replay.error();
  Out.Replay = std::move(Replay).value();
  Out.Profile = std::move(Obs.Profile);

  if (Out.Replay.Result.Trap == vm::TrapKind::Timeout)
    return support::Error{support::ErrorCode::ReplayTimeout,
                          "interpreted replay exhausted its budget"};
  if (Out.Replay.Result.Trap != vm::TrapKind::None)
    return support::Error{support::ErrorCode::ReplayCrash,
                          "interpreted replay trapped"};
  if (File.method(Cap.Root).ReturnsValue) {
    Out.Map.HasReturn = true;
    Out.Map.ReturnBits = Out.Replay.Result.Ret.Raw;
  }
  return Out;
}

support::Result<ReplayResult>
Replayer::verifiedReplay(const capture::Capture &Cap,
                         const vm::CodeCache &Code,
                         const VerificationMap &Map,
                         vm::CallResult *Ran) {
  ROPT_TRACE_SPAN("replay.verified");
  bool Matches = false;
  support::Result<ReplayResult> Replay = replayImpl(
      Cap, ReplayCode::Compiled, &Code, nullptr,
      [&Map, &Matches](AddressSpace &Space, const vm::CallResult &R) {
        if (R.Trap != vm::TrapKind::None)
          return;
        ROPT_TRACE_SPAN("replay.compare");
        Matches = !(Map.HasReturn && Map.ReturnBits != R.Ret.Raw) &&
                  cellsMatch(Space, Map.Cells);
      });
  if (!Replay)
    return Replay.error();
  const ReplayResult &Out = Replay.value();
  if (Ran)
    *Ran = Out.Result;

  if (Out.Result.Trap == vm::TrapKind::Timeout)
    return support::Error{support::ErrorCode::ReplayTimeout,
                          "verified replay exhausted its budget"};
  if (Out.Result.Trap != vm::TrapKind::None)
    return support::Error{support::ErrorCode::ReplayCrash,
                          "verified replay trapped"};
  if (!Matches) {
    ROPT_METRIC_INC("replay.verify_mismatches");
    return support::Error{support::ErrorCode::OutputMismatch,
                          "verification map mismatch"};
  }
  ROPT_METRIC_INC("replay.verify_ok");
  return Replay;
}
