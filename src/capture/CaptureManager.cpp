//===- capture/CaptureManager.cpp - The online capture protocol -------------===//

#include "capture/CaptureManager.h"

#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>

using namespace ropt;
using namespace ropt::capture;
using os::AddressSpace;
using os::Mapping;
using os::MappingKind;
using os::PageSize;

CaptureManager::CaptureManager(os::Kernel &Kernel, os::Process &App,
                               vm::Runtime &RT,
                               os::KernelCostModel CostModel)
    : Kernel(Kernel), App(App), RT(RT), CostModel(CostModel) {}

CaptureManager::~CaptureManager() {
  if (Target != dex::InvalidId)
    RT.disarmRegionHook();
}

void CaptureManager::armCapture(dex::MethodId Root) {
  Target = Root;
  Done.reset();
  vm::RegionHooks Hooks;
  Hooks.OnEnter = [this](const std::vector<vm::Value> &Args) {
    onRegionEnter(Args);
  };
  Hooks.OnExit = [this]() { onRegionExit(); };
  RT.armRegionHook(Root, std::move(Hooks));
}

namespace {

/// The mappings whose pages get read-protected: app-private memory. The
/// runtime image and file-backed code must not be protected (touching them
/// from runtime internals would crash the process, Section 3.2), and are
/// handled via the common blob / path log instead.
bool isProtectable(const Mapping &M) {
  return M.Kind == MappingKind::Heap || M.Kind == MappingKind::Data ||
         M.Kind == MappingKind::Stack || M.Kind == MappingKind::Anonymous;
}

} // namespace

void CaptureManager::onRegionEnter(const std::vector<vm::Value> &Args) {
  if (Done || InProgress)
    return;
  // Step 1: postpone when a collection is imminent — the GC walk would
  // fault in (and thus capture) pages the region never touches.
  if (RT.heap().gcImminent()) {
    ++Postponed;
    ROPT_METRIC_INC("capture.postponements");
    ROPT_TRACE_INSTANT("capture.postponed");
    return;
  }

  ROPT_TRACE_INSTANT("capture.region_enter");
  InProgress = true;
  SavedArgs = Args;
  AccessedPages.clear();

  AddressSpace &Space = App.space();

  // Step 2: fork the child that preserves the pristine memory image.
  PagesAtFork = Space.mappedPageCount();
  os::Process &Child = Kernel.fork(App);
  Child.setPriority(os::Priority::Lowest);
  Child.sleep();
  ChildPid = Child.pid();

  // Step 3: parse the memory map and read-protect the app's own pages.
  Space.resetStats();
  SavedMappings = Space.procMaps();
  for (const Mapping &M : SavedMappings)
    if (isProtectable(M))
      Space.protectRange(M.Start, M.sizeBytes(), os::ProtNone);

  Space.setFaultHandler([this, &Space](uint64_t Addr, bool IsWrite) {
    (void)IsWrite;
    AccessedPages.insert(os::pageBase(Addr));
    Space.protectRange(os::pageBase(Addr), PageSize,
                       os::ProtRead | os::ProtWrite);
    return true;
  });
  // Step 4 happens now: the caller executes the hot region as normal.
}

void CaptureManager::onRegionExit() {
  if (!InProgress)
    return;
  InProgress = false;
  ROPT_TRACE_SPAN("capture.collect");

  AddressSpace &Space = App.space();

  // Step 5: restore permissions, uninstall the handler.
  Space.setFaultHandler(nullptr);
  os::MemoryStats Stats = Space.stats(); // events before the unprotect
  for (const Mapping &M : SavedMappings)
    if (isProtectable(M))
      Space.protectRange(M.Start, M.sizeBytes(),
                         os::ProtRead | os::ProtWrite);

  // Step 6: the child spools the original page contents.
  os::Process *Child = Kernel.find(ChildPid);
  assert(Child && "capture child vanished");
  Child->wake();

  Capture Cap;
  Cap.Root = Target;
  Cap.Args = SavedArgs;
  Cap.BootId = RT.config().BootId;
  Cap.Mappings = SavedMappings;
  for (uint64_t Addr : AccessedPages) {
    auto Page = std::make_shared<os::PhysicalPage>();
    [[maybe_unused]] bool Ok =
        Child->space().peek(Addr, Page->Data.data(), PageSize);
    assert(Ok && "accessed page missing from the forked snapshot");
    PageRecord P;
    P.Addr = Addr;
    P.Page = std::move(Page);
    Cap.Pages.push_back(std::move(P));
  }
  for (const Mapping &M : SavedMappings) {
    if (M.Kind == MappingKind::FileMapped) {
      FileMapRecord F;
      F.Addr = M.Start;
      F.Size = M.sizeBytes();
      F.Path = M.Name;
      Cap.FileMaps.push_back(std::move(F));
    } else if (M.Kind == MappingKind::RuntimeImage) {
      Cap.CommonBytes += M.sizeBytes();
    }
  }

  Cap.Events.MappedPagesAtFork = PagesAtFork;
  Cap.Events.MappingsParsed = SavedMappings.size();
  Cap.Events.ProtectCalls = Stats.ProtectCalls;
  Cap.Events.PagesProtected = Stats.PagesProtected;
  Cap.Events.ReadFaults = Stats.ReadFaults;
  Cap.Events.WriteFaults = Stats.WriteFaults;
  Cap.Events.CowCopies = Stats.CowCopies;
  Cap.Overheads = CaptureOverheads::fromEvents(Cap.Events, CostModel);

  ROPT_METRIC_INC("capture.captures");
  ROPT_METRIC_ADD("capture.pages_spooled", Cap.Pages.size());
  ROPT_METRIC_ADD("capture.bytes_spooled", Cap.Pages.size() * PageSize);
  ROPT_METRIC_ADD("capture.pages_protected", Stats.PagesProtected);
  ROPT_METRIC_ADD("capture.read_faults", Stats.ReadFaults);
  ROPT_METRIC_ADD("capture.write_faults", Stats.WriteFaults);
  ROPT_METRIC_ADD("capture.cow_copies", Stats.CowCopies);
  ROPT_METRIC_ADD("capture.fork_pages", PagesAtFork);
  ROPT_METRIC_OBSERVE("capture.pages_per_capture", Cap.Pages.size(),
                      ({4, 16, 64, 256, 1024, 4096}));
  ROPT_METRIC_OBSERVE("capture.fork_ms", Cap.Overheads.ForkMs,
                      ({1, 2, 4, 8, 16, 32}));
  ROPT_METRIC_OBSERVE("capture.overhead_ms", Cap.Overheads.totalMs(),
                      ({2, 5, 10, 15, 20, 30, 50}));
  ROPT_TRACE_COUNTER("capture.pages_spooled", Cap.Pages.size());

  Kernel.reap(ChildPid);
  ChildPid = 0;
  Space.resetStats(); // close the capture's measurement epoch

  Done = std::move(Cap);
  RT.disarmRegionHook();
  Target = dex::InvalidId;
}

support::Result<Capture> CaptureManager::takeCapture() {
  if (!Done)
    return support::Error{support::ErrorCode::CaptureNotReady,
                          "no completed capture to take"};
  Capture Out = std::move(*Done);
  Done.reset();
  return Out;
}

std::string CaptureManager::spoolToStorage(const Capture &Cap,
                                           const std::string &AppName) {
  ROPT_TRACE_SPAN("capture.spool");
  os::StorageDevice &Disk = Kernel.storage();

  // The per-boot common blob: runtime-image content, stored once. The
  // device keeps the mapping's pages by reference — the image source's
  // for pages the app never fetched, the app's own where it holds one —
  // instead of a copy of their bytes, so storing it generates no image
  // page.
  std::string CommonPath = format("boot/%llu/image.art",
                                  static_cast<unsigned long long>(
                                      Cap.BootId));
  if (!Disk.exists(CommonPath) && Cap.CommonBytes > 0) {
    for (const Mapping &M : Cap.Mappings) {
      if (M.Kind != MappingKind::RuntimeImage)
        continue;
      std::shared_ptr<const os::PageSource> Pages =
          App.space().mappingPages(M.Start);
      assert(Pages && Pages->pageCount() == M.pageCount() &&
             "runtime image unmapped");
      Disk.writePages(CommonPath, std::move(Pages));
    }
  }

  std::string Path = format("captures/%s/region-%u.cap", AppName.c_str(),
                            Cap.Root);
  std::vector<uint8_t> Bytes = Cap.serialize();
  ROPT_METRIC_ADD("capture.bytes_written_disk", Bytes.size());
  Disk.writeFile(Path, std::move(Bytes));
  return Path;
}
