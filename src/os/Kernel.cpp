//===- os/Kernel.cpp - Processes, fork, storage device --------------------===//

#include "os/Kernel.h"

#include <cassert>
#include <cstring>

using namespace ropt;
using namespace ropt::os;

void StorageDevice::writeFile(const std::string &Path,
                              std::vector<uint8_t> Bytes) {
  LifetimeBytesWritten += Bytes.size();
  Files[Path] = Blob{std::move(Bytes), {}};
}

void StorageDevice::writePages(const std::string &Path,
                               std::shared_ptr<const PageSource> Pages) {
  assert(Pages && "page-backed blob without a source");
  LifetimeBytesWritten += Pages->pageCount() * PageSize;
  Files[Path] = Blob{{}, std::move(Pages)};
}

const std::vector<uint8_t> *
StorageDevice::readFile(const std::string &Path) const {
  auto It = Files.find(Path);
  if (It == Files.end())
    return nullptr;
  Blob &B = It->second;
  if (B.Pages) {
    B.Bytes.assign(B.Pages->pageCount() * PageSize, 0);
    for (uint64_t I = 0; I != B.Pages->pageCount(); ++I)
      if (const PhysPageRef &Page = B.Pages->page(I))
        std::memcpy(B.Bytes.data() + I * PageSize, Page->Data.data(),
                    PageSize);
    B.Pages.reset();
  }
  return &B.Bytes;
}

uint64_t StorageDevice::totalBytesStored() const {
  uint64_t Total = 0;
  for (const auto &KV : Files)
    Total += KV.second.size();
  return Total;
}

Process &Kernel::spawn() {
  Pid Id = NextPid++;
  auto Proc = std::make_unique<Process>(Id, /*Parent=*/0);
  Process &Ref = *Proc;
  Table.emplace(Id, std::move(Proc));
  return Ref;
}

Process &Kernel::fork(Process &Parent) {
  ++Forks;
  Pid Id = NextPid++;
  auto Child = std::make_unique<Process>(Id, Parent.pid());
  Child->Space = Parent.Space.forkClone();
  Process &Ref = *Child;
  Table.emplace(Id, std::move(Child));
  return Ref;
}

void Kernel::reap(Pid Id) {
  [[maybe_unused]] size_t Erased = Table.erase(Id);
  assert(Erased == 1 && "reaping unknown pid");
}

Process *Kernel::find(Pid Id) {
  auto It = Table.find(Id);
  return It == Table.end() ? nullptr : It->second.get();
}
