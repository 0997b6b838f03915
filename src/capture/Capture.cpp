//===- capture/Capture.cpp - Captured hot-region state ---------------------===//

#include "capture/Capture.h"

#include "support/Serialize.h"

using namespace ropt;
using namespace ropt::capture;

CaptureOverheads
CaptureOverheads::fromEvents(const CaptureEvents &E,
                             const os::KernelCostModel &Model) {
  CaptureOverheads O;
  O.ForkMs = Model.forkCostUs(E.MappedPagesAtFork) / 1000.0;
  O.PreparationMs = Model.preparationCostUs(E.MappingsParsed,
                                            E.ProtectCalls,
                                            E.PagesProtected) /
                    1000.0;
  O.FaultCowMs = Model.faultAndCowCostUs(E.ReadFaults + E.WriteFaults,
                                         E.CowCopies) /
                 1000.0;
  return O;
}

std::vector<uint8_t> Capture::serialize() const {
  ByteWriter W;
  W.writeU32(0xCAB7CAB7); // magic
  W.writeU32(Root);
  W.writeU64(BootId);
  W.writeU32(static_cast<uint32_t>(Args.size()));
  for (const vm::Value &V : Args)
    W.writeU64(V.Raw);
  W.writeU32(static_cast<uint32_t>(Mappings.size()));
  for (const os::Mapping &M : Mappings) {
    W.writeU64(M.Start);
    W.writeU64(M.End);
    W.writeU8(static_cast<uint8_t>(M.Kind));
    W.writeString(M.Name);
  }
  W.writeU32(static_cast<uint32_t>(Pages.size()));
  for (const PageRecord &P : Pages) {
    W.writeU64(P.Addr);
    W.writeBytes(P.Page->Data.data(), os::PageSize);
  }
  W.writeU32(static_cast<uint32_t>(FileMaps.size()));
  for (const FileMapRecord &F : FileMaps) {
    W.writeU64(F.Addr);
    W.writeU64(F.Size);
    W.writeString(F.Path);
    W.writeU64(F.Offset);
  }
  W.writeU64(CommonBytes);
  return W.takeBytes();
}

bool Capture::deserialize(const std::vector<uint8_t> &Bytes, Capture &Out) {
  Out = Capture();
  if (Bytes.size() < 8)
    return false;
  ByteReader R(Bytes);
  if (R.readU32() != 0xCAB7CAB7)
    return false;
  Out.Root = R.readU32();
  Out.BootId = R.readU64();
  uint32_t NumArgs = R.readU32();
  if (R.remaining() / 8 < NumArgs)
    return false;
  for (uint32_t I = 0; I != NumArgs; ++I) {
    vm::Value V;
    V.Raw = R.readU64();
    Out.Args.push_back(V);
  }
  uint32_t NumMappings = R.readU32();
  if (R.remaining() / 21 < NumMappings) // 8+8+1+4 bytes minimum each
    return false;
  for (uint32_t I = 0; I != NumMappings; ++I) {
    os::Mapping M;
    M.Start = R.readU64();
    M.End = R.readU64();
    M.Kind = static_cast<os::MappingKind>(R.readU8());
    M.Name = R.readString();
    Out.Mappings.push_back(std::move(M));
  }
  uint32_t NumPages = R.readU32();
  if (R.remaining() / (8 + os::PageSize) < NumPages)
    return false;
  for (uint32_t I = 0; I != NumPages; ++I) {
    PageRecord P;
    P.Addr = R.readU64();
    if (R.remaining() < os::PageSize)
      return false;
    auto Page = std::make_shared<os::PhysicalPage>();
    R.readBytes(Page->Data.data(), os::PageSize);
    P.Page = std::move(Page);
    Out.Pages.push_back(std::move(P));
  }
  uint32_t NumFiles = R.readU32();
  if (R.remaining() / 28 < NumFiles) // 8+8+4+8 bytes minimum each
    return false;
  for (uint32_t I = 0; I != NumFiles; ++I) {
    FileMapRecord F;
    F.Addr = R.readU64();
    F.Size = R.readU64();
    F.Path = R.readString();
    F.Offset = R.readU64();
    Out.FileMaps.push_back(std::move(F));
  }
  Out.CommonBytes = R.readU64();
  return !R.failed();
}
