//===- replay/VerdictMemo.cpp - Shared verified-replay verdicts -----------===//

#include "replay/VerdictMemo.h"

#include "support/Metrics.h"

#include <cassert>
#include <cstring>

using namespace ropt;
using namespace ropt::replay;

void ContentHasher::bytes(const uint8_t *Data, size_t Size) {
  word(Size);
  size_t I = 0;
  for (; I + 8 <= Size; I += 8) {
    uint64_t W;
    std::memcpy(&W, Data + I, 8);
    word(W);
  }
  if (I != Size) {
    uint64_t W = 0;
    std::memcpy(&W, Data + I, Size - I);
    word(W);
  }
}

ContentKey ContentHasher::key() const {
  // The murmur3 finalizer: a bijection that spreads every input bit.
  auto Finish = [](uint64_t H) {
    H ^= H >> 33;
    H *= 0xff51afd7ed558ccdULL;
    H ^= H >> 33;
    H *= 0xc4ceb9fe1a85ec53ULL;
    H ^= H >> 33;
    return H;
  };
  return ContentKey{Finish(A), Finish(B)};
}

ContentKey replay::captureKey(const capture::Capture &Cap,
                              const VerificationMap &Map) {
  // Streamed field by field: nothing is serialized or copied, so keying a
  // capture costs no memory beyond the hasher.
  ContentHasher H;
  H.word(Cap.Root);
  H.word(Cap.Args.size());
  for (const vm::Value &A : Cap.Args)
    H.word(A.Raw);
  H.word(Cap.BootId);
  H.word(Cap.Mappings.size());
  for (const os::Mapping &M : Cap.Mappings) {
    H.word(M.Start);
    H.word(M.End);
    H.word(static_cast<uint64_t>(M.Kind));
    H.bytes(reinterpret_cast<const uint8_t *>(M.Name.data()), M.Name.size());
  }
  H.word(Cap.Pages.size());
  for (const capture::PageRecord &P : Cap.Pages) {
    H.word(P.Addr);
    H.word(P.Page != nullptr);
    if (P.Page)
      H.bytes(P.Page->Data.data(), os::PageSize);
  }
  H.word(Map.Cells.size());
  for (const auto &[Addr, Bits] : Map.Cells) {
    H.word(Addr);
    H.word(Bits);
  }
  H.word(Map.HasReturn);
  H.word(Map.ReturnBits);
  return H.key();
}

uint64_t replay::codeDigest(const vm::CodeCache &Code) {
  // Every field the decoder and executor read; the bytecode-pc Site and
  // the function name are pass and debugging inputs only.
  ContentHasher H;
  H.word(Code.functions().size());
  for (const auto &[Id, Decoded] : Code.functions()) {
    const vm::MachineFunction &Fn = *Decoded->Source;
    H.word(Id);
    H.word(Fn.Method);
    H.word(Fn.NumRegs);
    H.word(Fn.ParamCount);
    H.word(Fn.ReturnsValue);
    H.word(Fn.Code.size());
    for (const vm::MInsn &I : Fn.Code) {
      H.word(static_cast<uint64_t>(I.Op));
      H.word((uint64_t(I.A) << 32) | (uint64_t(I.B) << 16) | I.C);
      H.word(static_cast<uint32_t>(I.Target) | (uint64_t(I.Idx) << 32));
      H.word(static_cast<uint64_t>(I.ImmI));
      uint64_t FBits;
      static_assert(sizeof(FBits) == sizeof(I.ImmF), "bitcast");
      std::memcpy(&FBits, &I.ImmF, sizeof(FBits));
      H.word(FBits);
      H.word((uint64_t(static_cast<uint8_t>(I.Hint)) << 8) | I.ArgCount);
      for (unsigned A = 0; A != I.ArgCount && A != vm::MMaxArgs; ++A)
        H.word(I.Args[A]);
    }
  }
  return H.key().A;
}

Verdict replay::replayVerdict(Replayer &Rep, const capture::Capture &Cap,
                              const vm::CodeCache &Code,
                              const VerificationMap &Map) {
  vm::CallResult Ran;
  support::Result<ReplayResult> R = Rep.verifiedReplay(Cap, Code, Map, &Ran);
  Verdict V;
  V.Ok = R.ok();
  if (!R)
    V.Error = R.error().Code;
  V.Cycles = Ran.Cycles;
  V.Insns = Ran.Insns;
  return V;
}

bool VerdictMemo::boundTo(const dex::DexFile &OtherFile,
                          const vm::RuntimeConfig &OtherConfig) const {
  return &OtherFile == &File && OtherConfig == Config;
}

Verdict VerdictMemo::verify(Replayer &Rep, const capture::Capture &Cap,
                            const VerificationMap &Map, ContentKey CapKey,
                            const vm::CodeCache &Code, ContentKey BinKey) {
  assert(boundTo(Rep.file(), Rep.config()) &&
         "replayer runs another app or runtime configuration");
  Key K{CapKey, BinKey};
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.Lookups;
    auto It = Verdicts.find(K);
    if (It != Verdicts.end()) {
      const Verdict &V = It->second;
      ++Stats.Hits;
      Stats.HitInsns += V.Insns;
      Stats.HitCycles += V.Cycles;
      ROPT_METRIC_INC("replay.memo_hits");
      ROPT_METRIC_ADD("replay.memo_insns", V.Insns);
      ROPT_METRIC_ADD("replay.memo_cycles", V.Cycles);
      return V;
    }
  }
  // Replay outside the lock: other lanes keep answering from the memo.
  Verdict V = replayVerdict(Rep, Cap, Code, Map);
  std::lock_guard<std::mutex> Lock(Mutex);
  Verdicts.emplace(K, V);
  return V;
}

VerdictMemoStats VerdictMemo::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}

size_t VerdictMemo::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Verdicts.size();
}
