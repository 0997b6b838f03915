//===- replay/VerdictMemo.h - Shared verified-replay verdicts ---*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verdict memo (DESIGN.md §22). A verified replay is deterministic:
/// its verdict (ok, crash, timeout, mismatch, or a layout the loader
/// refuses) and its CallResult's cycles and instructions depend only on
/// the app's DexFile, the runtime configuration, the capture, the
/// verification map and the binary. A VerdictMemo is bound to one DexFile
/// and one RuntimeConfig and stores every outcome under a content key, so
/// a later request for the same (capture, binary) pair — from another
/// evaluator of the same search, or from another fleet device class of
/// the same app — gets the stored verdict without replaying.
///
/// Keys are content, never pointers:
///  - captureKey() streams two independent 64-bit hashes over what the
///    replay reads of a capture (Root, Args, BootId, Mappings, page
///    addresses and bytes) and over its VerificationMap. The overhead and
///    event fields, which differ per device class and which the replay
///    never reads, are not hashed;
///  - a binary's key is the evaluator's 64-bit BinaryHash plus
///    codeDigest(), a second, independent 64-bit digest of everything the
///    executor reads of the code. No code is kept alive to compare.
///
/// Only host work goes away: the caller still counts the outcome and
/// draws its noise samples as if it had replayed. Safe to share between
/// threads. Two threads that miss on one key both replay; their results
/// are identical, and the first insert is kept.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_REPLAY_VERDICT_MEMO_H
#define ROPT_REPLAY_VERDICT_MEMO_H

#include "replay/Replayer.h"

#include <mutex>
#include <unordered_map>

namespace ropt {
namespace replay {

/// 128 bits of content: two independent 64-bit hashes.
struct ContentKey {
  uint64_t A = 0;
  uint64_t B = 0;

  bool operator==(const ContentKey &) const = default;
};

/// Streams 64-bit words into the two lanes of a ContentKey. Each step is
/// a bijection of a lane's state for a fixed input word, so two streams of
/// equal length that differ in exactly one word always hash apart.
class ContentHasher {
public:
  void word(uint64_t W) {
    A = rotl(A ^ (W * 0x9e3779b97f4a7c15ULL), 27) * 0xff51afd7ed558ccdULL;
    B = rotl(B ^ (W * 0xc2b2ae3d27d4eb4fULL), 31) * 0x165667b19e3779f9ULL;
  }
  /// The length, then the bytes in little-endian words (zero-padded).
  void bytes(const uint8_t *Data, size_t Size);
  ContentKey key() const;

private:
  static uint64_t rotl(uint64_t V, int R) {
    return (V << R) | (V >> (64 - R));
  }

  uint64_t A = 0x243f6a8885a308d3ULL;
  uint64_t B = 0x13198a2e03707344ULL;
};

/// The content key of \p Cap replayed and checked against \p Map.
ContentKey captureKey(const capture::Capture &Cap, const VerificationMap &Map);

/// A 64-bit digest of every field the executor reads of \p Code, computed
/// independently of the evaluators' BinaryHash.
uint64_t codeDigest(const vm::CodeCache &Code);

/// The outcome of one verified replay, as the memo stores it.
struct Verdict {
  bool Ok = false;
  /// Why the replay failed (meaningless when Ok).
  support::ErrorCode Error = support::ErrorCode::Unknown;
  /// The region call's cycles and instructions, also for a trap, a
  /// timeout or a mismatch; zero when the loader refused the capture and
  /// nothing ran.
  uint64_t Cycles = 0;
  uint64_t Insns = 0;
};

/// One verified replay of \p Cap under \p Code against \p Map, as a
/// Verdict (Replayer::verifiedReplay).
Verdict replayVerdict(Replayer &Rep, const capture::Capture &Cap,
                      const vm::CodeCache &Code, const VerificationMap &Map);

/// Lookup counts. Under concurrent lookups the hit/miss split depends on
/// which thread replays a key first, so these are diagnostics, never part
/// of a deterministic artifact; Lookups itself does not depend on it.
struct VerdictMemoStats {
  uint64_t Lookups = 0;   ///< Verified replays requested.
  uint64_t Hits = 0;      ///< Of those, answered without replaying.
  uint64_t HitInsns = 0;  ///< Simulated instructions not re-executed.
  uint64_t HitCycles = 0; ///< Simulated cycles not re-executed.

  VerdictMemoStats &operator+=(const VerdictMemoStats &O) {
    Lookups += O.Lookups;
    Hits += O.Hits;
    HitInsns += O.HitInsns;
    HitCycles += O.HitCycles;
    return *this;
  }
};

class VerdictMemo {
public:
  /// Every replay the memo answers for runs \p File under \p Config.
  /// \p File must outlive the memo.
  VerdictMemo(const dex::DexFile &File, const vm::RuntimeConfig &Config)
      : File(File), Config(Config) {}
  VerdictMemo(const VerdictMemo &) = delete;
  VerdictMemo &operator=(const VerdictMemo &) = delete;

  /// True when a Replayer over \p File and \p Config may use this memo.
  bool boundTo(const dex::DexFile &File,
               const vm::RuntimeConfig &Config) const;

  /// The verdict of replaying \p Cap (key \p CapKey, from captureKey over
  /// \p Cap and \p Map) under \p Code (key \p BinKey: BinaryHash and
  /// codeDigest). A stored verdict is returned as is and counted in the
  /// replay.memo_* metrics; otherwise \p Rep replays and the result is
  /// stored. \p Rep must be bound like the memo.
  Verdict verify(Replayer &Rep, const capture::Capture &Cap,
                 const VerificationMap &Map, ContentKey CapKey,
                 const vm::CodeCache &Code, ContentKey BinKey);

  VerdictMemoStats stats() const;
  /// Stored verdicts.
  size_t size() const;

private:
  struct Key {
    ContentKey Capture;
    ContentKey Binary;
    bool operator==(const Key &) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      return static_cast<size_t>(K.Capture.A ^ K.Binary.A);
    }
  };

  const dex::DexFile &File;
  const vm::RuntimeConfig Config;

  mutable std::mutex Mutex;
  std::unordered_map<Key, Verdict, KeyHash> Verdicts;
  VerdictMemoStats Stats;
};

} // namespace replay
} // namespace ropt

#endif // ROPT_REPLAY_VERDICT_MEMO_H
