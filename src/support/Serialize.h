//===- support/Serialize.h - Byte-stream serialization ---------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian byte writer/reader used to spool captured memory snapshots
/// to the simulated storage device and to persist optimization results.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_SUPPORT_SERIALIZE_H
#define ROPT_SUPPORT_SERIALIZE_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace ropt {

/// Appends fixed-width little-endian values to a growing byte buffer.
class ByteWriter {
public:
  void writeU8(uint8_t V) { Bytes.push_back(V); }

  void writeU32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  void writeU64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  void writeString(const std::string &S) {
    writeU32(static_cast<uint32_t>(S.size()));
    // A pointer range, not string iterators: GCC 12 at -O3 reports a
    // false -Wstringop-overflow for an inlined empty iterator range.
    writeBytes(reinterpret_cast<const uint8_t *>(S.data()), S.size());
  }

  void writeBytes(const uint8_t *Data, size_t Size) {
    Bytes.insert(Bytes.end(), Data, Data + Size);
  }

  const std::vector<uint8_t> &bytes() const { return Bytes; }
  std::vector<uint8_t> takeBytes() { return std::move(Bytes); }
  size_t size() const { return Bytes.size(); }

private:
  std::vector<uint8_t> Bytes;
};

/// Reads values written by ByteWriter. An out-of-bounds read sets the
/// sticky failed() flag and yields zeros / empty values instead of
/// touching memory past the buffer, so parsers of untrusted bytes can
/// decode optimistically and reject once at the end.
class ByteReader {
public:
  explicit ByteReader(const std::vector<uint8_t> &Bytes)
      : Data(Bytes.data()), Size(Bytes.size()) {}
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  uint8_t readU8() {
    if (!take(1))
      return 0;
    return Data[Pos++];
  }

  uint32_t readU32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return V;
  }

  uint64_t readU64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos++]) << (8 * I);
    return V;
  }

  std::string readString() {
    uint32_t Len = readU32();
    if (!take(Len))
      return std::string();
    std::string S(reinterpret_cast<const char *>(Data + Pos), Len);
    Pos += Len;
    return S;
  }

  void readBytes(uint8_t *Out, size_t Count) {
    if (!take(Count)) {
      std::memset(Out, 0, Count);
      return;
    }
    std::memcpy(Out, Data + Pos, Count);
    Pos += Count;
  }

  size_t remaining() const { return Size - Pos; }
  /// True once any read ran past the end of the buffer.
  bool failed() const { return Failed; }

private:
  /// Checks that \p Count more bytes exist; trips failed() otherwise.
  bool take(size_t Count) {
    if (Count > Size - Pos) {
      Failed = true;
      return false;
    }
    return true;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace ropt

#endif // ROPT_SUPPORT_SERIALIZE_H
