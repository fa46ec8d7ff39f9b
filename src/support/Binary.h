//===- support/Binary.h - Bit-exact binary serialization -------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian binary serialization helpers for the experiment layer's
/// persistent artifacts (exp/CacheStore). The encoding is fixed-width and
/// field-by-field — no struct memcpy, so padding and ABI never leak into
/// a file — and doubles are stored by bit pattern, so every numeric table
/// round-trips bit-identically. BinaryReader is fully bounds-checked: any
/// out-of-range or malformed read latches a failure flag (subsequent
/// reads return zero values) instead of touching memory out of bounds,
/// which is what lets CacheStore treat truncated or corrupt files as
/// plain cache misses.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_BINARY_H
#define PBT_SUPPORT_BINARY_H

#include <cstdint>
#include <cstring>
#include <string>

namespace pbt {

/// Append-only little-endian encoder over a growable byte buffer.
class BinaryWriter {
public:
  void u8(uint8_t Value) { Buf.push_back(static_cast<char>(Value)); }

  void u32(uint32_t Value) {
    for (int Shift = 0; Shift < 32; Shift += 8)
      Buf.push_back(static_cast<char>((Value >> Shift) & 0xFF));
  }

  void u64(uint64_t Value) {
    for (int Shift = 0; Shift < 64; Shift += 8)
      Buf.push_back(static_cast<char>((Value >> Shift) & 0xFF));
  }

  void i32(int32_t Value) { u32(static_cast<uint32_t>(Value)); }

  /// Stores the IEEE-754 bit pattern, so values round-trip bit-exactly
  /// (including -0.0, infinities, and NaN payloads).
  void f64(double Value) {
    uint64_t Bits;
    std::memcpy(&Bits, &Value, sizeof(Bits));
    u64(Bits);
  }

  /// Length-prefixed (u32) byte string.
  void str(const std::string &Value) {
    u32(static_cast<uint32_t>(Value.size()));
    Buf.append(Value);
  }

  const std::string &buffer() const { return Buf; }

private:
  std::string Buf;
};

/// Bounds-checked decoder over a byte range. The first malformed read
/// latches failed(); all subsequent reads return zero values.
class BinaryReader {
public:
  BinaryReader(const void *Data, size_t Size)
      : Ptr(static_cast<const uint8_t *>(Data)), Len(Size) {}
  explicit BinaryReader(const std::string &Data)
      : BinaryReader(Data.data(), Data.size()) {}

  uint8_t u8() {
    if (!take(1))
      return 0;
    return Ptr[Pos++];
  }

  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t Value = 0;
    for (int Shift = 0; Shift < 32; Shift += 8)
      Value |= static_cast<uint32_t>(Ptr[Pos++]) << Shift;
    return Value;
  }

  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t Value = 0;
    for (int Shift = 0; Shift < 64; Shift += 8)
      Value |= static_cast<uint64_t>(Ptr[Pos++]) << Shift;
    return Value;
  }

  int32_t i32() { return static_cast<int32_t>(u32()); }

  /// Reads an element count and rejects values above \p Limit or larger
  /// than the remaining bytes could possibly encode (each element needs
  /// at least \p ElemBytes), so a corrupt length prefix can never drive
  /// an allocation bigger than the file itself. Returns 0 (with
  /// failed() latched) when out of range.
  uint32_t count(uint32_t Limit, size_t ElemBytes = 1) {
    uint32_t N = u32();
    if (N > Limit ||
        static_cast<uint64_t>(N) * ElemBytes > remaining()) {
      Fail = true;
      return 0;
    }
    return N;
  }

  double f64() {
    uint64_t Bits = u64();
    double Value;
    std::memcpy(&Value, &Bits, sizeof(Value));
    return Value;
  }

  std::string str() {
    uint32_t Size = u32();
    if (!take(Size))
      return std::string();
    std::string Value(reinterpret_cast<const char *>(Ptr + Pos), Size);
    Pos += Size;
    return Value;
  }

  /// Remaining unread bytes.
  size_t remaining() const { return Fail ? 0 : Len - Pos; }

  /// True once any read ran past the end (or markFailed() was called).
  bool failed() const { return Fail; }

  /// Latch a semantic validation failure (e.g. an out-of-range count),
  /// poisoning all subsequent reads.
  void markFailed() { Fail = true; }

private:
  bool take(size_t Count) {
    if (Fail || Len - Pos < Count) {
      Fail = true;
      return false;
    }
    return true;
  }

  const uint8_t *Ptr;
  size_t Len;
  size_t Pos = 0;
  bool Fail = false;
};

/// FNV-1a over \p Size bytes (payload checksums; stable across runs).
/// The one byte-level FNV primitive in support/ — Hashing.h's
/// hashString delegates here, and persisted-file checksums depend on
/// these constants staying fixed.
inline uint64_t fnv1a(const void *Data, size_t Size) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  uint64_t H = 0xCBF29CE484222325ULL;
  for (size_t I = 0; I < Size; ++I) {
    H ^= Bytes[I];
    H *= 0x100000001B3ULL;
  }
  return H;
}

/// Writes \p Data to \p Path atomically: the bytes go to a sibling
/// temporary file (`<path>.tmp.<pid>`) that is fsynced and then renamed
/// into place — so concurrent readers never observe a half-written
/// file, and a crash (or power cut) at any instant leaves either the
/// old entry, the new entry, or a stale temp file, never a torn
/// destination. The rename itself becomes durable with the next
/// syncDirectory of the parent, which a caller writing many files runs
/// once after the last of them. Every step routes through
/// `support/FaultInjection`, so tests can inject EIO, short writes, torn
/// renames, and crash points. Returns false on I/O failure.
bool writeFileAtomic(const std::string &Path, const std::string &Data);

/// fsyncs the directory \p Dir, so renames into it survive a power cut
/// (a rename lives in directory metadata). Best-effort: some
/// filesystems refuse directory fsync; the renames stay crash-atomic,
/// only their durability window widens.
void syncDirectory(const std::string &Dir);

/// Reads the whole file at \p Path into \p Out; false when unreadable.
bool readFile(const std::string &Path, std::string &Out);

} // namespace pbt

#endif // PBT_SUPPORT_BINARY_H
