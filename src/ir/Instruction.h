//===- ir/Instruction.h - Abstract machine instruction ---------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction representation for the binary-level program model. The
/// paper operates on x86 binaries recovered with GNU Binutils; this
/// reproduction substitutes a compact abstract instruction set carrying
/// exactly the information the paper's analyses consume: the instruction
/// class (for instruction-mix features), an encoded size in bytes (for
/// space-overhead accounting), and a symbolic memory reference (for
/// reuse-distance-based cache estimation).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_IR_INSTRUCTION_H
#define PBT_IR_INSTRUCTION_H

#include <cassert>
#include <cstdint>

namespace pbt {

/// Instruction classes. Kept deliberately coarse: the paper's block-typing
/// features are built from "a combination of instruction types as well as a
/// rough estimate of cache behavior" (Sec. II-A3).
enum class InstKind : uint8_t {
  IntAlu,  ///< Integer arithmetic / logic.
  FpAlu,   ///< Floating-point arithmetic.
  Load,    ///< Memory read; carries a MemRef id.
  Store,   ///< Memory write; carries a MemRef id.
  Branch,  ///< Control transfer within the procedure.
  Call,    ///< Procedure call; carries a callee procedure id.
  Ret,     ///< Procedure return.
  Syscall, ///< System call (a special CFG node kind in the paper).
};

/// Returns true for Load/Store instructions.
inline bool isMemoryKind(InstKind Kind) {
  return Kind == InstKind::Load || Kind == InstKind::Store;
}

/// Returns a short mnemonic for \p Kind ("int", "fp", ...).
const char *instKindName(InstKind Kind);

/// A single abstract instruction.
///
/// MemRef identifies the 64-byte line the instruction touches, as an index
/// into a per-block symbolic address space; -1 when not a memory op.
/// Callee is the callee procedure id for Call instructions; -1 otherwise.
struct Instruction {
  InstKind Kind = InstKind::IntAlu;
  uint8_t SizeBytes = 3;
  int32_t MemRef = -1;
  int32_t Callee = -1;

  static Instruction intAlu(uint8_t Size = 3) {
    return {InstKind::IntAlu, Size, -1, -1};
  }
  static Instruction fpAlu(uint8_t Size = 4) {
    return {InstKind::FpAlu, Size, -1, -1};
  }
  static Instruction load(int32_t Ref, uint8_t Size = 4) {
    assert(Ref >= 0 && "loads require a memory reference");
    return {InstKind::Load, Size, Ref, -1};
  }
  static Instruction store(int32_t Ref, uint8_t Size = 4) {
    assert(Ref >= 0 && "stores require a memory reference");
    return {InstKind::Store, Size, Ref, -1};
  }
  static Instruction branch(uint8_t Size = 2) {
    return {InstKind::Branch, Size, -1, -1};
  }
  static Instruction call(int32_t CalleeProc, uint8_t Size = 5) {
    assert(CalleeProc >= 0 && "calls require a callee");
    return {InstKind::Call, Size, -1, CalleeProc};
  }
  static Instruction ret() { return {InstKind::Ret, 1, -1, -1}; }
  static Instruction syscall() { return {InstKind::Syscall, 2, -1, -1}; }

  /// Exact equality over every field.
  bool operator==(const Instruction &Other) const {
    return Kind == Other.Kind && SizeBytes == Other.SizeBytes &&
           MemRef == Other.MemRef && Callee == Other.Callee;
  }
  bool operator!=(const Instruction &Other) const {
    return !(*this == Other);
  }
};

} // namespace pbt

#endif // PBT_IR_INSTRUCTION_H
