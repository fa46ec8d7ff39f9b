//===- ir/Program.h - Procedures and whole programs ------------*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Program is a set of procedures, each a CFG of basic blocks. Programs
/// stand in for the stripped x86 binaries the paper instruments; the
/// verifier (verify()) enforces the structural invariants the execution
/// engine and the static analyses rely on.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_IR_PROGRAM_H
#define PBT_IR_PROGRAM_H

#include "ir/BasicBlock.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pbt {

/// A procedure: an intra-procedural CFG whose entry is block 0.
struct Procedure {
  uint32_t Id = 0;
  std::string Name;
  std::vector<BasicBlock> Blocks;

  const BasicBlock &entry() const { return Blocks.front(); }

  size_t instructionCount() const {
    size_t N = 0;
    for (const BasicBlock &BB : Blocks)
      N += BB.size();
    return N;
  }

  uint64_t byteSize() const {
    uint64_t Bytes = 0;
    for (const BasicBlock &BB : Blocks)
      Bytes += BB.byteSize();
    return Bytes;
  }

  /// Exact structural equality: id, name, and every block.
  bool operator==(const Procedure &Other) const {
    return Id == Other.Id && Name == Other.Name && Blocks == Other.Blocks;
  }
  bool operator!=(const Procedure &Other) const {
    return !(*this == Other);
  }
};

/// A whole program. Procedure 0 is `main` by convention.
struct Program {
  std::string Name;
  std::vector<Procedure> Procs;

  const Procedure &main() const { return Procs.front(); }

  size_t instructionCount() const {
    size_t N = 0;
    for (const Procedure &P : Procs)
      N += P.instructionCount();
    return N;
  }

  /// Encoded program size in bytes (the "original binary size" used for
  /// the paper's Fig. 3 space-overhead measurement).
  uint64_t byteSize() const {
    uint64_t Bytes = 0;
    for (const Procedure &P : Procs)
      Bytes += P.byteSize();
    return Bytes;
  }

  /// Total number of basic blocks across all procedures.
  size_t blockCount() const {
    size_t N = 0;
    for (const Procedure &P : Procs)
      N += P.Blocks.size();
    return N;
  }

  /// First global block id of each procedure: procedure P's block B
  /// has global id `blockOffsets()[P] + B`, procedures laid out in id
  /// order (the numbering of CostModel's layout and of
  /// InstrumentedProgram's mark table).
  std::vector<uint32_t> blockOffsets() const {
    std::vector<uint32_t> Offsets(Procs.size());
    uint32_t Total = 0;
    for (const Procedure &P : Procs) {
      Offsets[P.Id] = Total;
      Total += static_cast<uint32_t>(P.Blocks.size());
    }
    return Offsets;
  }

  /// Exact structural equality: name and every procedure.
  bool operator==(const Program &Other) const {
    return Name == Other.Name && Procs == Other.Procs;
  }
  bool operator!=(const Program &Other) const {
    return !(*this == Other);
  }
};

/// Checks structural invariants; on failure writes a diagnostic to
/// \p ErrorOut (when non-null) and returns false. Invariants:
///  - every procedure has at least one block and block ids equal indices;
///  - successor ids are in range for their procedure;
///  - terminator arity: Jump=1 succ, Loop=2 succs (distinct), Cond>=1,
///    Ret=0; Loop trip counts >= 1; Cond probabilities in [0,1];
///  - Call instructions appear only as the last instruction of a block
///    whose terminator is Jump (the successor is the return continuation);
///  - call targets are valid procedure ids.
bool verify(const Program &Prog, std::string *ErrorOut = nullptr);

/// Renders a human-readable CFG listing of \p Prog (one line per block).
std::string printProgram(const Program &Prog);

} // namespace pbt

#endif // PBT_IR_PROGRAM_H
