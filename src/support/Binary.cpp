//===- support/Binary.cpp - Bit-exact binary serialization ----------------===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Binary.h"

#include "support/FaultInjection.h"

#include <cstdio>

#include <fcntl.h>
#include <unistd.h>

using namespace pbt;

void pbt::syncDirectory(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (Fd < 0)
    return;
  ::fsync(Fd);
  ::close(Fd);
}

bool pbt::writeFileAtomic(const std::string &Path, const std::string &Data) {
  FaultInjection &FI = FaultInjection::instance();

  // The temporary lives in the same directory so the rename is atomic
  // (never crosses a filesystem boundary); the pid keeps concurrent
  // writers of the same path from clobbering each other's half-written
  // bytes, and lets the store's startup sweep tell stale temps (dead
  // pid) from in-flight ones. Threads of one process share the pid, so
  // they must not write one path at once (the store's per-key flock
  // serializes them).
  std::string Tmp = Path + ".tmp." + std::to_string(getpid());
  if (FI.failOp("atomic.open"))
    return false;
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return false;

  // The payload goes out in two halves with a crash point between, so
  // injected crashes leave a genuinely torn temp file behind. A
  // "short write" fault models the same tear without dying: the temp
  // stays truncated on disk (for the sweep to collect) and the write
  // reports failure.
  size_t Half = Data.size() / 2;
  size_t Written =
      Half == 0 ? 0 : std::fwrite(Data.data(), 1, Half, F);
  FI.crashPoint("atomic.mid_write");
  bool Truncate = FI.truncateWrite("atomic.write");
  if (!Truncate && Data.size() > Half)
    Written += std::fwrite(Data.data() + Half, 1, Data.size() - Half, F);

  // A torn write must never be renamed into place: flush and fsync the
  // payload BEFORE the rename, so the entry is durable the instant it
  // becomes visible.
  bool Flushed = std::fflush(F) == 0;
  bool Synced = !FI.failOp("atomic.fsync") && ::fsync(::fileno(F)) == 0;
  // fclose unconditionally (no short-circuit): a short write must not
  // leak the descriptor.
  bool Closed = std::fclose(F) == 0;
  if (Truncate) // Leave the torn temp for the sweep, as a crash would.
    return false;
  if (Written != Data.size() || !Flushed || !Synced || !Closed) {
    std::remove(Tmp.c_str());
    return false;
  }

  FI.crashPoint("atomic.before_rename"); // Complete temp, not yet visible.
  if (FI.tornRename("atomic.rename")) {
    // Model a non-atomic rename (or a crash inside one): the
    // destination receives only a prefix of the data, the temp is
    // gone, and the writer believes it succeeded. Readers must
    // quarantine the torn entry.
    std::FILE *Torn = std::fopen(Path.c_str(), "wb");
    if (Torn) {
      if (Half > 0)
        std::fwrite(Data.data(), 1, Half, Torn);
      std::fclose(Torn);
    }
    std::remove(Tmp.c_str());
    return true;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  FI.crashPoint("atomic.after_rename"); // Entry visible and complete.
  return true;
}

bool pbt::readFile(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  Out.clear();
  char Buf[1 << 16];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, Got);
  bool Ok = std::ferror(F) == 0;
  std::fclose(F);
  return Ok;
}
