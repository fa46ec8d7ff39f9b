//===- tests/TestDirs.h - Scratch directories for store tests --*- C++ -*-===//
//
// Part of the phase-based-tuning reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scratch-directory helper for tests that exercise the on-disk
/// CacheStore. Historically those tests used bare relative paths
/// ("exp_test_gc.cache"), which dropped store directories into whatever
/// the current working directory was — the repo root when running a
/// test binary by hand — and let state leak between runs (a stale store
/// can satisfy a request the test expects to be cold). testCacheDir()
/// routes every store under one per-process directory in TMPDIR,
/// removed recursively when the test process exits, so runs are
/// hermetic and the tree stays clean.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_TESTS_TESTDIRS_H
#define PBT_TESTS_TESTDIRS_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <string>
#include <sys/stat.h>
#include <unistd.h>

namespace pbt_test {

/// Removes \p Path and everything under it (best-effort; the tree is
/// at most a couple of levels of store directories full of files), or
/// the file \p Path names.
inline void removeTree(const std::string &Path) {
  DIR *D = ::opendir(Path.c_str());
  if (!D) {
    std::remove(Path.c_str());
    return;
  }
  while (const dirent *E = ::readdir(D)) {
    if (std::strcmp(E->d_name, ".") == 0 || std::strcmp(E->d_name, "..") == 0)
      continue;
    std::string Child = Path + "/" + E->d_name;
    struct stat St;
    if (::lstat(Child.c_str(), &St) == 0 && S_ISDIR(St.st_mode))
      removeTree(Child);
    else
      std::remove(Child.c_str());
  }
  ::closedir(D);
  ::rmdir(Path.c_str());
}

/// The per-process scratch root, created on first use and removed
/// (recursively) when the process exits. Forked children that die via
/// _exit skip the cleanup by design — the parent's exit collects the
/// whole tree.
inline const std::string &testTmpRoot() {
  static struct Root {
    std::string Path;
    Root() {
      const char *Base = ::getenv("TMPDIR");
      std::string B = Base && *Base ? Base : "/tmp";
      while (!B.empty() && B.back() == '/')
        B.pop_back();
      Path = B + "/pbt-tests-" + std::to_string(::getpid());
      ::mkdir(Path.c_str(), 0755);
    }
    ~Root() { removeTree(Path); }
  } R;
  return R.Path;
}

/// A scratch path for one test scenario's store directory: unique to
/// this process, outside the source tree, collected at process exit.
/// Whatever an earlier run of the scenario left there (--gtest_repeat
/// runs every test again in the same process) is removed first, so each
/// run starts from an empty path; every scenario uses its own name. The
/// directory itself is not created — CacheStore's constructor does
/// that, which is part of what the tests exercise.
inline std::string testCacheDir(const std::string &Name) {
  std::string Path = testTmpRoot() + "/" + Name;
  removeTree(Path);
  return Path;
}

} // namespace pbt_test

#endif // PBT_TESTS_TESTDIRS_H
