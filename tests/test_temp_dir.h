// Per-process scratch directories for tests that touch the filesystem.

#ifndef TESTS_TEST_TEMP_DIR_H_
#define TESTS_TEST_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace jockey {

// An empty directory path under testing::TempDir(), unique to this process. ctest
// runs each test as its own process, and concurrent ctest runs from different
// build trees share TempDir(), so a fixed name would let two runs clobber each
// other's files; the process id keeps them apart. Any leftover from an earlier
// process with the same id is removed. The caller creates and removes the directory.
inline std::string UniqueTempDir(const std::string& name) {
  std::string dir = testing::TempDir() + name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace jockey

#endif  // TESTS_TEST_TEMP_DIR_H_
