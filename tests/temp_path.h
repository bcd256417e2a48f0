// Scratch file names for file-backed tests. ctest runs every gtest case as
// its own process, several at once, so a fixed name under TempDir() would let
// cases of one binary race on the same file; the pid and the running test's
// full name make each path private to one case.

#ifndef BOXAGG_TESTS_TEMP_PATH_H_
#define BOXAGG_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace boxagg {

/// TempDir()/<stem>.<pid>.<Suite>.<Test>, with the '/' of parameterized test
/// names replaced so the result stays one directory entry.
inline std::string TestTempPath(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? "no_test"
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');
  return ::testing::TempDir() + stem + "." + std::to_string(::getpid()) + "." +
         test;
}

}  // namespace boxagg

#endif  // BOXAGG_TESTS_TEMP_PATH_H_
