// Process-wide count of global operator new calls, for the zero-heap-
// allocation tests. count_new.cc replaces the global operator new/delete
// with counting versions; link it into a test target (see
// tests/CMakeLists.txt) and compare NewCount() around the code under test.
// The replacements live in their own translation unit so the compiler never
// sees a new-expression and its replacement body together.

#ifndef BOXAGG_TESTS_COUNT_NEW_H_
#define BOXAGG_TESTS_COUNT_NEW_H_

#include <cstdint>

namespace boxagg {

/// Global operator new calls made by the process so far.
uint64_t NewCount();

}  // namespace boxagg

#endif  // BOXAGG_TESTS_COUNT_NEW_H_
