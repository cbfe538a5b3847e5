// Skip guard for tests that need span recording. Under MEMCA_TRACE=OFF the
// recorder compiles out to nothing, so a test that reads recorded events
// calls MEMCA_SKIP_IF_TRACE_DISABLED() before its first such read; with
// tracing compiled in the macro expands to nothing.
#pragma once

#include <gtest/gtest.h>

#ifdef MEMCA_TRACE_DISABLED
#define MEMCA_SKIP_IF_TRACE_DISABLED() \
  GTEST_SKIP() << "tracing compiled out (MEMCA_TRACE=OFF)"
#else
#define MEMCA_SKIP_IF_TRACE_DISABLED()
#endif
