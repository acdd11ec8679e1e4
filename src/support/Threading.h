//===- Threading.h - The fixed thread count ---------------------*- C++ -*-===//
///
/// \file
/// Verification and passes run on the calling thread; there is no thread
/// pool and no thread-count setting. The two functions below exist only
/// for pipebench, which pins and reports a thread count
/// (pipebench/main.cpp, pipebench/Workloads.cpp). They go with
/// pipebench's next benchmark-defining change.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_SUPPORT_THREADING_H
#define IRDL_SUPPORT_THREADING_H

#include <cassert>

namespace irdl {

/// Accepts only 0 or 1: one verify runs on one thread.
inline void setGlobalThreadCount(unsigned N) {
  assert(N <= 1 && "verification is single-threaded");
  (void)N;
}

/// Always 1.
inline unsigned getGlobalThreadCount() { return 1; }

} // namespace irdl

#endif // IRDL_SUPPORT_THREADING_H
