#include "common/check.h"

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace waif::detail {

void check_failed(const char* expr, const char* file, int line) {
  // Drain any buffered log lines first: when a crash-point test kills the
  // process here, the final records are what explain the failure. The same
  // holds for stdout: a bench's table and the figure its check just failed
  // would otherwise die in the stdio buffer when stdout is a pipe or file.
  flush_logging();
  std::fflush(stdout);
  std::fprintf(stderr, "WAIF_CHECK failed: %s at %s:%d\n", expr, file, line);
  std::fflush(stderr);
  std::abort();
}

}  // namespace waif::detail
