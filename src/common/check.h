// Internal invariant checking.
//
// WAIF_CHECK aborts with a message when a library invariant is violated; it is
// active in all build types because the simulations are cheap relative to the
// cost of silently corrupt statistics. Use for programmer errors, not for
// validating user-supplied configuration (that throws std::invalid_argument).
#pragma once

namespace waif::detail {

/// Flushes the logging sink and stdout, prints the failed expression, and
/// aborts.
/// Out of line so the abort path can drain buffered diagnostics (crash-point
/// and death tests rely on seeing the final log record).
[[noreturn]] void check_failed(const char* expr, const char* file, int line);

}  // namespace waif::detail

#define WAIF_CHECK(expr)                                         \
  do {                                                           \
    if (!(expr)) ::waif::detail::check_failed(#expr, __FILE__, __LINE__); \
  } while (false)
