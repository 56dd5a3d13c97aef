// Fatal-check macros used throughout mmjoin.
//
// The library follows the convention of database kernels (and the Google C++
// style guide): no exceptions on hot paths. Invariant violations are
// programming errors and abort with a message; recoverable conditions are
// expressed through return values.

#ifndef MMJOIN_UTIL_MACROS_H_
#define MMJOIN_UTIL_MACROS_H_

#include <cstdio>
#include <cstdlib>

namespace mmjoin {

[[noreturn]] inline void FatalError(const char* file, int line,
                                    const char* condition) {
  std::fprintf(stderr, "[mmjoin] FATAL %s:%d: check failed: %s\n", file, line,
               condition);
  std::abort();
}

}  // namespace mmjoin

// Always-on invariant check (also in release builds); joins silently
// producing wrong results are worse than aborting.
#define MMJOIN_CHECK(cond)                             \
  do {                                                 \
    if (!(cond)) {                                     \
      ::mmjoin::FatalError(__FILE__, __LINE__, #cond); \
    }                                                  \
  } while (0)

// Debug-only check for per-tuple hot paths.
#ifdef NDEBUG
#define MMJOIN_DCHECK(cond) \
  do {                      \
  } while (0)
#else
#define MMJOIN_DCHECK(cond) MMJOIN_CHECK(cond)
#endif

#if defined(__GNUC__) || defined(__clang__)
#define MMJOIN_LIKELY(x) __builtin_expect(!!(x), 1)
#define MMJOIN_UNLIKELY(x) __builtin_expect(!!(x), 0)
#define MMJOIN_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define MMJOIN_LIKELY(x) (x)
#define MMJOIN_UNLIKELY(x) (x)
#define MMJOIN_ALWAYS_INLINE inline
#endif

// Defined when AddressSanitizer instruments this translation unit (GCC
// spells the test __SANITIZE_ADDRESS__, Clang __has_feature).
#if defined(__SANITIZE_ADDRESS__)
#define MMJOIN_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MMJOIN_ASAN 1
#endif
#endif

#endif  // MMJOIN_UTIL_MACROS_H_
