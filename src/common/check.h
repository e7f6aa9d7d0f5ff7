#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

/// \file check.h
/// \brief Contract macros for programming-error invariants.
///
/// SPARKOPT_CHECK(cond) aborts with a streamed message when `cond` is
/// false; it is always compiled in. SPARKOPT_DCHECK(cond) is the debug
/// flavor: it compiles to nothing in NDEBUG builds unless SPARKOPT_VERIFY
/// is defined (the invariant-verification build used by CI). Both support
/// streaming extra context:
///
/// \code
///   SPARKOPT_CHECK(idx < ops.size()) << "op id " << idx << " out of range";
///   SPARKOPT_DCHECK_GE(st.num_partitions, 1) << "stage " << st.id;
/// \endcode
///
/// These are for invariants whose violation means a bug in this codebase;
/// recoverable conditions (bad user input, API misuse) return Status.

namespace sparkopt {
namespace internal {

/// Accumulates the streamed message and aborts in its destructor, so the
/// whole `SPARKOPT_CHECK(...) << ...` expression runs before termination.
class CheckFailure {
 public:
  CheckFailure(const char* cond, const char* file, int line) {
    ss_ << "CHECK failed at " << file << ":" << line << ": " << cond;
  }

  [[noreturn]] ~CheckFailure() {
    std::fprintf(stderr, "%s\n", ss_.str().c_str());
    std::fflush(stderr);
    std::abort();
  }

  std::ostringstream& stream() { return ss_; }

 private:
  std::ostringstream ss_;
};

/// Lowers the precedence of the failure expression below `<<` so the
/// ternary in SPARKOPT_CHECK type-checks as void on both branches.
struct CheckVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace sparkopt

#define SPARKOPT_CHECK(cond)                                              \
  (cond) ? (void)0                                                        \
         : ::sparkopt::internal::CheckVoidify() &                         \
               ::sparkopt::internal::CheckFailure(#cond, __FILE__,        \
                                                  __LINE__)               \
                   .stream()

#define SPARKOPT_CHECK_OP(a, b, op)                                       \
  SPARKOPT_CHECK((a)op(b)) << " (with lhs=" << (a) << ", rhs=" << (b)     \
                           << ") "

#define SPARKOPT_CHECK_EQ(a, b) SPARKOPT_CHECK_OP(a, b, ==)
#define SPARKOPT_CHECK_NE(a, b) SPARKOPT_CHECK_OP(a, b, !=)
#define SPARKOPT_CHECK_LT(a, b) SPARKOPT_CHECK_OP(a, b, <)
#define SPARKOPT_CHECK_LE(a, b) SPARKOPT_CHECK_OP(a, b, <=)
#define SPARKOPT_CHECK_GT(a, b) SPARKOPT_CHECK_OP(a, b, >)
#define SPARKOPT_CHECK_GE(a, b) SPARKOPT_CHECK_OP(a, b, >=)

/// DCHECKs are active in debug builds and in SPARKOPT_VERIFY builds.
#if !defined(NDEBUG) || defined(SPARKOPT_VERIFY)
#define SPARKOPT_DCHECK_ENABLED 1
#define SPARKOPT_DCHECK(cond) SPARKOPT_CHECK(cond)
#define SPARKOPT_DCHECK_EQ(a, b) SPARKOPT_CHECK_EQ(a, b)
#define SPARKOPT_DCHECK_NE(a, b) SPARKOPT_CHECK_NE(a, b)
#define SPARKOPT_DCHECK_LT(a, b) SPARKOPT_CHECK_LT(a, b)
#define SPARKOPT_DCHECK_LE(a, b) SPARKOPT_CHECK_LE(a, b)
#define SPARKOPT_DCHECK_GT(a, b) SPARKOPT_CHECK_GT(a, b)
#define SPARKOPT_DCHECK_GE(a, b) SPARKOPT_CHECK_GE(a, b)
#else
#define SPARKOPT_DCHECK_ENABLED 0
// Swallow the streamed operands without evaluating the condition.
#define SPARKOPT_DCHECK_NOOP(cond)                                        \
  true ? (void)0                                                          \
       : ::sparkopt::internal::CheckVoidify() &                           \
             ::sparkopt::internal::CheckFailure(#cond, __FILE__,          \
                                                __LINE__)                 \
                 .stream()
#define SPARKOPT_DCHECK(cond) SPARKOPT_DCHECK_NOOP(cond)
#define SPARKOPT_DCHECK_EQ(a, b) SPARKOPT_DCHECK_NOOP((a) == (b))
#define SPARKOPT_DCHECK_NE(a, b) SPARKOPT_DCHECK_NOOP((a) != (b))
#define SPARKOPT_DCHECK_LT(a, b) SPARKOPT_DCHECK_NOOP((a) < (b))
#define SPARKOPT_DCHECK_LE(a, b) SPARKOPT_DCHECK_NOOP((a) <= (b))
#define SPARKOPT_DCHECK_GT(a, b) SPARKOPT_DCHECK_NOOP((a) > (b))
#define SPARKOPT_DCHECK_GE(a, b) SPARKOPT_DCHECK_NOOP((a) >= (b))
#endif
