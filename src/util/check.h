// Contract checking macros used throughout the library.
//
// DC_REQUIRE  — precondition on the caller; violation is a logic error.
// DC_ENSURE   — postcondition / internal invariant; violation is a bug in
//               this library.
//
// Both throw (rather than abort) so that tests can assert on contract
// violations and so that long benchmark sweeps surface a clean error.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace deltacol {

class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
// Builds the message only on failure: the check site passes it as a lambda,
// so a message built from strings costs the fast path no code (an inline
// std::string expression at the site can stop GCC inlining the loop around
// the check).
template <typename MakeMessage>
[[noreturn, gnu::cold, gnu::noinline]] void contract_fail(
    const char* kind, const char* expr, const char* file, int line,
    const MakeMessage& make_message) {
  const std::string msg(make_message());
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw ContractViolation(os.str());
}
}  // namespace detail

}  // namespace deltacol

#define DC_REQUIRE(cond, msg)                                                \
  do {                                                                       \
    if (!(cond))                                                             \
      ::deltacol::detail::contract_fail("DC_REQUIRE", #cond, __FILE__,       \
                                        __LINE__, [&] { return (msg); });    \
  } while (0)

#define DC_ENSURE(cond, msg)                                                 \
  do {                                                                       \
    if (!(cond))                                                             \
      ::deltacol::detail::contract_fail("DC_ENSURE", #cond, __FILE__,        \
                                        __LINE__, [&] { return (msg); });    \
  } while (0)
