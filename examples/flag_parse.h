// Strict command-line value parsing shared by the launchers (deltacol_cli,
// deltacol_mpi_like) and the examples' positional arguments (quickstart,
// brooks_repair, frequency_assignment, tdma_scheduling). A malformed flag or
// argument is a usage error: the program prints the message, which names
// it, and exits 2. Nothing is coerced — "abc", "12x", "" and out-of-range
// values are all rejected.
#pragma once

#include <charconv>
#include <stdexcept>
#include <string>
#include <system_error>

namespace flag_parse {

// A malformed command line; what() names the offending flag.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The value following the flag at argv[i]; advances i past it.
inline std::string next_value(int argc, char** argv, int& i) {
  const std::string flag = argv[i];
  if (i + 1 >= argc) throw UsageError(flag + " needs a value");
  return argv[++i];
}

// `text` as a base-10 integer in [lo, hi]: the whole string must be digits
// with an optional leading '-' (no sign for unsigned T, no '+', no spaces).
template <typename T>
T integer(const std::string& flag, const std::string& text, T lo, T hi) {
  T out{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
  if (text.empty() || ec != std::errc() || ptr != last || out < lo ||
      out > hi) {
    throw UsageError(flag + " expects an integer in [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "], got '" + text + "'");
  }
  return out;
}

// Positional argument argv[pos], named `name` in the message, read by
// integer(); `fallback` when the command line ends before it.
template <typename T>
T positional(int argc, char** argv, int pos, const std::string& name,
             T fallback, T lo, T hi) {
  return pos < argc ? integer<T>(name, argv[pos], lo, hi) : fallback;
}

}  // namespace flag_parse
