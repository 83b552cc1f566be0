#pragma once

/// \file cli_flags.h
/// Typed command-line values for the example CLIs and the benches'
/// harness flags.  A malformed value — empty, trailing garbage, out of
/// range, an unknown enum spelling — throws std::invalid_argument; each
/// CLI reports it with the flag's name and exits 1.
///
/// Messages are built with += rather than `const char* + std::string`
/// chains, which trip a GCC 12 -Wrestrict false positive at -O3.

#include <charconv>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

namespace medea::cli {

/// Parse all of `v` as a T within [lo, hi].  Throws std::invalid_argument
/// on an empty value, trailing garbage, or a value outside the range
/// (NaN and infinities included).
template <typename T>
T parse_num(std::string_view v, T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max()) {
  T x{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  const auto quoted = [&v] {
    std::string q = "'";
    q += v;
    q += '\'';
    return q;
  };
  if (ec == std::errc::invalid_argument || end != v.data() + v.size()) {
    throw std::invalid_argument(quoted() + " is not a number");
  }
  if (ec == std::errc::result_out_of_range || !(x >= lo && x <= hi)) {
    std::ostringstream range;
    range << " is out of range [" << +lo << ", " << +hi << "]";
    throw std::invalid_argument(quoted() + range.str());
  }
  return x;
}

/// argv[i] as an int in [lo, hi], or `fallback` when it was not given.
/// A malformed value throws std::invalid_argument prefixed with `name`.
inline int positional(int argc, char** argv, int i, const char* name,
                      int fallback, int lo, int hi) {
  if (argc <= i) return fallback;
  try {
    return parse_num<int>(argv[i], lo, hi);
  } catch (const std::invalid_argument& e) {
    std::string msg = name;
    msg += ": ";
    msg += e.what();
    throw std::invalid_argument(msg);
  }
}

/// The value `v` names among `choices`; anything else is an error that
/// lists the accepted spellings.
template <typename E>
E parse_enum(const char* v,
             std::initializer_list<std::pair<const char*, E>> choices) {
  std::string names;
  for (const auto& [name, e] : choices) {
    if (std::strcmp(v, name) == 0) return e;
    if (!names.empty()) names += '|';
    names += name;
  }
  std::string msg = "unknown value '";
  msg += v;
  msg += "' (expected ";
  msg += names;
  msg += ')';
  throw std::invalid_argument(msg);
}

}  // namespace medea::cli
