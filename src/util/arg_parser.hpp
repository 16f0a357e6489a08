#pragma once
/// \file arg_parser.hpp
/// \brief Tiny command-line argument parser for the example and bench
/// executables. Supports --flag, --key=value and --key value forms.

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace efd::util {

/// Parsed command line. Unknown options are collected, not rejected, so
/// google-benchmark flags pass through harmlessly; a program that wants
/// to reject them asks unknown_options().
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Program name (argv[0]).
  const std::string& program() const noexcept { return program_; }

  /// True if --name was present (with or without a value).
  bool has(const std::string& name) const;

  /// String value of --name, or fallback. With repeats, the LAST wins.
  std::string get(const std::string& name, const std::string& fallback = "") const;

  /// Every value a repeated --name was given, in command-line order
  /// (empty when absent) — e.g. `serve --listen tcp:0 --listen udp:0`.
  std::vector<std::string> get_all(const std::string& name) const;

  /// Integer value of --name, or fallback on absence/parse failure.
  long long get_int(const std::string& name, long long fallback) const;

  /// Double value of --name, or fallback on absence/parse failure.
  double get_double(const std::string& name, double fallback) const;

  /// Every option given that is not in \p known, in command-line order.
  std::vector<std::string> unknown_options(
      const std::vector<std::string>& known) const;

  /// Positional (non --option) arguments in order.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  /// (key, value) in command-line order, for get_all on repeated flags.
  std::vector<std::pair<std::string, std::string>> ordered_;
  std::vector<std::string> positional_;
};

}  // namespace efd::util
