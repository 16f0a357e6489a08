#include "util/arg_parser.hpp"

#include <algorithm>

#include "util/string_utils.hpp"

namespace efd::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (starts_with(arg, "--")) {
      std::string body = arg.substr(2);
      std::string key, value;
      const std::size_t eq = body.find('=');
      if (eq != std::string::npos) {
        key = body.substr(0, eq);
        value = body.substr(eq + 1);
      } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        key = std::move(body);
        value = argv[++i];
      } else {
        key = std::move(body);
      }
      options_[key] = value;
      ordered_.emplace_back(std::move(key), std::move(value));
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return options_.count(name) > 0;
}

std::string ArgParser::get(const std::string& name, const std::string& fallback) const {
  const auto it = options_.find(name);
  return it != options_.end() ? it->second : fallback;
}

std::vector<std::string> ArgParser::get_all(const std::string& name) const {
  std::vector<std::string> values;
  for (const auto& [key, value] : ordered_) {
    if (key == name) values.push_back(value);
  }
  return values;
}

std::vector<std::string> ArgParser::unknown_options(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : ordered_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      unknown.push_back(key);
    }
  }
  return unknown;
}

long long ArgParser::get_int(const std::string& name, long long fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const auto parsed = parse_int(it->second);
  return parsed ? *parsed : fallback;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const auto parsed = parse_double(it->second);
  return parsed ? *parsed : fallback;
}

}  // namespace efd::util
