#include "util/cli.hpp"

#include <optional>
#include <stdexcept>

#include "util/string_util.hpp"

namespace socmix::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "true";  // bare flag
    }
  }
}

bool Cli::has(const std::string& name) const { return options_.contains(name); }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

namespace {

template <typename T>
T parsed_or_throw(const std::string& name, const std::string& value,
                  std::optional<T> parsed, const char* expected) {
  if (!parsed) {
    throw std::invalid_argument{"--" + name + "=" + value + ": expected " + expected};
  }
  return *parsed;
}

}  // namespace

std::int64_t Cli::get_i64(const std::string& name, std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parsed_or_throw(name, it->second, parse_i64(it->second), "an integer");
}

double Cli::get_f64(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parsed_or_throw(name, it->second, parse_f64(it->second), "a number");
}

bool Cli::get_flag(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return false;
  const std::string v = to_lower(it->second);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace socmix::util
