#include "util/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
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

void Cli::refuse_unknown(std::span<const std::string_view> known) const {
  for (const auto& [name, value] : options_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw std::invalid_argument{"--" + name + ": unknown flag"};
    }
  }
}

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

/// The one range check behind get_count and get_positive: an integer in
/// [min, max], else std::invalid_argument naming the flag and the value.
std::size_t count_in_range(const std::string& name, const std::string& value,
                           std::size_t min, std::size_t max) {
  const auto parsed = parse_i64(value);
  if (!parsed || *parsed < 0 || static_cast<std::uint64_t>(*parsed) < min ||
      static_cast<std::uint64_t>(*parsed) > max) {
    const std::string expected =
        max == std::numeric_limits<std::size_t>::max()
            ? (min == 0 ? "a non-negative integer" : "a positive integer")
            : "an integer in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
    throw std::invalid_argument{"--" + name + "=" + value + ": expected " + expected};
  }
  return static_cast<std::size_t>(*parsed);
}

}  // namespace

std::int64_t Cli::get_i64(const std::string& name, std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parsed_or_throw(name, it->second, parse_i64(it->second), "an integer");
}

std::size_t Cli::get_count(const std::string& name, std::size_t fallback,
                           std::size_t max) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : count_in_range(name, it->second, 0, max);
}

std::size_t Cli::get_count_or_exit(const std::string& name, std::size_t fallback,
                                   std::size_t max) const {
  try {
    return get_count(name, fallback, max);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n",
                 std::filesystem::path{program_}.filename().string().c_str(), e.what());
    std::exit(1);
  }
}

std::size_t Cli::get_positive(const std::string& name, std::size_t fallback,
                              std::size_t max) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : count_in_range(name, it->second, 1, max);
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
