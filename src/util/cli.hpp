// Tiny argv parser for bench/example drivers.
//
// Supports `--name value` and `--name=value` plus boolean flags. Good enough
// for the experiment harness; deliberately not a general CLI framework.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace socmix::util {

class Cli {
 public:
  /// Parses argv. Every option is accepted; each driver reads the ones it
  /// knows and ignores the rest.
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;
  /// Numeric options: `fallback` when absent; a present value that does
  /// not parse throws std::invalid_argument naming the flag and the value.
  [[nodiscard]] std::int64_t get_i64(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_f64(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Positional (non --option) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace socmix::util
