// Tiny argv parser for bench/example drivers.
//
// Supports `--name value` and `--name=value` plus boolean flags. Good enough
// for the experiment harness; deliberately not a general CLI framework.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace socmix::util {

class Cli {
 public:
  /// Parses argv. Every option is accepted; each driver reads the ones it
  /// knows, and a tool that lists them all refuses the rest with
  /// refuse_unknown.
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Throws std::invalid_argument naming the first option (in name order)
  /// that is not in `known`: a misspelt flag fails instead of silently
  /// leaving its default in place.
  void refuse_unknown(std::span<const std::string_view> known) const;
  /// Throws std::invalid_argument naming both flags when `a` and `b` are
  /// both given (`why` says which one the tool reads), so a conflicting
  /// flag is refused instead of silently dropped.
  void refuse_together(const std::string& a, const std::string& b,
                       const std::string& why) const;

  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;
  /// Numeric options: `fallback` when absent; a present value that does
  /// not parse throws std::invalid_argument naming the flag and the value.
  [[nodiscard]] std::int64_t get_i64(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_f64(const std::string& name, double fallback) const;
  /// Count options (sources, steps, nodes, threads, sizes): `fallback`
  /// when absent; a present value that is not an integer in [0, max]
  /// throws std::invalid_argument naming the flag and the value — a
  /// negative count never wraps around into a huge one.
  [[nodiscard]] std::size_t get_count(
      const std::string& name, std::size_t fallback,
      std::size_t max = std::numeric_limits<std::size_t>::max()) const;
  /// get_count for drivers that read a count outside any try block; see
  /// or_exit.
  [[nodiscard]] std::size_t get_count_or_exit(
      const std::string& name, std::size_t fallback,
      std::size_t max = std::numeric_limits<std::size_t>::max()) const;
  /// get_count for counts that must be at least 1 (intervals, verifier
  /// counts, sample sizes): 0 throws as well, naming the flag and the value.
  [[nodiscard]] std::size_t get_positive(
      const std::string& name, std::size_t fallback,
      std::size_t max = std::numeric_limits<std::size_t>::max()) const;
  /// get_f64 for magnitudes that must be a positive finite number
  /// (multipliers, rates): 0, a negative, NaN or infinity throws as well,
  /// naming the flag and the value.
  [[nodiscard]] double get_positive_f64(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Runs `parse` (a get_* call) for a driver that reads a flag outside
  /// any try block: a std::invalid_argument it throws prints
  /// "<program>: <message naming the flag>" to stderr and exits 1, instead
  /// of escaping main as an uncaught exception.
  template <typename Parse>
  [[nodiscard]] auto or_exit(Parse&& parse) const {
    try {
      return parse();
    } catch (const std::invalid_argument& e) {
      exit_refused(e);
    }
  }

  /// Positional (non --option) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  [[noreturn]] void exit_refused(const std::invalid_argument& e) const;

  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace socmix::util
