#include "bench_harness/provenance.hpp"

#include <cstdlib>
#include <ctime>
#include <string>

#include "linalg/simd/kernels.hpp"
#include "obs/export.hpp"
#include "util/parallel.hpp"

#ifndef SOCMIX_GIT_DESCRIBE
#define SOCMIX_GIT_DESCRIBE "unknown"
#endif
#ifndef SOCMIX_BUILD_TYPE
#define SOCMIX_BUILD_TYPE "unknown"
#endif
#ifndef SOCMIX_COMPILER_ID
#define SOCMIX_COMPILER_ID "unknown"
#endif

namespace socmix::bench {

namespace {

// The configure-time describe can still come out "unknown" when the build
// was configured outside the checkout's history (tarball export, or a CI
// configure that ran before the env landed). GITHUB_SHA names the exact
// commit in any Actions job, so artifacts stay joinable in bench_compare
// either way.
std::string git_identity() {
  std::string git = SOCMIX_GIT_DESCRIBE;
  if (git == "unknown") {
    if (const char* sha = std::getenv("GITHUB_SHA"); sha != nullptr && *sha != '\0') {
      git = std::string{sha}.substr(0, 12);
    }
  }
  return git;
}

}  // namespace

std::string iso8601_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

Provenance capture_provenance() {
  Provenance p;
  p.timestamp = iso8601_utc_now();
  p.git = git_identity();
  p.build_type = SOCMIX_BUILD_TYPE;
  p.compiler = SOCMIX_COMPILER_ID;
  p.simd_tier = linalg::simd::tier_name(linalg::simd::active_tier());
  p.threads = util::thread_count();
  p.nproc = util::hardware_threads();
  return p;
}

void apply_metrics_provenance() {
  obs::set_provenance_entry("git", git_identity());
  obs::set_provenance_entry("build_type", SOCMIX_BUILD_TYPE);
  obs::set_provenance_entry("compiler", SOCMIX_COMPILER_ID);
  obs::set_provenance_entry("simd_tier",
                            linalg::simd::tier_name(linalg::simd::active_tier()));
  obs::set_provenance_entry("nproc", std::to_string(util::hardware_threads()));
  obs::set_provenance_entry("threads", std::to_string(util::thread_count()));
}

}  // namespace socmix::bench
