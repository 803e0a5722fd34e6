#include "core/measurement.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench_harness/harness.hpp"
#include "linalg/walk_operator.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace socmix::core {

std::uint64_t count_oracle_violations(const graph::Graph& g, const MixingReport& report,
                                      double laziness) {
  if (!report.sampled.has_value()) return 0;
  const markov::SampledMixing& sampled = *report.sampled;
  // The report's spectrum is the simple walk's; the lazy walk's extremes
  // are (1-α)λ + α.
  const auto lazy = [laziness](double lambda) {
    return std::fabs((1.0 - laziness) * lambda + laziness);
  };
  const double mu =
      std::clamp(std::max(lazy(report.lambda2), lazy(report.lambda_min)), 0.0, 1.0);
  const auto two_m = static_cast<double>(g.num_half_edges());
  std::uint64_t violations = 0;
  for (std::size_t s = 0; s < sampled.num_sources(); ++s) {
    const double pi_x = static_cast<double>(g.degree(sampled.sources()[s])) / two_m;
    double bound = 0.5 * std::sqrt((1.0 - pi_x) / pi_x);
    for (std::size_t t = 1; t <= sampled.max_steps(); ++t) {
      const double tvd = sampled.tvd(s, t);
      if (t > 1 && tvd > sampled.tvd(s, t - 1) + kOracleSlack) ++violations;
      if (report.spectral_ran) {
        bound *= mu;
        if (tvd > bound + kOracleSlack) ++violations;
      }
    }
  }
  return violations;
}

MixingReport measure_mixing(const graph::Graph& g, std::string name,
                            const MeasurementOptions& options) {
  SOCMIX_TRACE_SPAN("measure_mixing");
  SOCMIX_COUNTER_ADD("core.measurements", 1);
  MixingReport report;
  report.name = std::move(name);
  report.nodes = g.num_nodes();
  report.edges = g.num_edges();

  if (options.spectral && g.num_nodes() > 0) {
    SOCMIX_TRACE_SPAN("phase.spectral");
    const util::Timer timer;
    const linalg::WalkOperator op{g, options.laziness};
    const linalg::SpectrumResult spectrum = linalg::slem_spectrum(op, options.lanczos);
    report.spectral_ran = true;
    report.spectral_converged = spectrum.converged;
    report.slem = spectrum.slem;
    report.lambda2 = spectrum.lambda2;
    report.lambda_min = spectrum.lambda_min;
    report.lanczos_iterations = spectrum.iterations;
    report.lanczos_certified_residual = spectrum.certified_residual;
    report.spectral_seconds = timer.seconds();
    SOCMIX_GAUGE_SET("core.phase.spectral_seconds", report.spectral_seconds);
    bench::Harness::process().record("spectral/" + util::slugify(report.name),
                                     report.spectral_seconds);
  }

  if (options.sampled && g.num_nodes() > 0 &&
      (options.sources > 0 || options.all_sources)) {
    SOCMIX_TRACE_SPAN("phase.sampled");
    const util::Timer timer;
    util::Rng rng{options.seed};
    const auto sources = options.all_sources
                             ? markov::all_sources(g)
                             : markov::pick_sources(g, options.sources, rng);
    markov::SampledMixingOptions sampled_options = options;
    if (sampled_options.checkpoint.enabled() && sampled_options.checkpoint.name.empty()) {
      sampled_options.checkpoint.name = "mixing-" + util::slugify(report.name);
    }
    report.sampled = markov::measure_sampled_mixing(g, sources, sampled_options);
    report.sampled_seconds = timer.seconds();
    report.oracle_violations = count_oracle_violations(g, report, options.laziness);
    SOCMIX_COUNTER_ADD("markov.sampled.oracle_violations", report.oracle_violations);
    SOCMIX_GAUGE_SET("core.phase.sampled_seconds", report.sampled_seconds);
    bench::Harness::process().record("sampled/" + util::slugify(report.name),
                                     report.sampled_seconds);
  }
  return report;
}

}  // namespace socmix::core
