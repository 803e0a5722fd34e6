#include "core/measurement.hpp"

#include <stdexcept>

#include "bench_harness/harness.hpp"
#include "linalg/walk_operator.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace socmix::core {

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
    // Lanczos runs on the relabeled CSR; the spectrum is label-invariant,
    // so nothing maps back. (Reorder cost is O(m log m) — noise next to
    // the iteration count, even though the sampled phase reorders again.)
    // Shard geometry never changes an output bit (rows are independent
    // under spmv); it only bounds the CSR residency.
    const markov::ResolvedEngine engine = markov::resolve_engine(g, options);
    const linalg::WalkOperator op{engine.active(g), engine.sharding.plan,
                                  options.laziness, engine.sharding.mapped,
                                  engine.sharding.io_mode};
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
    SOCMIX_GAUGE_SET("core.phase.sampled_seconds", report.sampled_seconds);
    bench::Harness::process().record("sampled/" + util::slugify(report.name),
                                     report.sampled_seconds);
  }
  return report;
}

}  // namespace socmix::core
