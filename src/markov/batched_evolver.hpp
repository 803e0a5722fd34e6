// The walk evolution engine: B distributions per CSR sweep.
//
// The sampled measurement (§3.3) evolves a point mass from every source;
// done one source at a time the graph's offsets/neighbors arrays are
// streamed once per source per step. This engine advances a block of B
// lanes through x_{t+1} = x_t P in a single sweep — a row-major multi-
// vector SpMM — so the CSR arrays and the random accesses into the
// distribution are amortized across the whole block, and the TVD-to-pi
// reduction the measurement needs is fused into the same sweep instead of
// costing a second pass over n doubles per lane.
//
// One sweep is two phases over two lane blocks:
//
//   1. prescale — one streaming pass over the lane state,
//                 scaled = cur * inv_deg, so the irregular edge loop is a
//                 single gather per edge;
//   2. sweep    — one SpMM call over every row, in place, cur -> cur: each
//                 row reads only its own old state, and every gather reads
//                 `scaled`. The TVD is fused into the call as a running
//                 sum over the ascending rows, halved once at the end, so
//                 no separate reduce pass exists.
//
// Every graph is swept this way: in memory, or a pack (raw, or compressed
// and decoded when it was opened), which is one resident CSR either way.
//
// Determinism contract: lane b of a block evolves through *exactly* the
// same floating-point operations whatever the block — per-row
// accumulation in CSR edge order, the identical laziness affine
// combination, and a TVD summed over rows in ascending order (matching
// linalg::total_variation). Trajectories are therefore bit-identical for
// any block size, block composition, adjacency encoding of the pack, or
// thread count of the surrounding driver. The sweep runs
// through the linalg::simd dispatch table; every kernel tier honors the
// same rounding-point contract, so the SIMD tier never changes a bit
// either (see src/linalg/simd/kernels.hpp).
//
// Single vector: a one-lane f64 evolver (block 1) sweeps in place with the
// gather-stream SpMV kernel instead, its rows partitioned across the
// util::parallel pool — the single-source helpers below keep multi-core
// speed — and takes its TVD from linalg::total_variation over the stored
// state. Same per-row operation sequence, same bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/simd/kernels.hpp"
#include "util/aligned.hpp"

namespace socmix::markov {

class BatchedEvolver {
 public:
  /// Block width used by measure_sampled_mixing. 32 lanes of doubles are
  /// four cache lines per vertex: the random gather per edge transfers
  /// lines that serve 32 sources instead of one, and the wide inner loop
  /// keeps the vector units busy while those lines arrive. Measured on a
  /// BA(1M, 5) graph this is the fastest width from 2..32 both with and
  /// without -march=native (see bench_results/micro_parallel.csv).
  static constexpr std::size_t kDefaultBlock = 32;
  /// Upper bound on the block width (keeps per-row accumulators on the
  /// stack in the sweep kernel).
  static constexpr std::size_t kMaxBlock = linalg::simd::kMaxLanes;
  /// Minimum rows per parallel chunk of a single-vector sweep (small
  /// graphs run inline).
  static constexpr std::size_t kRowGrain = 2048;

  /// Throws on laziness outside [0, 1), an isolated vertex, or block
  /// outside [1, kMaxBlock].
  explicit BatchedEvolver(const graph::Graph& g, double laziness = 0.0,
                          std::size_t block = kDefaultBlock);

  [[nodiscard]] std::size_t dim() const noexcept { return inv_deg_.size(); }
  [[nodiscard]] std::size_t block() const noexcept { return block_; }
  /// Lanes currently holding a distribution (set by seed_point_masses).
  [[nodiscard]] std::size_t active() const noexcept { return active_; }
  [[nodiscard]] double laziness() const noexcept { return laziness_; }

  /// Resets the block to point masses at `sources` (one lane per source,
  /// sources.size() <= block()).
  void seed_point_masses(std::span<const graph::NodeId> sources);

  /// Advances every active lane one step: lane_b <- lane_b * P, in place.
  void step();

  /// step(), plus writes the total variation distance of each advanced
  /// lane against `pi` into tvd_out (size >= active()); bit-identical to
  /// calling step() and then linalg::total_variation per lane.
  void step_with_tvd(std::span<const double> pi, std::span<double> tvd_out);

  /// Copies lane `lane` (< active()) into `out` (size dim()).
  void copy_distribution(std::size_t lane, std::span<double> out) const;

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }

 private:
  /// One in-place sweep cur -> cur; when pi is non-null, also writes each
  /// lane's TVD against pi into tvd_out.
  void sweep(const double* pi, double* tvd_out);
  /// One-lane state: swept by the row-parallel SpMV kernel.
  [[nodiscard]] bool single_vector() const noexcept { return block_ == 1; }

  const graph::Graph* graph_;
  util::aligned_vector<double> inv_deg_;
  // The two lane-major blocks, [dim x block]: cur_[v*block + lane]. 64-byte
  // alignment makes every row of the default 32-lane block start on a
  // cache line (and a zmm-load boundary); see util/aligned.hpp.
  util::aligned_vector<double> cur_;
  /// Prescaled block cur_[v*block + b] * inv_deg_[v], recomputed each
  /// sweep so the irregular edge gather is a single stream (see sweep()).
  util::aligned_vector<double> scaled_;
  double laziness_;
  std::size_t block_;
  std::size_t active_ = 0;
};

/// Distribution of a walk started at `source` after `steps` steps:
/// e_source P^steps, with P lazy by `laziness`.
[[nodiscard]] std::vector<double> walk_distribution(const graph::Graph& g,
                                                    graph::NodeId source, std::size_t steps,
                                                    double laziness = 0.0);

/// Total variation trajectory of a point mass at `source`:
/// result[t] = || pi - pi^(source) P^{t+1} ||_tv for t = 0..max_steps-1.
[[nodiscard]] std::vector<double> tvd_trajectory(const graph::Graph& g,
                                                 graph::NodeId source,
                                                 std::size_t max_steps,
                                                 std::span<const double> pi,
                                                 double laziness = 0.0);

}  // namespace socmix::markov
