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
// The block is held prescaled: s_t = x_t * inv_deg, one rounded product
// per cell, so the irregular edge loop is a single gather per edge. Two
// lane blocks take turns as old and new (ping-pong), and one sweep is one
// SpMM call over every row: it gathers s_t from the old block, forms the
// row's new value nx = (1 - laziness) * acc, adds its TVD term, and
// writes nx * inv_deg straight into the other block. The TVD is a running
// sum over the ascending rows, halved once at the end, so no separate
// prescale or reduce pass exists.
//
// Two cases still need the unscaled x_t:
//   * a lazy walk (laziness > 0; no driver or figure runs one) keeps it
//     in a third block, which the same kernel call updates in place;
//   * copy_distribution rebuilds lane x_t bit-exactly from s_{t-1}, which
//     the idle block still holds (the same CSR-order sum the sweep
//     formed); at t = 0 it is the point mass.
//
// Every graph is swept this way: in memory, or a pack (raw, or compressed
// and decoded when it was opened), which is one resident CSR either way.
//
// One sweep shape: the block is swept at 8, 16 or 32 lanes, each an
// unrolled kernel on every tier. The capacity (`block`) is one of those
// widths; seed_point_masses picks the narrowest of them that holds its
// sources and fills the rest with dead lanes of zeros, so a one-source
// block (walk_distribution, tvd_trajectory) sweeps 8 lanes, and a tail
// block of 3 sources sweeps 8, not the capacity.
//
// Determinism contract: lane b of a block evolves through *exactly* the
// same floating-point operations whatever the block — per-row
// accumulation in CSR edge order, the identical laziness affine
// combination, and a TVD summed over rows in ascending order (matching
// linalg::total_variation). Trajectories are therefore bit-identical for
// any block size, block composition, swept width, adjacency encoding of
// the pack, or thread count of the surrounding driver. The sweep runs
// through the linalg::simd dispatch table; every kernel tier honors the
// same rounding-point contract, so the SIMD tier never changes a bit
// either (see src/linalg/simd/kernels.hpp).
#pragma once

#include <array>
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
  /// Widest block measure_sampled_mixing runs (it narrows to 16 or 8
  /// lanes when wider blocks would leave a worker idle). 32 lanes of
  /// doubles are four cache lines per vertex: the random gather per edge
  /// transfers lines that serve 32 sources instead of one, and the wide
  /// inner loop keeps the vector units busy while those lines arrive.
  /// Measured on a BA(1M, 5) graph this is the fastest width from 2..32
  /// both with and without -march=native (see
  /// bench_results/micro_parallel.csv).
  static constexpr std::size_t kDefaultBlock = 32;
  /// The widest swept width (keeps per-row accumulators on the stack in
  /// the sweep kernel).
  static constexpr std::size_t kMaxBlock = linalg::simd::kMaxLanes;

  /// The width a block of `count` sources is swept at: the narrowest of
  /// 8, 16 and 32 that holds them (32 for more, which no block holds).
  [[nodiscard]] static constexpr std::size_t swept_width(std::size_t count) noexcept {
    return count <= 8 ? 8 : count <= 16 ? 16 : kMaxBlock;
  }

  /// Throws on laziness outside [0, 1), an isolated vertex, or a block
  /// other than 8, 16 or 32.
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

  /// Advances every active lane one step: lane_b <- lane_b * P.
  void step();

  /// step(), plus writes the total variation distance of each advanced
  /// lane against `pi` into tvd_out (size >= active()); bit-identical to
  /// calling step() and then linalg::total_variation per lane.
  void step_with_tvd(std::span<const double> pi, std::span<double> tvd_out);

  /// Copies lane `lane` (< active()) into `out` (size dim()): the exact
  /// x_t the sweeps formed, bit for bit.
  void copy_distribution(std::size_t lane, std::span<double> out) const;

  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }

 private:
  /// One sweep s_t -> s_{t+1}; when pi is non-null, also writes each
  /// active lane's TVD against pi into tvd_out.
  void sweep(const double* pi, double* tvd_out);

  const graph::Graph* graph_;
  util::aligned_vector<double> inv_deg_;
  // The two prescaled lane-major blocks, [dim x width] in the first
  // dim * width of [dim x block] cells:
  // scaled_[k][v*width + lane] = x_t[v] * inv_deg[v]. scaled_[front_]
  // holds s_t; after a step the other holds s_{t-1}. 64-byte alignment
  // makes every row of an 8-, 16- or 32-lane block start on a cache line
  // (and a zmm-load boundary); see util/aligned.hpp.
  std::array<util::aligned_vector<double>, 2> scaled_;
  /// x_t itself, laid out as scaled_: kept only by a lazy walk, empty
  /// otherwise.
  util::aligned_vector<double> state_;
  std::array<graph::NodeId, kMaxBlock> sources_{};  ///< per active lane, for t = 0
  std::array<double, kMaxBlock> tvd_{};  ///< per swept lane, dead lanes included
  std::size_t front_ = 0;
  std::size_t steps_ = 0;  ///< sweeps since seed_point_masses
  double laziness_;
  std::size_t block_;
  std::size_t active_ = 0;
  std::size_t width_ = swept_width(0);  ///< lanes each sweep computes
};

/// Distribution of a walk started at `source` after `steps` steps:
/// e_source P^steps, with P lazy by `laziness`. Runs one 8-lane block
/// with a single live lane, as tvd_trajectory does.
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
