// Retired execution knobs. --precision (the sampled phase always runs
// f64), --io-mode (no pack is staged any more), --frontier
// (every sweep is dense; random routes walk hop-major) and --reorder (the
// ordering is baked into the stored graph by `graph_pack --reorder rcm`)
// are refused on the command line, but perfbench/ still spells out the
// fields and parameters they used to fill. Those survive with the empty
// RetiredKnob type, so the assignments compile and nothing reads them.
#pragma once

#include <bit>
#include <cstdint>

namespace socmix::util {

struct RetiredKnob {};

/// The checkpoint context word --frontier folded at its `auto` default:
/// the bits of its 0.5 switch fraction. Checkpoint contexts still fold it
/// where the knob did, so default snapshots of earlier builds restore.
inline constexpr std::uint64_t kFrontierAutoWord = std::bit_cast<std::uint64_t>(0.5);

/// The word --reorder folded at its `none` default, into both checkpoint
/// fingerprints and context words. They still fold it where the knob did,
/// so default snapshots of earlier builds restore.
inline constexpr std::uint64_t kReorderNoneWord = 0;

}  // namespace socmix::util
