// Retired execution knobs. --precision (the sampled phase always runs
// f64), --io-mode (no pack is staged any more), --frontier
// (every sweep is dense; random routes walk hop-major) and --reorder (the
// ordering is baked into the stored graph by `graph_pack --reorder rcm`)
// are refused on the command line, but perfbench/ still spells out the
// fields and parameters they used to fill. Those survive with the empty
// RetiredKnob type, so the assignments compile and nothing reads them.
#pragma once

namespace socmix::util {

struct RetiredKnob {};

}  // namespace socmix::util
