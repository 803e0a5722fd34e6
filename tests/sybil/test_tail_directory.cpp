// AdmissionEngine::TailDirectory, the admission engine's per-length
// inverted index keyed by half-edge:
//
//  * find() returns one run, shared by both directions of a filed tail,
//    holding that tail's entries in verifier-slot order — against a
//    std::map oracle over every half-edge, across several 512-bit rank
//    blocks, and after a second filing extends the first;
//  * find() misses on an unfiled half-edge, on the last half-edge 2m - 1
//    of a graph whose 2m is a multiple of 64 (the last bit of the last
//    word), and on a directory that has filed nothing;
//  * postings() hands back exactly what was filed, and the heap stays
//    within 2m (1 + 1/16) bits plus runs and entries;
//  * an engine's directories hold every cached verifier's tails, in both
//    directions, with that verifier's load-counter index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "gen/datasets.hpp"
#include "gen/reference.hpp"
#include "graph/graph.hpp"
#include "sybil/admission_engine.hpp"
#include "sybil/routes.hpp"
#include "util/rng.hpp"

namespace socmix::sybil {
namespace {

using Directory = AdmissionEngine::TailDirectory;
using Entries = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

Entries entries_of(std::span<const Directory::Entry> run) {
  Entries out;
  for (const Directory::Entry e : run) out.emplace_back(e.slot, e.load);
  return out;
}

/// Files `count` random (tail, slot) postings, canonical tails only, no
/// slot twice on one tail; the oracle maps each canonical half-edge to its
/// entries in slot order.
std::vector<Directory::Posting> random_postings(
    const RouteTable& routes, std::size_t count, std::uint32_t first_slot,
    std::uint32_t slots, util::Rng& rng, std::map<graph::EdgeIndex, Entries>& oracle) {
  const std::size_t half_edges = routes.graph().raw_neighbors().size();
  std::vector<Directory::Posting> postings;
  for (std::size_t i = 0; i < count; ++i) {
    const graph::EdgeIndex e = rng.below(half_edges);
    const graph::EdgeIndex canonical = std::min(e, routes.twin(e));
    const auto slot = first_slot + static_cast<std::uint32_t>(rng.below(slots));
    Entries& entries = oracle[canonical];
    if (std::any_of(entries.begin(), entries.end(),
                    [&](const auto& entry) { return entry.first == slot; })) {
      continue;
    }
    const auto load = static_cast<std::uint32_t>(rng.below(1000));
    entries.emplace_back(slot, load);
    std::sort(entries.begin(), entries.end());
    postings.push_back({canonical, {slot, load}});
  }
  return postings;
}

void expect_matches_oracle(const Directory& dir, const RouteTable& routes,
                           const std::map<graph::EdgeIndex, Entries>& oracle) {
  const std::size_t half_edges = routes.graph().raw_neighbors().size();
  std::size_t filed = 0;
  std::size_t marked = 0;
  for (graph::EdgeIndex e = 0; e < half_edges; ++e) {
    const graph::EdgeIndex twin = routes.twin(e);
    const auto it = oracle.find(std::min(e, twin));
    const auto run = dir.find(e);
    if (it == oracle.end()) {
      EXPECT_TRUE(run.empty()) << "unfiled half-edge " << e;
      continue;
    }
    EXPECT_EQ(entries_of(run), it->second) << "half-edge " << e;
    const auto back = dir.find(twin);
    EXPECT_EQ(run.data(), back.data()) << "half-edge " << e << " and its twin";
    EXPECT_EQ(run.size(), back.size()) << "half-edge " << e << " and its twin";
    if (e < twin) filed += run.size();
    ++marked;
  }
  EXPECT_EQ(dir.size(), filed);
  // The heap bound: 2m (1 + 1/16) bits, plus one run per marked half-edge
  // and one entry per filing.
  const double bitmap_and_ranks =
      static_cast<double>(half_edges) / 8.0 * (1.0 + 1.0 / 16.0);
  EXPECT_LE(static_cast<double>(dir.heap_bytes()),
            bitmap_and_ranks + 64.0 + 8.0 * static_cast<double>(marked + filed));
}

TEST(TailDirectory, FindReturnsOneRunForBothDirectionsOfAFiledTail) {
  const graph::Graph g = gen::build_dataset(*gen::find_dataset("Physics 1"), 400, 3);
  ASSERT_GT(g.raw_neighbors().size(), 3u * 512) << "want several rank blocks";
  const RouteTable routes{g, 0x7a11};
  util::Rng rng{9};
  std::map<graph::EdgeIndex, Entries> oracle;
  std::vector<Directory::Posting> first = random_postings(routes, 600, 0, 4, rng, oracle);
  Directory dir{routes};
  dir.assign(first, routes);
  expect_matches_oracle(dir, routes, oracle);

  // A second filing keeps the first: rebuild from postings() plus new slots.
  std::vector<Directory::Posting> again;
  dir.postings(again);
  ASSERT_EQ(again.size(), first.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].edge, first[i].edge) << i;  // `first` was sorted by assign
    EXPECT_EQ(again[i].entry.slot, first[i].entry.slot) << i;
    EXPECT_EQ(again[i].entry.load, first[i].entry.load) << i;
  }
  for (const Directory::Posting& p : random_postings(routes, 600, 4, 3, rng, oracle)) {
    again.push_back(p);
  }
  dir.assign(again, routes);
  expect_matches_oracle(dir, routes, oracle);
}

TEST(TailDirectory, MissesOnUnfiledLastAndEmpty) {
  // circulant(128, 8): 2m = 1024 half-edges, a multiple of 64, in two
  // rank blocks; half-edge 1023 is the last bit of the last word.
  const graph::Graph g = gen::circulant(128, 8);
  const RouteTable routes{g, 0x7a11};
  const graph::EdgeIndex last = g.raw_neighbors().size() - 1;
  ASSERT_EQ(last + 1, 1024u);

  Directory empty{routes};
  EXPECT_EQ(empty.size(), 0u);
  for (graph::EdgeIndex e = 0; e <= last; ++e) EXPECT_TRUE(empty.find(e).empty()) << e;

  // File the tails with a direction divisible by 7, except the last
  // half-edge's: every other half-edge, the last among them, misses.
  const graph::EdgeIndex last_twin = routes.twin(last);
  const auto filed = [&](graph::EdgeIndex e) {
    return (e % 7 == 0 || routes.twin(e) % 7 == 0) && e != last && e != last_twin;
  };
  std::vector<Directory::Posting> postings;
  for (graph::EdgeIndex e = 0; e <= last; ++e) {
    if (filed(e) && e < routes.twin(e)) {
      postings.push_back({e, {0, static_cast<std::uint32_t>(e)}});
    }
  }
  Directory dir{routes};
  dir.assign(postings, routes);
  EXPECT_EQ(dir.size(), postings.size());
  for (graph::EdgeIndex e = 0; e <= last; ++e) {
    const auto run = dir.find(e);
    if (!filed(e)) {
      EXPECT_TRUE(run.empty()) << e;
      continue;
    }
    ASSERT_EQ(run.size(), 1u) << e;
    EXPECT_EQ(run[0].load, std::min(e, routes.twin(e))) << e;
  }
  EXPECT_TRUE(dir.find(last).empty());

  // Filing the last half-edge's tail makes both of its bits hit.
  postings.push_back({std::min(last, last_twin), {2, 77}});
  dir.assign(postings, routes);
  ASSERT_EQ(dir.find(last).size(), 1u);
  EXPECT_EQ(dir.find(last)[0].slot, 2u);
  EXPECT_EQ(dir.find(last)[0].load, 77u);
  EXPECT_EQ(dir.find(last).data(), dir.find(last_twin).data());
}

TEST(TailDirectory, EngineFilesEveryVerifierTailInBothDirections) {
  const graph::Graph g = gen::build_dataset(*gen::find_dataset("Physics 2"), 300, 8);
  AdmissionEngineConfig config;
  config.instances_override = 24;
  const std::vector<std::size_t> lengths{1, 3, 9};
  AdmissionEngine engine{g, config, lengths};
  const std::vector<graph::NodeId> verifiers{2, 40, 41, 150};
  for (const graph::NodeId v : verifiers) (void)engine.verifier(v);
  const graph::NodeId one_suspect[] = {7};
  (void)engine.sweep_fractions(verifiers, one_suspect, lengths);  // files the tails

  const RouteTable routes{g, config.seed};
  for (std::size_t li = 0; li < lengths.size(); ++li) {
    const Directory& dir = engine.directory(li);
    std::size_t distinct = 0;
    for (std::uint32_t slot = 0; slot < verifiers.size(); ++slot) {
      // Re-derive this verifier's load-counter numbering: its distinct
      // canonical tail half-edges, ascending.
      std::vector<graph::EdgeIndex> tails;
      routes.for_each_tail(
          config.instances(g), verifiers[slot], std::span(lengths).subspan(li, 1),
          [&](std::size_t, std::uint32_t, DirectedEdge, graph::EdgeIndex e) {
            tails.push_back(std::min(e, routes.twin(e)));
          });
      std::sort(tails.begin(), tails.end());
      tails.erase(std::unique(tails.begin(), tails.end()), tails.end());
      EXPECT_EQ(engine.verifier(verifiers[slot]).distinct_tails(li), tails.size());
      distinct += tails.size();
      for (std::uint32_t j = 0; j < tails.size(); ++j) {
        for (const graph::EdgeIndex e : {tails[j], routes.twin(tails[j])}) {
          const auto run = dir.find(e);
          const auto hit = std::find_if(run.begin(), run.end(), [&](Directory::Entry x) {
            return x.slot == slot;
          });
          ASSERT_NE(hit, run.end()) << "w=" << lengths[li] << " slot " << slot;
          EXPECT_EQ(hit->load, j) << "w=" << lengths[li] << " slot " << slot;
        }
      }
    }
    EXPECT_EQ(dir.size(), distinct) << "w=" << lengths[li];
  }
}

}  // namespace
}  // namespace socmix::sybil
