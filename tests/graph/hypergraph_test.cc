#include "graph/hypergraph.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/list_coloring.h"

namespace cextend {
namespace {

TEST(HypergraphTest, EdgesAndDegrees) {
  Hypergraph g(4);
  g.AddEdge({0, 1});
  g.AddEdge({1, 2, 3});
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(1), 2);
  EXPECT_EQ(g.Degree(2), 1);
  EXPECT_EQ(g.edge(1), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(g.incident_edges(1), (std::vector<int>{0, 1}));
}

TEST(HypergraphTest, ForbiddenColorsBinaryEdge) {
  Hypergraph g(3);
  g.AddEdge({0, 1});
  g.AddEdge({0, 2});
  std::vector<int64_t> colors = {kNoColor, 7, kNoColor};
  std::vector<int64_t> out;
  g.AppendForbiddenColors(0, colors, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{7}));  // vertex 2 uncolored: no entry
}

TEST(HypergraphTest, ForbiddenColorsHyperedgeNeedsAllOthersSame) {
  Hypergraph g(3);
  g.AddEdge({0, 1, 2});
  std::vector<int64_t> out;
  // Only one other vertex colored: no forbidden color yet.
  g.AppendForbiddenColors(0, {kNoColor, 5, kNoColor}, &out);
  EXPECT_TRUE(out.empty());
  // Others share a color: forbidden.
  g.AppendForbiddenColors(0, {kNoColor, 5, 5}, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{5}));
  // Others differ: the edge is already satisfied.
  out.clear();
  g.AppendForbiddenColors(0, {kNoColor, 5, 6}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(HypergraphTest, ProperColoring) {
  Hypergraph g(3);
  g.AddEdge({0, 1});
  g.AddEdge({0, 1, 2});
  EXPECT_TRUE(g.IsProperColoring({1, 2, 2}));
  EXPECT_FALSE(g.IsProperColoring({1, 1, 2}));      // binary edge mono
  EXPECT_FALSE(g.IsProperColoring({1, 2, kNoColor}));  // uncolored
  Hypergraph h(3);
  h.AddEdge({0, 1, 2});
  EXPECT_TRUE(h.IsProperColoring({4, 4, 5}));  // two of three may share
  EXPECT_FALSE(h.IsProperColoring({4, 4, 4}));
}

TEST(HypergraphTest, NoEdgesAlwaysProper) {
  Hypergraph g(2);
  EXPECT_TRUE(g.IsProperColoring({1, 1}));
}

TEST(ThresholdLayerTest, RangesMatchTheKeyCompare) {
  // Two thresholds over 12 vertices with tied keys, one strict and one not:
  // ranges, degrees, pair queries and forbidden colors must all equal the
  // brute-force definition (below key < / <= above key). AddThreshold sorts
  // the sides in place, which the brute force does not mind.
  using KV = ThresholdLayer::KeyedVertex;
  const size_t n = 12;
  std::vector<KV> below0 = {{5, 0}, {3, 1}, {5, 2}, {9, 3}};
  std::vector<KV> above0 = {{5, 4}, {6, 5}, {2, 6}, {9, 7}};
  std::vector<KV> below1 = {{1, 8}, {4, 9}, {4, 4}};
  std::vector<KV> above1 = {{4, 10}, {0, 11}, {7, 0}};
  ThresholdLayer layer(n);
  layer.AddThreshold(below0, above0, /*strict=*/true);
  layer.AddThreshold(below1, above1, /*strict=*/false);
  layer.Finalize();
  ASSERT_EQ(layer.num_thresholds(), 2u);

  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  size_t edges = 0;
  auto add = [&](const std::vector<KV>& lo, const std::vector<KV>& hi,
                 bool strict) {
    for (const KV& b : lo) {
      for (const KV& a : hi) {
        if (strict ? b.key < a.key : b.key <= a.key) {
          adj[b.vertex][a.vertex] = adj[a.vertex][b.vertex] = true;
          ++edges;
        }
      }
    }
  };
  add(below0, above0, true);
  add(below1, above1, false);
  EXPECT_EQ(layer.num_edges(), edges);

  std::vector<int64_t> colors(n);
  for (size_t v = 0; v < n; ++v) colors[v] = v % 3 == 0 ? kNoColor : 100 + v;
  for (size_t v = 0; v < n; ++v) {
    int64_t degree = 0;
    std::multiset<int64_t> expected;
    for (size_t u = 0; u < n; ++u) {
      EXPECT_EQ(layer.PairConflicts(v, u), adj[v][u]) << v << "," << u;
      if (!adj[v][u]) continue;
      ++degree;
      if (colors[u] != kNoColor) expected.insert(colors[u]);
    }
    EXPECT_EQ(layer.Degree(v), degree) << "vertex " << v;
    std::vector<int64_t> out;
    layer.AppendForbiddenColors(v, colors, &out);
    EXPECT_EQ(std::multiset<int64_t>(out.begin(), out.end()), expected)
        << "vertex " << v;
  }
}

TEST(ThresholdLayerTest, EmptyLayerHasNoPairsAndNoStorage) {
  ThresholdLayer layer(5);
  layer.Finalize();
  EXPECT_TRUE(layer.empty());
  EXPECT_EQ(layer.num_edges(), 0u);
  EXPECT_EQ(layer.Degree(3), 0);
  EXPECT_FALSE(layer.PairConflicts(0, 1));
  EXPECT_EQ(layer.StorageWords(), 0u);
}

}  // namespace
}  // namespace cextend
