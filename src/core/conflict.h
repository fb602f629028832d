// Conflict structures for one phase-II partition (Section 5.1 + 5.2).
//
// All rows of a partition share their (B1..Bq) values, hence their candidate
// FK list; a hyperedge connects every tuple set that would violate a DC body
// if co-assigned. Two interchangeable oracles implement the pairwise layer:
//
//  * PartitionConflictOracle (default): an *indexed* builder. Binary DCs
//    with no cross-tuple atoms (owner-owner style, whose conflict set is the
//    full side-0 x side-1 product) are kept *implicit*: only the two
//    membership bitsets are stored (ImplicitBicliqueFamily), so clique-style
//    partitions cost O(n) memory instead of Θ(n²) materialized pairs. A
//    partition with more such DCs than the family holds (kMaxBicliques)
//    fails the build with kResourceExhausted, like a pair-budget overrun.
//    Binary DCs whose only cross atom is one ordering atom (the census
//    age-gap DCs, `t1.Age < t0.Age - 69`) go to the *threshold layer*
//    (ThresholdLayer): each side sorted by its key, a vertex's neighbours
//    one key range of the other side, O(n) memory. A DC is admitted there
//    only when its sides are disjoint and its side masks rule out sharing a
//    pair with every other binary DC of the partition (two ordering DCs on
//    the same columns whose ranges of `v - u` do not meet, like DC1.low and
//    DC1.high, never share one), so its range sizes add to the other
//    layers' degrees exactly. Every other binary DC is indexed:
//    side-0/side-1 matching vertices are bucketed by the codes of the
//    columns appearing in its cross-atom equality predicates (hash
//    buckets), each bucket is sorted by the first ordering atom's key
//    (sorted runs for < / <= / > / >=), and adjacency is materialized per
//    bucket instead of per pair, deduplicated into a CSR AdjacencyGraph.
//    Degrees, edge counts, forbidden colors and pair queries compose the
//    (implicit ∪ CSR ∪ threshold ∪ hypergraph) union with simple-graph
//    semantics, identical to one deduplicated all-pairs scan. Construction
//    is O(n) per implicit DC, O(n log n) per threshold DC and
//    O(n log n + E) per indexed DC instead of the brute-force
//    O(n^2 * |DC|) all-pairs CrossAtomsHold scan.
//
//  * NaiveConflictOracle: the reference brute-force implementation (side
//    masks + on-the-fly pair tests). Kept behind the same interface so tests
//    and benchmarks can cross-check the indexed oracle bit-for-bit, and as a
//    fallback when the indexed build exceeds the pair budget or the
//    implicit family's capacity.
//
// DCs of arity >= 3 are expanded into an explicit hypergraph by both oracles.

#ifndef CEXTEND_CORE_CONFLICT_H_
#define CEXTEND_CORE_CONFLICT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "constraints/denial_constraint.h"
#include "graph/hypergraph.h"
#include "relational/table.h"
#include "util/deadline.h"
#include "util/statusor.h"

namespace cextend {

class ThreadPool;

struct ConflictOracleOptions {
  /// Edge enumeration for arity >= 3 DCs is capped at this many candidate
  /// assignments (guard against pathological inputs); exceeding it fails.
  size_t max_hyperedge_candidates = 50'000'000;
  /// The indexed oracle materializes at most this many (pre-dedup) pairwise
  /// edges (8 bytes each). Exceeding it fails with kResourceExhausted;
  /// BuildPartitionOracle then falls back to the naive oracle, which needs
  /// O(n) memory at the price of O(n^2) queries. DCs held implicitly (no
  /// cross atoms) never materialize pairs; their bitset storage is charged
  /// against this budget word-for-word (normally a few n/64-word bitsets,
  /// i.e. negligible), so adversarial signature blowups also fall back.
  /// The threshold layer's words (a few per side member) are charged the
  /// same way. Both layers' words open the one counter the pair emission
  /// then continues, so layers and pairs together stay within the budget.
  size_t max_materialized_pairs = 32'000'000;
  /// Optional worker pool for *within-partition* parallel construction: each
  /// indexed binary DC emits (and sorts) its pair run as an independent
  /// task, and the runs are merged — already deduplicated — into the CSR
  /// graph. The adjacency produced is byte-identical to the serial build, so
  /// coloring results never depend on the thread count. Null = serial.
  ThreadPool* pool = nullptr;
  /// Deadline/cancellation, checked per DC during hyperedge enumeration and
  /// at every pair-budget charge chunk during pair emission.
  RunControl run_control;
};

/// Degradation accounting for one BuildPartitionOracle call, reported
/// through the optional out-param so phase II can aggregate ladder stats.
struct BuildOracleInfo {
  /// The indexed build was abandoned (pair budget, more product DCs than
  /// ImplicitBicliqueFamily::kMaxBicliques, or an injected fault) and the
  /// O(n)-memory naive oracle was built instead (indexed→naive rung).
  bool naive_fallback = false;
  /// Thread CPU time of the build, fallback included (ThreadCpuSeconds; work
  /// fanned out to ConflictOracleOptions::pool is not in it).
  double oracle_build_seconds = 0.0;
  /// Deduplicated pairs the built oracle materialized in its CSR layer (0
  /// for the naive oracle, which stores none).
  size_t max_partition_pairs = 0;
};

/// ConflictOracle plus the pair query and edge count of one partition
/// (local vertex v is the v-th row the oracle was built over). Phase II
/// colors through GreedyListColoring only, for partitions and repair alike.
/// Implemented by both the indexed and the brute-force oracle so they are
/// interchangeable and cross-checkable.
class PartitionOracle : public ConflictOracle {
 public:
  /// True when local vertices u, v conflict under some binary DC (the pair
  /// query behind the naive oracle's degrees and forbidden colors, and the
  /// cross-check between the two oracles).
  virtual bool PairConflicts(size_t u, size_t v) const = 0;

  /// Total pairwise edges plus explicit hyperedges (cached at construction).
  virtual size_t CountEdges() const = 0;
};

/// Indexed conflict oracle: materialized, deduplicated CSR adjacency for
/// binary DCs + explicit hypergraph for arity >= 3.
class PartitionConflictOracle final : public PartitionOracle {
 public:
  /// `rows` are v_join/R1 row ids forming the partition. `dcs` must be bound
  /// against `table`.
  static StatusOr<PartitionConflictOracle> Build(
      const Table& table, const std::vector<BoundDenialConstraint>& dcs,
      std::vector<uint32_t> rows, const ConflictOracleOptions& options = {});

  /// Build with a prebuilt arity >= 3 hypergraph (may be null). Lets
  /// BuildPartitionOracle enumerate hyperedges once and share them with a
  /// naive fallback attempt; a kResourceExhausted from this overload always
  /// means the pair budget or the implicit family's capacity, neither of
  /// which binds the naive oracle.
  static StatusOr<PartitionConflictOracle> BuildWithHypergraph(
      const Table& table, const std::vector<BoundDenialConstraint>& dcs,
      std::vector<uint32_t> rows, const ConflictOracleOptions& options,
      std::shared_ptr<const Hypergraph> higher);

  // ConflictOracle:
  size_t NumVertices() const override { return rows_.size(); }
  int64_t Degree(size_t v) const override { return degrees_[v]; }
  void AppendForbiddenColors(size_t v, const std::vector<int64_t>& colors,
                             std::vector<int64_t>* out) const override;
  /// Publishes the (CSR, implicit, hypergraph, threshold) decomposition so
  /// the greedy coloring can stream each layer; forbidden semantics are
  /// exactly the union of the four layers.
  ConflictStructure Structure() const override {
    return {&adjacency_, &implicit_, higher_.get(), &threshold_};
  }

  // PartitionOracle:
  bool PairConflicts(size_t u, size_t v) const override {
    return adjacency_.HasEdge(u, v) || implicit_.PairConflicts(u, v) ||
           threshold_.PairConflicts(u, v);
  }
  size_t CountEdges() const override { return num_edges_; }

  const AdjacencyGraph& adjacency() const { return adjacency_; }

  /// Binary DCs held as implicit bicliques (no materialized pairs).
  size_t num_implicit_bicliques() const { return implicit_.num_bicliques(); }
  /// Binary DCs held in the threshold layer (no materialized pairs).
  size_t num_threshold_dcs() const { return threshold_.num_thresholds(); }
  /// Deduplicated pairs actually materialized in the CSR layer.
  size_t num_materialized_pairs() const { return adjacency_.num_edges(); }

 private:
  PartitionConflictOracle() = default;

  std::vector<uint32_t> rows_;
  AdjacencyGraph adjacency_;  // deduplicated binary-DC edges (indexed DCs)
  ImplicitBicliqueFamily implicit_;  // no-cross-atom binary DCs, O(n) bits
  ThresholdLayer threshold_;  // admitted one-ordering-atom DCs, O(n) words
  // Arity >= 3 edges (local vertex ids); shareable with a fallback oracle.
  std::shared_ptr<const Hypergraph> higher_;
  std::vector<int64_t> degrees_;  // (implicit ∪ CSR) + threshold + hyper
  size_t num_edges_ = 0;          // binary + hyper, cached
};

/// Reference brute-force oracle: per-vertex side masks, pairs tested on the
/// fly. O(n) memory; O(n * |DC|) per forbidden-color query.
class NaiveConflictOracle final : public PartitionOracle {
 public:
  static StatusOr<NaiveConflictOracle> Build(
      const Table& table, const std::vector<BoundDenialConstraint>& dcs,
      std::vector<uint32_t> rows, const ConflictOracleOptions& options = {});

  /// Build with a prebuilt arity >= 3 hypergraph (may be null); see
  /// PartitionConflictOracle::BuildWithHypergraph.
  static StatusOr<NaiveConflictOracle> BuildWithHypergraph(
      const Table& table, const std::vector<BoundDenialConstraint>& dcs,
      std::vector<uint32_t> rows, const ConflictOracleOptions& options,
      std::shared_ptr<const Hypergraph> higher);

  // ConflictOracle:
  size_t NumVertices() const override { return rows_.size(); }
  int64_t Degree(size_t v) const override { return degrees_[v]; }
  void AppendForbiddenColors(size_t v, const std::vector<int64_t>& colors,
                             std::vector<int64_t>* out) const override;

  // PartitionOracle:
  bool PairConflicts(size_t u, size_t v) const override;
  size_t CountEdges() const override { return num_edges_; }

 private:
  NaiveConflictOracle() = default;

  const Table* table_ = nullptr;
  std::vector<uint32_t> rows_;
  // Binary DCs: per DC, per tuple variable, per local vertex: side match.
  struct BinaryDc {
    const BoundDenialConstraint* dc;
    std::vector<uint8_t> side0;
    std::vector<uint8_t> side1;
  };
  std::vector<BinaryDc> binary_;
  // Arity >= 3 edges (local vertex ids); shareable with the indexed oracle.
  std::shared_ptr<const Hypergraph> higher_;
  std::vector<int64_t> degrees_;
  size_t num_edges_ = 0;  // cached during the construction degree scan
};

/// Builds the indexed oracle, falling back to the naive oracle when the
/// materialized-pair budget or the implicit family's capacity is exceeded,
/// or the `oracle.build` fault point fires (tests force the naive oracle that way). Both oracles answer every
/// query identically. `info`, when non-null, receives degradation
/// accounting for the build.
StatusOr<std::unique_ptr<PartitionOracle>> BuildPartitionOracle(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    std::vector<uint32_t> rows, const ConflictOracleOptions& options = {},
    BuildOracleInfo* info = nullptr);

}  // namespace cextend

#endif  // CEXTEND_CORE_CONFLICT_H_
