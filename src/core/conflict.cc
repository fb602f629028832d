#include "core/conflict.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <set>
#include <unordered_map>

#include "util/fault_injection.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cextend {
namespace {

using CrossAtom = BoundDenialConstraint::CrossAtom;

/// Recursively enumerates ordered assignments of distinct local vertices to
/// the tuple variables of a k-ary DC, restricted to per-variable candidate
/// lists, and records each satisfying assignment as an (unordered) edge.
void EnumerateHyperedges(const Table& table,
                         const BoundDenialConstraint& dc,
                         const std::vector<uint32_t>& rows,
                         const std::vector<std::vector<size_t>>& candidates,
                         std::vector<size_t>& chosen,
                         std::vector<uint32_t>& chosen_rows,
                         std::set<std::vector<int>>& edges) {
  size_t var = chosen.size();
  if (var == candidates.size()) {
    if (dc.CrossAtomsHold(table, chosen_rows)) {
      std::vector<int> edge(chosen.begin(), chosen.end());
      std::sort(edge.begin(), edge.end());
      edges.insert(std::move(edge));
    }
    return;
  }
  for (size_t v : candidates[var]) {
    if (std::find(chosen.begin(), chosen.end(), v) != chosen.end()) continue;
    chosen.push_back(v);
    chosen_rows.push_back(rows[v]);
    EnumerateHyperedges(table, dc, rows, candidates, chosen, chosen_rows,
                        edges);
    chosen.pop_back();
    chosen_rows.pop_back();
  }
}

/// Expands every arity >= 3 DC into explicit hyperedges. Returns nullptr
/// when no such DC produces an edge.
StatusOr<std::shared_ptr<const Hypergraph>> BuildHigherArity(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    const std::vector<uint32_t>& rows, size_t max_hyperedge_candidates,
    const RunControl& run_control = {}) {
  size_t n = rows.size();
  std::set<std::vector<int>> edges;
  for (const BoundDenialConstraint& dc : dcs) {
    if (dc.arity() == 2) continue;
    CEXTEND_RETURN_IF_ERROR(run_control.Check());
    std::vector<std::vector<size_t>> candidates(
        static_cast<size_t>(dc.arity()));
    size_t product = 1;
    for (int var = 0; var < dc.arity(); ++var) {
      for (size_t i = 0; i < n; ++i) {
        if (dc.SideMatches(table, rows[i], var)) {
          candidates[static_cast<size_t>(var)].push_back(i);
        }
      }
      product *=
          std::max<size_t>(1, candidates[static_cast<size_t>(var)].size());
      if (product > max_hyperedge_candidates) {
        return Status::ResourceExhausted(StrFormat(
            "hyperedge enumeration for a %d-ary DC exceeds the candidate "
            "cap (%zu)", dc.arity(), max_hyperedge_candidates));
      }
    }
    std::vector<size_t> chosen;
    std::vector<uint32_t> chosen_rows;
    EnumerateHyperedges(table, dc, rows, candidates, chosen, chosen_rows,
                        edges);
  }
  if (edges.empty()) return std::shared_ptr<const Hypergraph>();
  auto higher = std::make_shared<Hypergraph>(n);
  for (const std::vector<int>& e : edges) higher->AddEdge(e);
  return std::shared_ptr<const Hypergraph>(std::move(higher));
}

// ---- Indexed pair materialization for binary DCs. ----

CompareOp FlipOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

/// A cross atom normalized to the (u = var 0, v = var 1) orientation: the
/// atom holds for the ordered pair iff
///   (code(u, u_col) + u_adj)  op  (code(v, v_col) + v_adj).
struct OrientedAtom {
  size_t u_col;
  int64_t u_adj;
  size_t v_col;
  int64_t v_adj;
  CompareOp op;

  int64_t UKey(const Table& table, uint32_t row) const {
    return table.GetCode(row, u_col) + u_adj;
  }
  int64_t VKey(const Table& table, uint32_t row) const {
    return table.GetCode(row, v_col) + v_adj;
  }
  bool Holds(const Table& table, uint32_t u_row, uint32_t v_row) const {
    return BoundDenialConstraint::CompareCodes(UKey(table, u_row), op,
                                               VKey(table, v_row));
  }
};

/// The per-DC index plan: cross atoms split by role. `eq` atoms define the
/// hash-bucket key, the first `ord` atom the sorted run inside a bucket;
/// everything else is verified per candidate pair.
struct BinaryDcPlan {
  std::vector<OrientedAtom> eq;     // kEq cross atoms -> bucket key
  std::vector<OrientedAtom> ord;    // kLt/kLe/kGt/kGe cross atoms
  std::vector<OrientedAtom> other;  // kNe (and unsupported-op) cross atoms
  std::vector<CrossAtom> same0;     // same-tuple atoms on var 0
  std::vector<CrossAtom> same1;     // same-tuple atoms on var 1

  std::vector<OrientedAtom>& ClassOf(CompareOp op) {
    if (op == CompareOp::kEq) return eq;
    if (op == CompareOp::kLt || op == CompareOp::kLe ||
        op == CompareOp::kGt || op == CompareOp::kGe) {
      return ord;
    }
    // kNe and any op without index support (e.g. a stray binary kIn, which
    // never holds) stay residual per-pair filters, matching CrossAtomsHold.
    return other;
  }
};

BinaryDcPlan PlanBinaryDc(const BoundDenialConstraint& dc) {
  BinaryDcPlan plan;
  for (const CrossAtom& a : dc.cross_atoms()) {
    if (!a.IsCross()) {
      (a.lhs_tuple == 0 ? plan.same0 : plan.same1).push_back(a);
      continue;
    }
    OrientedAtom o;
    if (a.lhs_tuple == 0) {
      o = {a.lhs_col, 0, a.rhs_col, a.offset, a.op};
    } else {
      // code(v, lhs_col) op code(u, rhs_col) + offset, flipped around op.
      o = {a.rhs_col, a.offset, a.lhs_col, 0, FlipOp(a.op)};
    }
    plan.ClassOf(o.op).push_back(o);
  }
  return plan;
}

/// match[i] = 1 iff local vertex i can play variable `var` of `dc`: its
/// unary side atoms hold, its same-tuple binary atoms hold, and no column
/// referenced by a cross atom is NULL (a NULL operand can never satisfy a
/// cross atom). Column sweeps (one linear pass per atom over the raw codes)
/// replace per-row atom loops — this is the O(n)-per-DC prologue of every
/// oracle build, so it runs at memory speed.
void BuildSideMask(const Table& table, const BoundDenialConstraint& dc,
                   const BinaryDcPlan& plan, const std::vector<uint32_t>& rows,
                   int var, std::vector<uint8_t>* match) {
  dc.SideMatchesBatch(table, rows, var, match);
  const size_t n = rows.size();
  uint8_t* m = match->data();
  const std::vector<CrossAtom>& same = var == 0 ? plan.same0 : plan.same1;
  for (const CrossAtom& a : same) {
    const int64_t* lhs = table.ColumnCodes(a.lhs_col).data();
    const int64_t* rhs = table.ColumnCodes(a.rhs_col).data();
    for (size_t i = 0; i < n; ++i) {
      if (m[i] != 0 && !BoundDenialConstraint::CrossAtomHolds(
                           a, lhs[rows[i]], rhs[rows[i]])) {
        m[i] = 0;
      }
    }
  }
  // A NULL operand can never satisfy a cross atom, so null cells in any
  // cross-referenced column disqualify the vertex for this side.
  auto non_null_sweep = [&](const std::vector<OrientedAtom>& atoms) {
    for (const OrientedAtom& a : atoms) {
      size_t col = var == 0 ? a.u_col : a.v_col;
      const int64_t* codes = table.ColumnCodes(col).data();
      for (size_t i = 0; i < n; ++i) {
        if (m[i] != 0 && codes[rows[i]] == kNullCode) m[i] = 0;
      }
    }
  };
  non_null_sweep(plan.eq);
  non_null_sweep(plan.ord);
  non_null_sweep(plan.other);
}

/// Packs a 0/1 side mask into (n + 63) / 64 membership words.
std::vector<uint64_t> PackMask(const std::vector<uint8_t>& mask) {
  std::vector<uint64_t> words((mask.size() + 63) / 64);
  for (size_t w = 0; w < words.size(); ++w) {
    const size_t end = std::min(mask.size(), 64 * w + 64);
    uint64_t bits = 0;
    for (size_t i = 64 * w; i < end; ++i) {
      bits |= static_cast<uint64_t>(mask[i] != 0) << (i & 63);
    }
    words[w] = bits;
  }
  return words;
}

bool TestBit(const std::vector<uint64_t>& words, size_t i) {
  return ImplicitBicliqueFamily::TestBit(words.data(), i);
}

bool Intersects(const std::vector<uint64_t>& a,
                const std::vector<uint64_t>& b) {
  for (size_t w = 0; w < a.size(); ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

bool AnyBit(const std::vector<uint64_t>& words) {
  return std::any_of(words.begin(), words.end(),
                     [](uint64_t w) { return w != 0; });
}

uint64_t PackPair(size_t u, size_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(v);
}

/// True when the DC's conflict set is the plain side-0 x side-1 product
/// (no cross-tuple atoms to test per pair) — representable as an implicit
/// biclique instead of materialized pairs.
bool IsProductDc(const BinaryDcPlan& plan) {
  return plan.eq.empty() && plan.ord.empty() && plan.other.empty();
}

/// One binary DC of a partition: its plan and packed side masks, plus, for
/// a threshold candidate, the half-line its atom confines
/// d = code(v, v_col) - code(u, u_col) to.
struct BinarySides {
  BinaryDcPlan plan;
  std::vector<uint64_t> side0;
  std::vector<uint64_t> side1;
  bool has_pairs = false;  // both sides non-empty
  /// One ordering atom across the pair and nothing else, and every side
  /// member's key (code + adjustment) fits in int64: the DC's conflict set
  /// is a ThresholdLayer threshold, and the half-line below is exact.
  bool threshold_shape = false;
  __int128 d_lo = 0;
  __int128 d_hi = 0;
};

/// Evaluates BinarySides::threshold_shape and the half-line of `b`.
void ClassifyThreshold(const Table& table, const std::vector<uint32_t>& rows,
                       BinarySides* b) {
  const BinaryDcPlan& plan = b->plan;
  if (!plan.eq.empty() || !plan.other.empty() || plan.ord.size() != 1) return;
  const OrientedAtom& a = plan.ord[0];
  auto keys_fit = [&](const std::vector<uint64_t>& side, size_t col,
                      int64_t adj) {
    const int64_t* codes = table.ColumnCodes(col).data();
    int64_t key;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (TestBit(side, i) && __builtin_add_overflow(codes[rows[i]], adj, &key)) {
        return false;
      }
    }
    return true;
  };
  if (!keys_fit(b->side0, a.u_col, a.u_adj) ||
      !keys_fit(b->side1, a.v_col, a.v_adj)) {
    return;
  }
  // code(u) + u_adj  op  code(v) + v_adj  <=>  c op d, c = u_adj - v_adj.
  constexpr __int128 kInf = static_cast<__int128>(1) << 100;
  const __int128 c = static_cast<__int128>(a.u_adj) - a.v_adj;
  b->d_lo = -kInf;
  b->d_hi = kInf;
  switch (a.op) {
    case CompareOp::kLt:  // d > c
      b->d_lo = c + 1;
      break;
    case CompareOp::kLe:  // d >= c
      b->d_lo = c;
      break;
    case CompareOp::kGt:  // d < c
      b->d_hi = c - 1;
      break;
    case CompareOp::kGe:  // d <= c
      b->d_hi = c;
      break;
    default:
      return;
  }
  b->threshold_shape = true;
}

/// False only when the side masks (or, for two thresholds on the same
/// columns, their disjoint half-lines) rule out an unordered pair that
/// conflicts under both `a` and `b`: the pair would need a vertex in
/// a.side0 ∩ b.side0 and one in a.side1 ∩ b.side1 (same orientation), or
/// one in a.side0 ∩ b.side1 and one in a.side1 ∩ b.side0 (crossed).
bool MayShareAPair(const BinarySides& a, const BinarySides& b) {
  if (Intersects(a.side0, b.side1) && Intersects(a.side1, b.side0)) {
    return true;  // crossed
  }
  if (!Intersects(a.side0, b.side0) || !Intersects(a.side1, b.side1)) {
    return false;
  }
  const bool disjoint_half_lines =
      a.threshold_shape && b.threshold_shape &&
      a.plan.ord[0].u_col == b.plan.ord[0].u_col &&
      a.plan.ord[0].v_col == b.plan.ord[0].v_col &&
      (a.d_hi < b.d_lo || b.d_hi < a.d_lo);
  return !disjoint_half_lines;
}

/// The threshold-layer admission rule: admitted[i] = 1 for a
/// threshold-shaped DC with two non-empty disjoint sides that shares no
/// pair with any other binary DC of the partition, whatever path that DC
/// takes. Its pairs are then covered once, so union degrees stay exact by
/// adding range sizes.
std::vector<uint8_t> AdmitThresholds(const std::vector<BinarySides>& binary) {
  const size_t k = binary.size();
  std::vector<uint8_t> admitted(k, 0);
  for (size_t i = 0; i < k; ++i) {
    const BinarySides& b = binary[i];
    admitted[i] = b.threshold_shape && b.has_pairs &&
                  !Intersects(b.side0, b.side1);
  }
  // Overlap is symmetric, so each pair is judged once; a pair needs judging
  // only while one of the two could still be admitted.
  for (size_t i = 0; i < k; ++i) {
    if (!binary[i].has_pairs) continue;
    for (size_t j = i + 1; j < k; ++j) {
      if (binary[j].has_pairs && (admitted[i] || admitted[j]) &&
          MayShareAPair(binary[i], binary[j])) {
        admitted[i] = admitted[j] = 0;
      }
    }
  }
  return admitted;
}

/// Adds an admitted threshold DC to `layer`: side keys are the oriented
/// atom's UKey / VKey, and `UKey op VKey` becomes `below key < above key`
/// (<= when op is not strict). `keyed0` / `keyed1` are scratch buffers.
void AddThresholdDc(const Table& table, const std::vector<uint32_t>& rows,
                    const BinarySides& b, ThresholdLayer* layer,
                    std::vector<ThresholdLayer::KeyedVertex>* keyed0,
                    std::vector<ThresholdLayer::KeyedVertex>* keyed1) {
  const OrientedAtom& a = b.plan.ord[0];
  keyed0->clear();
  keyed1->clear();
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint32_t v = static_cast<uint32_t>(i);
    if (TestBit(b.side0, i)) keyed0->push_back({a.UKey(table, rows[i]), v});
    if (TestBit(b.side1, i)) keyed1->push_back({a.VKey(table, rows[i]), v});
  }
  const bool u_below = a.op == CompareOp::kLt || a.op == CompareOp::kLe;
  const bool strict = a.op == CompareOp::kLt || a.op == CompareOp::kGt;
  if (u_below) {
    layer->AddThreshold(*keyed0, *keyed1, strict);
  } else {
    layer->AddThreshold(*keyed1, *keyed0, strict);
  }
}

/// Pairs emitted before the next charge against the shared budget counter;
/// bounds the global transient memory at budget + threads · chunk instead
/// of threads · budget when several DC runs emit concurrently.
constexpr size_t kBudgetChargeChunk = 1 << 16;

/// Materializes every conflicting (unordered) pair of one binary DC into
/// `pairs` (packed (u << 32) | v, u < v; duplicates allowed — deduplicated when
/// the CSR graph is built). Every ordered pair (u = var 0, v = var 1) with
/// u in side 0 and v in side 1 is covered, so both orientations of each
/// unordered pair are tested exactly as the brute-force oracle does.
/// Emission is charged in chunks against `global_emitted`, the pre-dedup
/// pair count shared by every DC run of one build: the budget decision
/// (total raw emission vs. max_materialized_pairs) matches the old
/// cumulative serial check while keeping concurrent runs' combined memory
/// near the budget.
Status EmitBinaryDcPairs(const Table& table, const BinaryDcPlan& plan,
                         const std::vector<uint32_t>& rows,
                         const std::vector<uint64_t>& in0,
                         const std::vector<uint64_t>& in1,
                         size_t max_materialized_pairs,
                         const RunControl& run_control,
                         std::atomic<size_t>* global_emitted,
                         std::vector<uint64_t>* pairs) {
  size_t n = rows.size();
  if (n < 2) return Status::Ok();
  CEXTEND_RETURN_IF_ERROR(run_control.Check());

  std::vector<uint32_t> side0, side1;
  for (size_t i = 0; i < n; ++i) {
    if (TestBit(in0, i)) side0.push_back(static_cast<uint32_t>(i));
    if (TestBit(in1, i)) side1.push_back(static_cast<uint32_t>(i));
  }
  if (side0.empty() || side1.empty()) return Status::Ok();

  auto over_budget = [&]() -> Status {
    return Status::ResourceExhausted(
        StrFormat("materialized conflict pairs exceed the budget (%zu)",
                  max_materialized_pairs));
  };
  size_t charged = 0;
  // Charges `count` more emitted pairs; true when the build-wide total
  // crosses the budget. The injected fault simulates a budget overrun at
  // the first charge, driving the indexed→naive fallback.
  auto charge = [&](size_t count) {
    charged += count;
    if (CEXTEND_INJECT_FAULT("oracle.pair_budget")) return true;
    size_t prior = global_emitted->fetch_add(count);
    return prior + count > max_materialized_pairs;
  };

  // Flat bucket index over side 1: one contiguous Entry pool sorted by
  // (hash of the equality-atom keys, first ordering atom's key). A bucket is
  // the equal-hash run, located by binary search; the ordering atom narrows
  // a sub-run inside it. Probes then stream a contiguous slice — no
  // hash-table nodes, no pointer chasing. The pool is transient build
  // memory, 3 words per side-1 entry; charge it against the pair budget
  // (one 64-bit word ≈ one materialized pair) like every other build-time
  // pool, so adversarial side sizes fall back to the O(n)-memory naive
  // oracle instead of silently blowing past the cap.
  struct Entry {
    uint64_t hash;
    int64_t sort_key;
    uint32_t vert;
  };
  {
    if (CEXTEND_INJECT_FAULT("pool.alloc")) return over_budget();
    size_t pool_words = 3 * side1.size();
    size_t prior = global_emitted->fetch_add(pool_words);
    if (prior + pool_words > max_materialized_pairs) return over_budget();
  }
  std::vector<Entry> entries;
  entries.reserve(side1.size());
  for (uint32_t v : side1) {
    uint32_t row = rows[v];
    uint64_t h = 0;
    for (const OrientedAtom& a : plan.eq) h = MixHash64(h, static_cast<uint64_t>(a.VKey(table, row)));
    int64_t sk = plan.ord.empty() ? 0 : plan.ord[0].VKey(table, row);
    entries.push_back(Entry{h, sk, v});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    if (a.sort_key != b.sort_key) return a.sort_key < b.sort_key;
    return a.vert < b.vert;
  });

  auto hash_less = [](const Entry& e, uint64_t h) { return e.hash < h; };
  auto hash_greater = [](uint64_t h, const Entry& e) { return h < e.hash; };
  for (uint32_t u : side0) {
    uint32_t u_row = rows[u];
    uint64_t h = 0;
    for (const OrientedAtom& a : plan.eq) h = MixHash64(h, static_cast<uint64_t>(a.UKey(table, u_row)));
    auto bucket_begin =
        std::lower_bound(entries.begin(), entries.end(), h, hash_less);
    if (bucket_begin == entries.end() || bucket_begin->hash != h) continue;
    auto bucket_end =
        std::upper_bound(bucket_begin, entries.end(), h, hash_greater);

    size_t lo = static_cast<size_t>(bucket_begin - entries.begin());
    size_t hi = static_cast<size_t>(bucket_end - entries.begin());
    if (!plan.ord.empty()) {
      // Predicate: u_key op v_sort_key. Narrow [lo, hi) to the satisfying
      // run of the sorted bucket.
      int64_t u_key = plan.ord[0].UKey(table, u_row);
      auto key_less = [](const Entry& e, int64_t k) { return e.sort_key < k; };
      auto key_greater = [](int64_t k, const Entry& e) {
        return k < e.sort_key;
      };
      switch (plan.ord[0].op) {
        case CompareOp::kLt:  // v_key > u_key
          lo = static_cast<size_t>(
              std::upper_bound(bucket_begin, bucket_end, u_key, key_greater) -
              entries.begin());
          break;
        case CompareOp::kLe:  // v_key >= u_key
          lo = static_cast<size_t>(
              std::lower_bound(bucket_begin, bucket_end, u_key, key_less) -
              entries.begin());
          break;
        case CompareOp::kGt:  // v_key < u_key
          hi = static_cast<size_t>(
              std::lower_bound(bucket_begin, bucket_end, u_key, key_less) -
              entries.begin());
          break;
        case CompareOp::kGe:  // v_key <= u_key
          hi = static_cast<size_t>(
              std::upper_bound(bucket_begin, bucket_end, u_key, key_greater) -
              entries.begin());
          break;
        default:
          break;
      }
    }

    for (size_t idx = lo; idx < hi; ++idx) {
      uint32_t v = entries[idx].vert;
      if (v == u) continue;
      uint32_t v_row = rows[v];
      bool ok = true;
      // Equality atoms re-verified to absorb hash collisions; ordering atoms
      // beyond the first and != atoms are genuine residual filters.
      for (const OrientedAtom& a : plan.eq) {
        if (!a.Holds(table, u_row, v_row)) {
          ok = false;
          break;
        }
      }
      for (size_t k = 1; ok && k < plan.ord.size(); ++k) {
        if (!plan.ord[k].Holds(table, u_row, v_row)) ok = false;
      }
      for (const OrientedAtom& a : plan.other) {
        if (!ok) break;
        if (!a.Holds(table, u_row, v_row)) ok = false;
      }
      if (ok) pairs->push_back(PackPair(u, v));
    }
    if (pairs->size() - charged >= kBudgetChargeChunk) {
      CEXTEND_RETURN_IF_ERROR(run_control.Check());
      if (charge(pairs->size() - charged)) return over_budget();
    }
  }
  if (pairs->size() > charged && charge(pairs->size() - charged)) {
    return over_budget();
  }
  return Status::Ok();
}

/// Merges independently sorted, deduplicated per-DC pair runs into one
/// sorted unique list via pairwise std::merge rounds (O(total · log k) with
/// a tight two-way inner loop; cross-run duplicates fall to a final unique
/// pass). The result is exactly what sorting + deduplicating the
/// concatenated emission would produce, so the parallel build stays
/// byte-identical to the serial one.
std::vector<uint64_t> MergeSortedRuns(std::vector<std::vector<uint64_t>>&& runs) {
  runs.erase(std::remove_if(runs.begin(), runs.end(),
                            [](const std::vector<uint64_t>& r) {
                              return r.empty();
                            }),
             runs.end());
  if (runs.empty()) return {};
  while (runs.size() > 1) {
    std::vector<std::vector<uint64_t>> next;
    next.reserve((runs.size() + 1) / 2);
    for (size_t i = 0; i + 1 < runs.size(); i += 2) {
      std::vector<uint64_t> merged;
      merged.reserve(runs[i].size() + runs[i + 1].size());
      std::merge(runs[i].begin(), runs[i].end(), runs[i + 1].begin(),
                 runs[i + 1].end(), std::back_inserter(merged));
      next.push_back(std::move(merged));
    }
    if (runs.size() % 2 != 0) next.push_back(std::move(runs.back()));
    runs = std::move(next);
  }
  runs[0].erase(std::unique(runs[0].begin(), runs[0].end()), runs[0].end());
  return std::move(runs[0]);
}

}  // namespace

// ---- PartitionConflictOracle (indexed). ----

StatusOr<PartitionConflictOracle> PartitionConflictOracle::Build(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    std::vector<uint32_t> rows, const ConflictOracleOptions& options) {
  CEXTEND_ASSIGN_OR_RETURN(
      std::shared_ptr<const Hypergraph> higher,
      BuildHigherArity(table, dcs, rows, options.max_hyperedge_candidates,
                       options.run_control));
  return BuildWithHypergraph(table, dcs, std::move(rows), options,
                             std::move(higher));
}

StatusOr<PartitionConflictOracle> PartitionConflictOracle::BuildWithHypergraph(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    std::vector<uint32_t> rows, const ConflictOracleOptions& options,
    std::shared_ptr<const Hypergraph> higher) {
  PartitionConflictOracle oracle;
  oracle.rows_ = std::move(rows);
  oracle.higher_ = std::move(higher);
  size_t n = oracle.rows_.size();
  oracle.implicit_ = ImplicitBicliqueFamily(n);

  // Pass 1 (serial, O(n) per DC): side masks of every binary DC, then each
  // DC's path — an implicit biclique (no cross atoms), the threshold layer
  // (one ordering atom, admitted by AdmitThresholds), or materialized pairs.
  // With fewer than two vertices no DC has a pair.
  std::vector<BinarySides> binary;
  binary.reserve(dcs.size());
  std::vector<uint8_t> mask;
  for (const BoundDenialConstraint& dc : dcs) {
    if (dc.arity() != 2 || n < 2) continue;
    BinarySides b{PlanBinaryDc(dc), {}, {}};
    BuildSideMask(table, dc, b.plan, oracle.rows_, 0, &mask);
    b.side0 = PackMask(mask);
    BuildSideMask(table, dc, b.plan, oracle.rows_, 1, &mask);
    b.side1 = PackMask(mask);
    b.has_pairs = AnyBit(b.side0) && AnyBit(b.side1);
    if (b.has_pairs) ClassifyThreshold(table, oracle.rows_, &b);
    binary.push_back(std::move(b));
  }
  const std::vector<uint8_t> admitted = AdmitThresholds(binary);
  oracle.threshold_ = ThresholdLayer(n);
  size_t threshold_members = 0;
  for (size_t i = 0; i < binary.size(); ++i) {
    if (!admitted[i]) continue;
    const BinarySides& b = binary[i];
    threshold_members += simd::Popcount(b.side0.data(), b.side0.size()) +
                         simd::Popcount(b.side1.data(), b.side1.size());
  }
  oracle.threshold_.Reserve(threshold_members);
  std::vector<ThresholdLayer::KeyedVertex> keyed0, keyed1;
  std::vector<const BinarySides*> indexed;
  for (size_t i = 0; i < binary.size(); ++i) {
    BinarySides& b = binary[i];
    if (!b.has_pairs) continue;
    if (IsProductDc(b.plan)) {
      // No cross atoms: the conflict set is the side0 x side1 product. Keep
      // it implicit — O(n) bits instead of Θ(|side0|·|side1|) pairs. Past
      // the family's capacity the build gives up, and BuildPartitionOracle
      // takes its naive rung (identical answers).
      if (oracle.implicit_.num_bicliques() ==
          ImplicitBicliqueFamily::kMaxBicliques) {
        return Status::ResourceExhausted(
            StrFormat("more than %zu product DCs in one partition",
                      ImplicitBicliqueFamily::kMaxBicliques));
      }
      oracle.implicit_.AddBicliqueWords(std::move(b.side0),
                                        std::move(b.side1));
    } else if (admitted[i]) {
      AddThresholdDc(table, oracle.rows_, b, &oracle.threshold_, &keyed0,
                     &keyed1);
    } else {
      indexed.push_back(&b);
    }
  }
  oracle.implicit_.Finalize();
  oracle.threshold_.Finalize();
  // The threshold layer holds O(n) words per admitted DC and the implicit
  // layer normally O(K · n) bits, but pathologically overlapping product DCs
  // can mint up to n signature groups, each with an n-bit neighborhood. Both
  // are resident while the pairs are emitted, so their words open the shared
  // budget counter (one 64-bit word ≈ one materialized pair) and the naive
  // fallback — O(n) memory, always — still guards the worst case.
  const size_t layer_words =
      oracle.threshold_.StorageWords() + oracle.implicit_.StorageWords();
  if (layer_words > options.max_materialized_pairs) {
    return Status::ResourceExhausted(
        StrFormat("implicit and threshold layers exceed the pair budget (%zu)",
                  options.max_materialized_pairs));
  }

  // Pass 2: per-DC pair emission, fanned out on the thread pool when one is
  // supplied. Each DC emits into a private run, which is then sorted and
  // deduplicated inside the task; the runs merge into one sorted unique pair
  // list, byte-identical to the serial sort-then-dedup of the concatenated
  // emission. The pair budget is authoritative on the *pre-dedup* total (as
  // in the old cumulative serial check): every run charges the shared
  // counter in chunks, so concurrent runs' combined memory stays near the
  // budget rather than a per-run multiple of it.
  std::vector<std::vector<uint64_t>> runs(indexed.size());
  std::vector<Status> run_status(indexed.size(), Status::Ok());
  std::atomic<size_t> total_emitted{layer_words};
  ParallelFor(options.pool, indexed.size(), [&](size_t i) {
    // Chunk-start check: a tripped deadline/cancel skips the emission work
    // and surfaces after the (deterministic) status sweep below.
    run_status[i] = options.run_control.Check();
    if (!run_status[i].ok()) return;
    run_status[i] = EmitBinaryDcPairs(
        table, indexed[i]->plan, oracle.rows_, indexed[i]->side0,
        indexed[i]->side1, options.max_materialized_pairs,
        options.run_control, &total_emitted, &runs[i]);
    std::sort(runs[i].begin(), runs[i].end());
    runs[i].erase(std::unique(runs[i].begin(), runs[i].end()), runs[i].end());
  });
  // Interrupts outrank budget errors: a budget overrun would trigger the
  // naive fallback, which must not mask an expired deadline / cancel.
  for (const Status& st : run_status) {
    if (st.code() == StatusCode::kDeadlineExceeded ||
        st.code() == StatusCode::kCancelled) {
      return st;
    }
  }
  for (const Status& st : run_status) CEXTEND_RETURN_IF_ERROR(st);
  std::vector<uint64_t> pairs = MergeSortedRuns(std::move(runs));
  oracle.adjacency_ =
      AdjacencyGraph::FromSortedUniquePairs(n, std::move(pairs));

  // Union simple-graph degrees over (implicit ∪ CSR); threshold pairs are
  // in no other layer (AdmitThresholds), so their range sizes add on, and
  // hypergraph degrees stack on top, matching the brute-force oracle's
  // accounting.
  size_t pair_edges =
      oracle.implicit_.UnionDegrees(oracle.adjacency_, &oracle.degrees_) +
      oracle.threshold_.num_edges();
  if (!oracle.threshold_.empty()) {
    for (size_t v = 0; v < n; ++v)
      oracle.degrees_[v] += oracle.threshold_.Degree(v);
  }
  if (oracle.higher_ != nullptr) {
    for (size_t v = 0; v < n; ++v)
      oracle.degrees_[v] += oracle.higher_->Degree(v);
  }
  oracle.num_edges_ =
      pair_edges +
      (oracle.higher_ == nullptr ? 0 : oracle.higher_->num_edges());
  return oracle;
}

void PartitionConflictOracle::AppendForbiddenColors(
    size_t v, const std::vector<int64_t>& colors,
    std::vector<int64_t>* out) const {
  constexpr int64_t kNone = INT64_MIN;
  for (const uint32_t* p = adjacency_.NeighborsBegin(v),
                     * end = adjacency_.NeighborsEnd(v);
       p != end; ++p) {
    int64_t c = colors[*p];
    if (c != kNone) out->push_back(c);
  }
  // Implicit neighbors may overlap the CSR run; duplicate appends are legal
  // per the ConflictOracle contract (the coloring epoch-marks them away).
  implicit_.AppendForbiddenColors(v, colors, out);
  threshold_.AppendForbiddenColors(v, colors, out);
  if (higher_ != nullptr) higher_->AppendForbiddenColors(v, colors, out);
}

// ---- NaiveConflictOracle (brute force, reference). ----

StatusOr<NaiveConflictOracle> NaiveConflictOracle::Build(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    std::vector<uint32_t> rows, const ConflictOracleOptions& options) {
  CEXTEND_ASSIGN_OR_RETURN(
      std::shared_ptr<const Hypergraph> higher,
      BuildHigherArity(table, dcs, rows, options.max_hyperedge_candidates,
                       options.run_control));
  return BuildWithHypergraph(table, dcs, std::move(rows), options,
                             std::move(higher));
}

StatusOr<NaiveConflictOracle> NaiveConflictOracle::BuildWithHypergraph(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    std::vector<uint32_t> rows, const ConflictOracleOptions& /*options*/,
    std::shared_ptr<const Hypergraph> higher) {
  NaiveConflictOracle oracle;
  oracle.table_ = &table;
  oracle.rows_ = std::move(rows);
  oracle.higher_ = std::move(higher);
  size_t n = oracle.rows_.size();
  oracle.degrees_.assign(n, 0);

  for (const BoundDenialConstraint& dc : dcs) {
    if (dc.arity() != 2) continue;
    BinaryDc b;
    b.dc = &dc;
    b.side0.resize(n);
    b.side1.resize(n);
    for (size_t i = 0; i < n; ++i) {
      b.side0[i] = dc.SideMatches(table, oracle.rows_[i], 0) ? 1 : 0;
      b.side1[i] = dc.SideMatches(table, oracle.rows_[i], 1) ? 1 : 0;
    }
    oracle.binary_.push_back(std::move(b));
  }

  // Degrees + edge count in one pairwise scan (no edge storage).
  size_t pair_edges = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (oracle.PairConflicts(i, j)) {
        ++oracle.degrees_[i];
        ++oracle.degrees_[j];
        ++pair_edges;
      }
    }
  }
  oracle.num_edges_ = pair_edges;
  if (oracle.higher_ != nullptr) {
    for (size_t v = 0; v < n; ++v)
      oracle.degrees_[v] += oracle.higher_->Degree(v);
    oracle.num_edges_ += oracle.higher_->num_edges();
  }
  return oracle;
}

bool NaiveConflictOracle::PairConflicts(size_t u, size_t v) const {
  for (const BinaryDc& b : binary_) {
    if (b.side0[u] && b.side1[v] &&
        b.dc->CrossAtomsHold(*table_, {rows_[u], rows_[v]})) {
      return true;
    }
    if (b.side0[v] && b.side1[u] &&
        b.dc->CrossAtomsHold(*table_, {rows_[v], rows_[u]})) {
      return true;
    }
  }
  return false;
}

void NaiveConflictOracle::AppendForbiddenColors(
    size_t v, const std::vector<int64_t>& colors,
    std::vector<int64_t>* out) const {
  constexpr int64_t kNone = INT64_MIN;
  // Binary DCs: the color of any conflicting colored vertex is forbidden.
  for (size_t u = 0; u < rows_.size(); ++u) {
    if (u == v || colors[u] == kNone) continue;
    if (PairConflicts(u, v)) out->push_back(colors[u]);
  }
  if (higher_ != nullptr) higher_->AppendForbiddenColors(v, colors, out);
}

// ---- Factory with fallback. ----

StatusOr<std::unique_ptr<PartitionOracle>> BuildPartitionOracle(
    const Table& table, const std::vector<BoundDenialConstraint>& dcs,
    std::vector<uint32_t> rows, const ConflictOracleOptions& options,
    BuildOracleInfo* info) {
  BuildOracleInfo local_info;
  if (info == nullptr) info = &local_info;
  struct ChargeCpu {
    BuildOracleInfo* info;
    double start;
    ~ChargeCpu() { info->oracle_build_seconds = ThreadCpuSeconds() - start; }
  } charge_cpu{info, ThreadCpuSeconds()};
  // Hyperedges are enumerated once up front and shared: a cap failure here
  // is terminal (the naive oracle would hit the identical cap), and a
  // later kResourceExhausted from the indexed build can only mean the pair
  // budget or the implicit family's capacity, which bind only the indexed
  // oracle.
  CEXTEND_ASSIGN_OR_RETURN(
      std::shared_ptr<const Hypergraph> higher,
      BuildHigherArity(table, dcs, rows, options.max_hyperedge_candidates,
                       options.run_control));
  // The injected fault abandons the indexed build outright, exercising the
  // same indexed→naive rung a real pair-budget overrun takes.
  if (!CEXTEND_INJECT_FAULT("oracle.build")) {
    StatusOr<PartitionConflictOracle> indexed =
        PartitionConflictOracle::BuildWithHypergraph(table, dcs, rows,
                                                     options, higher);
    if (indexed.ok()) {
      info->max_partition_pairs = indexed.value().num_materialized_pairs();
      std::unique_ptr<PartitionOracle> oracle =
          std::make_unique<PartitionConflictOracle>(
              std::move(indexed).value());
      return oracle;
    }
    if (indexed.status().code() != StatusCode::kResourceExhausted) {
      return indexed.status();
    }
    // Over the pair budget or the implicit family's capacity: fall back to
    // the O(n) memory brute-force oracle.
  }
  info->naive_fallback = true;
  CEXTEND_ASSIGN_OR_RETURN(
      NaiveConflictOracle naive,
      NaiveConflictOracle::BuildWithHypergraph(table, dcs, std::move(rows),
                                               options, std::move(higher)));
  std::unique_ptr<PartitionOracle> oracle =
      std::make_unique<NaiveConflictOracle>(std::move(naive));
  return oracle;
}

}  // namespace cextend
