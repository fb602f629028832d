#include "constraints/metrics.h"

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace cextend {
namespace {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  if (n % 2 == 1) return v[n / 2];
  return 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The non-NULL rows of one column sorted by cell code, so the rows holding
/// one code form a contiguous range. NULL cells are left out, since no `=`
/// atom matches them.
class PostingLists {
 public:
  explicit PostingLists(const std::vector<int64_t>& column) : column_(column) {
    for (size_t r = 0; r < column.size(); ++r) {
      if (column[r] != kNullCode) rows_.push_back(static_cast<uint32_t>(r));
    }
    std::sort(rows_.begin(), rows_.end(), [&](uint32_t a, uint32_t b) {
      return column[a] < column[b];
    });
  }

  /// The rows whose cell equals `code`.
  std::span<const uint32_t> Find(int64_t code) const {
    auto begin = std::lower_bound(
        rows_.begin(), rows_.end(), code,
        [&](uint32_t row, int64_t c) { return column_[row] < c; });
    auto end = std::upper_bound(
        begin, rows_.end(), code,
        [&](int64_t c, uint32_t row) { return c < column_[row]; });
    return {begin, end};
  }

 private:
  const std::vector<int64_t>& column_;
  std::vector<uint32_t> rows_;
};

/// Counts the rows of `v_join` matching `pred` (bound from `cond`). When
/// `cond` has `=` atoms, only the shortest of their posting lists is
/// scanned: every matching row holds that atom's value. Posting lists are
/// built on first use and cached in `postings`, one slot per column.
size_t CountCcMatches(const Predicate& cond, const BoundPredicate& pred,
                      const Table& v_join,
                      std::vector<std::optional<PostingLists>>& postings) {
  std::optional<std::span<const uint32_t>> shortest;
  for (const Atom& atom : cond.atoms()) {
    if (atom.op != CompareOp::kEq) continue;
    // Bind resolved every column up to the first absent `=` constant, and
    // that atom returns 0 below, so the lookup cannot miss.
    std::optional<size_t> col = v_join.schema().IndexOf(atom.column);
    if (!col.has_value()) continue;
    std::optional<int64_t> code = v_join.FindCode(*col, atom.value);
    if (!code.has_value() || *code == kNullCode) return 0;
    if (!postings[*col].has_value()) {
      postings[*col].emplace(v_join.ColumnCodes(*col));
    }
    std::span<const uint32_t> rows = postings[*col]->Find(*code);
    if (!shortest.has_value() || rows.size() < shortest->size()) {
      shortest = rows;
    }
  }
  if (!shortest.has_value()) return pred.CountMatches(v_join);
  size_t count = 0;
  for (uint32_t row : *shortest) {
    if (pred.Matches(v_join, row)) ++count;
  }
  return count;
}

/// Finds the violated row sets of one DC inside FK groups. Each tuple
/// variable's candidates are the group rows passing its unary atoms and its
/// single-variable binary atoms (`t0.A < t0.B`). Ordered tuples of distinct
/// candidates are enumerated variable by variable, and a cross atom is
/// checked as soon as both of its variables are bound, so every enumerated
/// tuple satisfies the DC body.
///
/// A row set is counted once, at the first permutation of its sorted rows
/// for which the body holds — the permutation BodyHoldsUnordered stops at —
/// so counts equal a per-subset BodyHoldsUnordered scan.
///
/// Uses only the BoundDenialConstraint API: it shares no code with the
/// conflict oracles (src/core/conflict.cc) whose output it checks.
class DcGroupChecker {
 public:
  using CrossAtom = BoundDenialConstraint::CrossAtom;

  /// Violating rows are flagged in `*violating`, one entry per r1 row.
  DcGroupChecker(const BoundDenialConstraint& dc, const Table& r1,
                 std::vector<uint8_t>* violating)
      : dc_(dc),
        r1_(r1),
        violating_(violating),
        arity_(static_cast<size_t>(dc.arity())),
        side_atoms_(arity_),
        check_at_(arity_),
        sides_(arity_),
        tuple_(arity_) {
    for (const CrossAtom& a : dc.cross_atoms()) {
      size_t lhs = static_cast<size_t>(a.lhs_tuple);
      size_t rhs = static_cast<size_t>(a.rhs_tuple);
      if (!a.IsCross()) {
        side_atoms_[lhs].push_back(&a);
        continue;
      }
      check_at_[std::max(lhs, rhs)].push_back(&a);
    }
  }

  /// Counts the violated row sets among `group`'s rows and flags their rows.
  void CheckGroup(const std::vector<uint32_t>& group) {
    if (group.size() < arity_) return;
    for (size_t var = 0; var < arity_; ++var) {
      if (!BuildSide(group, var)) return;
    }
    Extend(0);
  }

  /// Violated row sets counted so far.
  size_t num_violations() const { return num_violations_; }

 private:
  int64_t Cell(uint32_t row, size_t col) const { return r1_.GetCode(row, col); }

  /// Fills sides_[var]; false when it is empty.
  bool BuildSide(const std::vector<uint32_t>& group, size_t var) {
    dc_.SideMatchesBatch(r1_, group, static_cast<int>(var), &match_);
    std::vector<uint32_t>& side = sides_[var];
    side.clear();
    for (size_t i = 0; i < group.size(); ++i) {
      if (match_[i] == 0) continue;
      uint32_t row = group[i];
      bool keep = true;
      for (const CrossAtom* a : side_atoms_[var]) {
        keep = keep && BoundDenialConstraint::CrossAtomHolds(
                           *a, Cell(row, a->lhs_col), Cell(row, a->rhs_col));
      }
      if (keep) side.push_back(row);
    }
    return !side.empty();
  }

  void Extend(size_t var) {
    if (var == arity_) {
      if (IsFirstHoldingPermutation()) {
        ++num_violations_;
        for (uint32_t row : tuple_) (*violating_)[row] = 1;
      }
      return;
    }
    for (uint32_t row : sides_[var]) {
      if (std::find(tuple_.begin(), tuple_.begin() + var, row) !=
          tuple_.begin() + var) {
        continue;
      }
      tuple_[var] = row;
      bool holds = true;
      for (const CrossAtom* a : check_at_[var]) {
        holds = holds && BoundDenialConstraint::CrossAtomHolds(
                             *a, Cell(tuple_[a->lhs_tuple], a->lhs_col),
                             Cell(tuple_[a->rhs_tuple], a->rhs_col));
      }
      if (holds) Extend(var + 1);
    }
  }

  /// True when no permutation of tuple_'s rows that precedes tuple_ in
  /// std::next_permutation order (from the sorted rows) satisfies the body.
  bool IsFirstHoldingPermutation() {
    perm_ = tuple_;
    std::sort(perm_.begin(), perm_.end());
    while (perm_ != tuple_) {
      if (dc_.BodyHolds(r1_, perm_)) return false;
      std::next_permutation(perm_.begin(), perm_.end());
    }
    return true;
  }

  const BoundDenialConstraint& dc_;
  const Table& r1_;
  std::vector<uint8_t>* violating_;
  const size_t arity_;
  std::vector<std::vector<const CrossAtom*>> side_atoms_;  // per variable
  std::vector<std::vector<const CrossAtom*>> check_at_;  // by later variable
  std::vector<std::vector<uint32_t>> sides_;
  std::vector<uint8_t> match_;
  std::vector<uint32_t> tuple_;
  std::vector<uint32_t> perm_;
  size_t num_violations_ = 0;
};

}  // namespace

std::string CcErrorReport::Summary() const {
  return StrFormat(
      "CC error: median=%.4f mean=%.4f max=%.4f exact=%zu/%zu", median, mean,
      max, num_exact, per_cc.size());
}

StatusOr<CcErrorReport> EvaluateCcError(
    const std::vector<CardinalityConstraint>& ccs, const Table& v_join) {
  CcErrorReport report;
  report.per_cc.reserve(ccs.size());
  std::vector<std::optional<PostingLists>> postings(v_join.NumColumns());
  double sum = 0.0;
  for (const CardinalityConstraint& cc : ccs) {
    Predicate cond = cc.JoinCondition();
    CEXTEND_ASSIGN_OR_RETURN(BoundPredicate pred,
                             BoundPredicate::Bind(cond, v_join));
    int64_t actual =
        static_cast<int64_t>(CountCcMatches(cond, pred, v_join, postings));
    double denom = static_cast<double>(std::max<int64_t>(10, cc.target));
    double err =
        static_cast<double>(std::llabs(actual - cc.target)) / denom;
    report.per_cc.push_back(err);
    sum += err;
    report.max = std::max(report.max, err);
    if (actual == cc.target) ++report.num_exact;
  }
  report.mean = ccs.empty() ? 0.0 : sum / static_cast<double>(ccs.size());
  report.median = Median(report.per_cc);
  return report;
}

std::string DcErrorReport::Summary() const {
  return StrFormat("DC error: %.4f (%zu/%zu tuples, %zu violations)", error,
                   num_violating_tuples, num_tuples, num_violations);
}

StatusOr<DcErrorReport> EvaluateDcError(
    const std::vector<DenialConstraint>& dcs, const Table& r1,
    const std::string& fk_column) {
  DcErrorReport report;
  report.num_tuples = r1.NumRows();
  auto fk_idx = r1.schema().IndexOf(fk_column);
  if (!fk_idx.has_value()) {
    return Status::InvalidArgument("no FK column " + fk_column);
  }
  for (const DenialConstraint& dc : dcs) {
    if (dc.arity() < 1) {
      return Status::InvalidArgument("DC " + dc.name() +
                                     " has no tuple variable");
    }
  }
  CEXTEND_ASSIGN_OR_RETURN(std::vector<BoundDenialConstraint> bound,
                           BindAll(dcs, r1));
  std::vector<uint8_t> violating(r1.NumRows(), 0);
  std::vector<DcGroupChecker> checkers;
  checkers.reserve(bound.size());
  for (const BoundDenialConstraint& dc : bound) {
    checkers.emplace_back(dc, r1, &violating);
  }

  // FK groups are runs of the rows sorted by FK, rows ascending within a
  // run. NULL FK rows are left out: they share an FK with nothing.
  const std::vector<int64_t>& fk = r1.ColumnCodes(*fk_idx);
  std::vector<uint32_t> order;
  order.reserve(r1.NumRows());
  for (size_t r = 0; r < r1.NumRows(); ++r) {
    if (fk[r] != kNullCode) order.push_back(static_cast<uint32_t>(r));
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return fk[a] < fk[b]; });

  std::vector<uint32_t> group;
  for (size_t begin = 0; begin < order.size();) {
    size_t end = begin + 1;
    while (end < order.size() && fk[order[end]] == fk[order[begin]]) ++end;
    group.assign(order.begin() + static_cast<std::ptrdiff_t>(begin),
                 order.begin() + static_cast<std::ptrdiff_t>(end));
    for (DcGroupChecker& checker : checkers) checker.CheckGroup(group);
    begin = end;
  }
  for (const DcGroupChecker& checker : checkers) {
    report.num_violations += checker.num_violations();
  }
  for (uint8_t v : violating) report.num_violating_tuples += v;
  report.error =
      report.num_tuples == 0
          ? 0.0
          : static_cast<double>(report.num_violating_tuples) /
                static_cast<double>(report.num_tuples);
  return report;
}

StatusOr<size_t> CountJoinMismatches(
    const Table& r1, const std::string& fk_column, const Table& r2,
    const std::string& k2_column, const Table& v_join,
    const std::vector<std::string>& b_columns) {
  if (r1.NumRows() != v_join.NumRows()) {
    return Status::InvalidArgument("r1 and v_join must have equal row counts");
  }
  auto fk_idx = r1.schema().IndexOf(fk_column);
  if (!fk_idx.has_value())
    return Status::InvalidArgument("no FK column " + fk_column);
  auto k2_idx = r2.schema().IndexOf(k2_column);
  if (!k2_idx.has_value())
    return Status::InvalidArgument("no key column " + k2_column);

  // Index R2 by key.
  std::unordered_map<int64_t, uint32_t> key_to_row;
  key_to_row.reserve(r2.NumRows() * 2);
  for (size_t r = 0; r < r2.NumRows(); ++r) {
    int64_t key = r2.GetCode(r, *k2_idx);
    if (key == kNullCode) continue;
    auto [it, inserted] = key_to_row.emplace(key, static_cast<uint32_t>(r));
    if (!inserted) {
      return Status::FailedPrecondition("duplicate key in R2");
    }
  }

  std::vector<std::pair<size_t, size_t>> cols;  // (r2 col, v_join col)
  for (const std::string& b : b_columns) {
    auto c2 = r2.schema().IndexOf(b);
    auto cv = v_join.schema().IndexOf(b);
    if (!c2.has_value() || !cv.has_value()) {
      return Status::InvalidArgument("B column missing: " + b);
    }
    // The comparison below is code-level, which requires a shared dictionary.
    if (r2.schema().column(*c2).type == DataType::kString &&
        r2.dictionary(*c2) != v_join.dictionary(*cv)) {
      return Status::FailedPrecondition(
          "B column dictionaries are not shared: " + b);
    }
    cols.emplace_back(*c2, *cv);
  }

  size_t mismatches = 0;
  for (size_t r = 0; r < r1.NumRows(); ++r) {
    int64_t fk = r1.GetCode(r, *fk_idx);
    if (fk == kNullCode) {
      ++mismatches;
      continue;
    }
    auto it = key_to_row.find(fk);
    if (it == key_to_row.end()) {
      ++mismatches;
      continue;
    }
    for (const auto& [c2, cv] : cols) {
      if (r2.GetCode(it->second, c2) != v_join.GetCode(r, cv)) {
        ++mismatches;
        break;
      }
    }
  }
  return mismatches;
}

}  // namespace cextend
