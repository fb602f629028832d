#include "core/plan.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "core/fill_state.h"
#include "util/byte_codec.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cextend {
namespace {

constexpr char kMagic[4] = {'C', 'X', 'P', 'L'};
constexpr uint32_t kVersion = 2;

/// Phase-2 partitioning of a plan's valid rows (Section 5.2): one partition
/// per combo id, in first-row order, plus the stable size-descending
/// worklist over them. The single owner of partition order — the shard map
/// (BuildSynthesisPlan) and the executor's partitions (PreparePlan) both
/// come from here, so shard boundaries always line up with the worklist.
struct PlanPartitioning {
  std::vector<uint32_t> combo;              ///< per partition: combo id
  std::vector<std::vector<uint32_t>> rows;  ///< per partition: valid rows
  std::vector<size_t> worklist;             ///< partition ids, size-descending
};

PlanPartitioning PartitionPlan(const SynthesisPlan& plan) {
  std::vector<uint8_t> is_invalid(plan.num_rows, 0);
  for (uint32_t r : plan.invalid_rows) is_invalid[r] = 1;
  PlanPartitioning out;
  std::vector<size_t> partition_of_combo(plan.combo_table.size(), SIZE_MAX);
  for (size_t r = 0; r < plan.num_rows; ++r) {
    if (is_invalid[r]) continue;
    const uint32_t combo = plan.row_combo[r];
    if (partition_of_combo[combo] == SIZE_MAX) {
      partition_of_combo[combo] = out.combo.size();
      out.combo.push_back(combo);
      out.rows.emplace_back();
    }
    out.rows[partition_of_combo[combo]].push_back(static_cast<uint32_t>(r));
  }
  out.worklist.resize(out.combo.size());
  for (size_t i = 0; i < out.worklist.size(); ++i) out.worklist[i] = i;
  std::stable_sort(out.worklist.begin(), out.worklist.end(),
                   [&](size_t a, size_t b) {
                     return out.rows[a].size() > out.rows[b].size();
                   });
  return out;
}

}  // namespace

std::string SynthesisPlan::Serialize() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, kVersion);
  PutU64(&out, seed);
  PutU64(&out, num_rows);
  PutU32(&out, static_cast<uint32_t>(b_names.size()));
  for (const std::string& name : b_names) {
    PutU32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
  }
  PutU32(&out, static_cast<uint32_t>(combo_table.size()));
  for (const std::vector<int64_t>& combo : combo_table) {
    CEXTEND_CHECK(combo.size() == b_names.size());
    for (int64_t code : combo) PutI64(&out, code);
  }
  for (uint32_t combo : row_combo) PutU32(&out, combo);
  PutU32(&out, static_cast<uint32_t>(invalid_rows.size()));
  for (uint32_t row : invalid_rows) PutU32(&out, row);
  PutU32(&out, static_cast<uint32_t>(num_shards()));
  for (uint64_t b : shard_begin) PutU64(&out, b);
  return out;
}

StatusOr<SynthesisPlan> SynthesisPlan::Deserialize(const std::string& bytes) {
  ByteReader in(bytes);
  std::string magic;
  uint32_t version;
  if (!in.Bytes(sizeof(kMagic), &magic) ||
      std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a SynthesisPlan (bad magic)");
  }
  if (!in.U32(&version) || version != kVersion) {
    return Status::InvalidArgument("unsupported SynthesisPlan version");
  }
  // Admission caps: every count is checked against the bytes left before
  // anything is sized from it, so a short header cannot request gigabytes.
  auto fits = [&in](uint64_t count, uint64_t width) {
    return count <= in.remaining() / width;
  };
  SynthesisPlan plan;
  uint32_t q, num_combos, num_invalid, num_shards;
  if (!in.U64(&plan.seed) || !in.U64(&plan.num_rows) || !in.U32(&q)) {
    return Status::InvalidArgument("truncated SynthesisPlan header");
  }
  if (!fits(plan.num_rows, 4)) {
    return Status::InvalidArgument("SynthesisPlan row count exceeds its bytes");
  }
  for (uint32_t i = 0; i < q; ++i) {
    uint32_t len;
    std::string name;
    if (!in.U32(&len) || !in.Bytes(len, &name)) {
      return Status::InvalidArgument("truncated SynthesisPlan column names");
    }
    plan.b_names.push_back(std::move(name));
  }
  // The table interns only combos some row carries, so num_combos <=
  // num_rows, which also bounds zero-width combos.
  if (!in.U32(&num_combos) || num_combos > plan.num_rows ||
      (q > 0 && !fits(num_combos, 8ull * q))) {
    return Status::InvalidArgument("truncated SynthesisPlan combo table");
  }
  plan.combo_table.assign(num_combos, std::vector<int64_t>(q));
  for (auto& combo : plan.combo_table) {
    for (int64_t& code : combo) {
      if (!in.I64(&code)) {
        return Status::InvalidArgument("truncated SynthesisPlan combo table");
      }
    }
  }
  plan.row_combo.resize(plan.num_rows);
  for (uint32_t& combo : plan.row_combo) {
    if (!in.U32(&combo) || combo >= num_combos) {
      return Status::InvalidArgument("bad SynthesisPlan row combo");
    }
  }
  if (!in.U32(&num_invalid) || !fits(num_invalid, 4)) {
    return Status::InvalidArgument("truncated SynthesisPlan invalid rows");
  }
  plan.invalid_rows.resize(num_invalid);
  for (uint32_t& row : plan.invalid_rows) {
    if (!in.U32(&row) || row >= plan.num_rows) {
      return Status::InvalidArgument("bad SynthesisPlan invalid row");
    }
  }
  if (!in.U32(&num_shards) || num_shards == 0) {
    return Status::InvalidArgument("SynthesisPlan must have >= 1 shard");
  }
  if (!fits(uint64_t{num_shards} + 1, 8)) {
    return Status::InvalidArgument("truncated SynthesisPlan shard map");
  }
  plan.shard_begin.resize(size_t{num_shards} + 1);
  for (size_t i = 0; i < plan.shard_begin.size(); ++i) {
    if (!in.U64(&plan.shard_begin[i]) ||
        (i > 0 && plan.shard_begin[i] < plan.shard_begin[i - 1])) {
      return Status::InvalidArgument("bad SynthesisPlan shard map");
    }
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after SynthesisPlan");
  }
  return plan;
}

StatusOr<SynthesisPlan> BuildSynthesisPlan(
    Table& v_join, const Table& r2, const PairSchema& names,
    const std::vector<CardinalityConstraint>& ccs,
    const std::vector<uint32_t>& invalid_rows,
    const SynthesisPlanOptions& options, const ComboIndex* r2_combos,
    PlanBuildTimings* timings) {
  PlanBuildTimings local_timings;
  if (timings == nullptr) timings = &local_timings;
  CEXTEND_ASSIGN_OR_RETURN(std::vector<size_t> b_cols,
                           FillState::ResolveBColumns(v_join.schema(), names));

  SynthesisPlan plan;
  plan.seed = options.seed;
  plan.num_rows = v_join.NumRows();
  plan.b_names = names.r2_attrs;
  plan.invalid_rows = invalid_rows;

  // ---- solveInvalidTuples pass 1 (Algorithm 4 line 16, selection half). ----
  // Picks each invalid row's min-badness combo (fewest CCs newly satisfied)
  // and writes its B cells. The choice depends only on the row's A values and
  // the CC conditions — never on coloring — which is what makes it *plan*
  // state: freezing it here fixes the repair grouping before any shard runs.
  {
    ScopedTimer timer(&timings->selection_seconds);
    if (!invalid_rows.empty()) {
      ComboIndex built;
      if (r2_combos == nullptr) {
        CEXTEND_ASSIGN_OR_RETURN(built, ComboIndex::Build(r2, names));
        r2_combos = &built;
      }
      const ComboIndex& combos = *r2_combos;
      std::vector<BoundPredicate> cc_r1;
      std::vector<std::vector<char>> cc_combo(ccs.size());
      for (size_t c = 0; c < ccs.size(); ++c) {
        CEXTEND_ASSIGN_OR_RETURN(
            BoundPredicate p1,
            BoundPredicate::Bind(ccs[c].r1_condition, v_join));
        cc_r1.push_back(std::move(p1));
        cc_combo[c].assign(combos.num_combos(), 0);
        CEXTEND_ASSIGN_OR_RETURN(std::vector<size_t> match,
                                 combos.MatchingCombos(ccs[c].r2_condition));
        for (size_t i : match) cc_combo[c][i] = 1;
      }
      for (uint32_t row : invalid_rows) {
        size_t best_combo = 0;
        int64_t best_badness = INT64_MAX;
        for (size_t i = 0; i < combos.num_combos(); ++i) {
          int64_t badness = 0;
          for (size_t c = 0; c < ccs.size(); ++c) {
            if (cc_combo[c][i] && cc_r1[c].Matches(v_join, row)) ++badness;
          }
          if (badness < best_badness) {
            best_badness = badness;
            best_combo = i;
            if (badness == 0) break;
          }
        }
        const std::vector<int64_t>& combo = combos.combo_codes(best_combo);
        for (size_t i = 0; i < b_cols.size(); ++i) {
          v_join.SetCode(row, b_cols[i], combo[i]);
        }
      }
    }
  }

  // ---- Freeze the combo layout and the shard map. ----
  {
    ScopedTimer timer(&timings->layout_seconds);
    // Every row (valid and repaired) now carries its combo; intern them in
    // first-appearance order. Phase 1 may synthesize combos absent from R2,
    // which is why the plan keeps its own table instead of ComboIndex ids.
    std::unordered_map<std::vector<int64_t>, uint32_t, CodeVectorHash> interned;
    plan.row_combo.resize(v_join.NumRows());
    std::vector<int64_t> key(b_cols.size());
    for (size_t r = 0; r < v_join.NumRows(); ++r) {
      for (size_t i = 0; i < b_cols.size(); ++i) {
        key[i] = v_join.GetCode(r, b_cols[i]);
      }
      auto [it, inserted] = interned.try_emplace(
          key, static_cast<uint32_t>(plan.combo_table.size()));
      if (inserted) plan.combo_table.push_back(key);
      plan.row_combo[r] = it->second;
    }

    const PlanPartitioning partitioning = PartitionPlan(plan);
    const size_t num_partitions = partitioning.worklist.size();
    uint64_t total = 0;
    for (const std::vector<uint32_t>& rows : partitioning.rows) {
      total += rows.size();
    }

    size_t requested = options.num_shards;
    if (requested == 0) {
      requested = 4 * std::max<size_t>(1, options.num_threads_hint);
    }
    size_t num_shards =
        std::max<size_t>(1, std::min(requested, num_partitions));

    // Contiguous worklist ranges balanced by row count: boundary s sits at
    // the first prefix holding at least total*s/num_shards rows. Large
    // partitions lead the worklist, so early shards are the heavy ones.
    plan.shard_begin.assign(num_shards + 1, 0);
    uint64_t cum = 0;
    size_t s = 1;
    for (size_t i = 0; i < num_partitions; ++i) {
      cum += partitioning.rows[partitioning.worklist[i]].size();
      while (s < num_shards && cum * num_shards >= total * s) {
        plan.shard_begin[s++] = i + 1;
      }
    }
    for (; s <= num_shards; ++s) plan.shard_begin[s] = num_partitions;
  }
  return plan;
}

Status ApplyPlanToJoinView(const SynthesisPlan& plan, Table& v_join,
                           const PairSchema& names) {
  if (plan.b_names != names.r2_attrs) {
    return Status::InvalidArgument(
        "SynthesisPlan B columns do not match the pair schema");
  }
  if (plan.num_rows != v_join.NumRows()) {
    return Status::InvalidArgument(
        "SynthesisPlan row count does not match the join view");
  }
  CEXTEND_ASSIGN_OR_RETURN(std::vector<size_t> b_cols,
                           FillState::ResolveBColumns(v_join.schema(), names));
  for (size_t r = 0; r < plan.num_rows; ++r) {
    const std::vector<int64_t>& combo = plan.combo_table[plan.row_combo[r]];
    for (size_t i = 0; i < b_cols.size(); ++i) {
      v_join.SetCode(r, b_cols[i], combo[i]);
    }
  }
  return Status::Ok();
}

StatusOr<PreparedPlan> PreparePlan(const SynthesisPlan& plan,
                                   const Table& v_join, const Table& r2,
                                   const PairSchema& names,
                                   const std::vector<DenialConstraint>& dcs) {
  if (plan.num_rows != v_join.NumRows()) {
    return Status::InvalidArgument(
        "SynthesisPlan row count does not match the join view");
  }
  if (plan.b_names != names.r2_attrs) {
    return Status::InvalidArgument(
        "SynthesisPlan B columns do not match the pair schema");
  }
  if (plan.num_shards() == 0) {
    return Status::InvalidArgument("SynthesisPlan has no shard map");
  }
  PreparedPlan prepared;
  prepared.plan = &plan;
  prepared.v_join = &v_join;
  CEXTEND_ASSIGN_OR_RETURN(prepared.bound_dcs, BindAll(dcs, v_join));

  // Partitions are keyed by combo id, which matches partitioning by combo
  // codes only while the table interns each combo once.
  const std::unordered_set<std::vector<int64_t>, CodeVectorHash> distinct(
      plan.combo_table.begin(), plan.combo_table.end());
  if (distinct.size() != plan.combo_table.size()) {
    return Status::InvalidArgument("SynthesisPlan combo table repeats a combo");
  }
  PlanPartitioning partitioning = PartitionPlan(plan);
  prepared.partitions.resize(partitioning.combo.size());
  for (size_t i = 0; i < partitioning.combo.size(); ++i) {
    PlanPartition& p = prepared.partitions[i];
    p.combo = plan.combo_table[partitioning.combo[i]];
    p.rows = std::move(partitioning.rows[i]);
    prepared.partition_index.emplace(p.combo, i);
  }
  prepared.worklist = std::move(partitioning.worklist);

  // Candidate keys per partition from R2 (combos absent from V_join skipped).
  size_t k2_col = r2.schema().IndexOrDie(names.key2);
  CEXTEND_ASSIGN_OR_RETURN(std::vector<size_t> b_cols_r2,
                           FillState::ResolveBColumns(r2.schema(), names));
  std::vector<int64_t> r2key(b_cols_r2.size());
  for (size_t r = 0; r < r2.NumRows(); ++r) {
    for (size_t i = 0; i < b_cols_r2.size(); ++i) {
      r2key[i] = r2.GetCode(r, b_cols_r2[i]);
    }
    auto it = prepared.partition_index.find(r2key);
    if (it != prepared.partition_index.end()) {
      prepared.partitions[it->second].candidates.push_back(
          r2.GetCode(r, k2_col));
    }
  }
  for (PlanPartition& p : prepared.partitions) {
    std::sort(p.candidates.begin(), p.candidates.end());
  }

  if (plan.shard_begin.front() != 0 ||
      plan.shard_begin.back() != prepared.worklist.size()) {
    return Status::InvalidArgument(
        "SynthesisPlan shard map does not cover the partition worklist "
        "(plan built for different tables?)");
  }
  prepared.shard_rows.assign(plan.num_shards(), 0);
  for (size_t s = 0; s < plan.num_shards(); ++s) {
    for (uint64_t i = plan.shard_begin[s]; i < plan.shard_begin[s + 1]; ++i) {
      prepared.shard_rows[s] +=
          prepared.partitions[prepared.worklist[i]].rows.size();
    }
  }

  // Repair grouping: invalid rows grouped by their planned combo, keyed by
  // ComboIndex id ascending (pass-1 selections always come from R2's combos).
  if (!plan.invalid_rows.empty()) {
    CEXTEND_ASSIGN_OR_RETURN(prepared.combos, ComboIndex::Build(r2, names));
    prepared.has_combos = true;
    for (uint32_t row : plan.invalid_rows) {
      const std::vector<int64_t>& combo =
          plan.combo_table[plan.row_combo[row]];
      std::optional<size_t> id = prepared.combos.Find(combo);
      if (!id.has_value()) {
        return Status::InvalidArgument(
            "SynthesisPlan repair combo not present in R2");
      }
      prepared.repair_groups[*id].push_back(row);
    }
  }

  prepared.fresh_base = 0;
  for (size_t r = 0; r < r2.NumRows(); ++r) {
    prepared.fresh_base =
        std::max(prepared.fresh_base, r2.GetCode(r, k2_col) + 1);
  }
  return prepared;
}

}  // namespace cextend
