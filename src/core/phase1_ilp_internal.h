// Internal seam of the phase-I ILP (src/core/phase1_ilp.cc), exposed for
// tests only: the per-CC incidence RunPhase1Ilp partitions and the
// component solve it runs on the partition. Handing SolveComponents one
// component that holds every CC and every bin with rows left builds the
// monolithic model, the reference the decomposition is checked against.

#ifndef CEXTEND_CORE_PHASE1_ILP_INTERNAL_H_
#define CEXTEND_CORE_PHASE1_ILP_INTERNAL_H_

#include <cstddef>
#include <vector>

#include "core/phase1_ilp.h"

namespace cextend {
namespace phase1_ilp_internal {

/// Per CC: the bins its R1 condition covers and the combos its R2 condition
/// matches (both ascending).
struct Incidence {
  std::vector<std::vector<size_t>> cc_bins;
  std::vector<std::vector<size_t>> cc_combos;
};

StatusOr<Incidence> MatchIncidence(
    const FillState& state, const ComboIndex& combos,
    const std::vector<CardinalityConstraint>& ccs);

/// One sub-ILP: global CC and bin ids, both ascending.
struct Component {
  std::vector<size_t> ccs;
  std::vector<size_t> bins;
};

/// Builds one model per component, solves them (in parallel when
/// `options.num_threads > 1`), and fills the solved components' rows in
/// component order. RunPhase1Ilp passes the connected components of the
/// (bins, CCs) incidence graph.
Status SolveComponents(FillState& state, const ComboIndex& combos,
                       const std::vector<CardinalityConstraint>& ccs,
                       const Incidence& incidence,
                       const std::vector<Component>& components,
                       const Phase1IlpOptions& options, Phase1IlpStats* stats);

}  // namespace phase1_ilp_internal
}  // namespace cextend

#endif  // CEXTEND_CORE_PHASE1_ILP_INTERNAL_H_
