// Aggregated run statistics: the runtime breakdown reported in the paper's
// Figures 11 and 13 plus solution-quality counters.
//
// Concurrency contract: these are plain value aggregates with no internal
// synchronization. Worker threads never write a shared instance directly —
// the shard executor accumulates its Phase2Stats under ExecState::mu
// (GUARDED_BY; see src/core/shard_executor.cc) and the merged copy is read
// only after the pool has joined. Keep it that way: if a new parallel stage
// needs counters, either merge under an annotated Mutex or use per-thread
// locals combined at the barrier.

#ifndef CEXTEND_CORE_STATS_H_
#define CEXTEND_CORE_STATS_H_

#include <cstdint>
#include <string>

#include "core/hybrid.h"
#include "core/phase2.h"

namespace cextend {

struct SolveStats {
  HybridStats phase1;
  Phase2Stats phase2;
  double phase1_seconds = 0.0;
  double phase2_seconds = 0.0;
  double total_seconds = 0.0;
  size_t invalid_tuples = 0;

  /// Figure 13-style breakdown table.
  std::string BreakdownTable() const;
  /// One-line summary.
  std::string Summary() const;
  /// True when any degradation-ladder rung fired (see src/core/README.md
  /// "Resilience"): a step from the fast path onto a slower-but-equivalent
  /// one under resource pressure, a numerical failure, or an injected fault.
  /// Every rung either preserves bit-identical output for a fixed seed or
  /// the solve returns a non-OK Status. The counters live in Phase2Stats
  /// and Phase1IlpStats.
  bool AnyDegradation() const;
};

}  // namespace cextend

#endif  // CEXTEND_CORE_STATS_H_
