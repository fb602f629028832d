// Crash-safe resumable streaming (see src/core/README.md "Streaming &
// sharding" / "Resilience").
//
// The shard executor's text stream is byte-stable — a shard is a pure
// function of (plan, shard id) and retirement renumbers fresh keys in shard
// order — so durability only has to remember *how far* the stream got, not
// what it contained. This layer does exactly that: a sidecar manifest
// ("CXMF", mirroring the "CXPL" plan encoding: fixed-width little-endian
// fields, no maps) records one fsync'd record per retired shard with the
// stream byte offset, a content checksum of the shard's byte range, the
// fresh-key counter, and the retained repair-target colors. The writer is a
// sink private to stream_checkpoint.cc that derives none of these: offsets
// and checksums come from the file, counters from its TextStreamSink, and
// the key counter and colors from the ResolvedShard checkpoint fields.
// LoadResumePoint fills the executor's ExecuteResume straight from the
// records. Commit protocol at every shard retirement:
//
//   1. append the shard's records to the stream file, flush, fsync;
//   2. append the manifest record, flush, fsync.
//
// Crash windows: a crash after (1) but before (2) leaves durable-but-
// uncommitted stream bytes — resume truncates them back to the last
// committed offset and re-emits the shard (byte-identical by purity). A torn
// manifest record fails its checksum and is truncated with everything after
// it. A torn stream tail past the committed offset is truncated by OpenAt.
// In every case: resumed bytes == uninterrupted bytes (chaos-tested across
// kill points, thread counts, and shard/window geometries).
//
// Manifest layout:
//
//   "CXMF" | u32 version=1 | u64 plan_digest | u64 num_shards
//   record*:
//     u32 kind (0 = stream header, 1 = shard, 2 = finish)
//     u64 shard_id            (kind 1: 0..num_shards, num_shards = repair)
//     u64 end_offset          stream bytes committed through this record
//     u64 range_checksum      FNV-1a of stream bytes [prev end, end)
//     i64 next_key            fresh-key counter after this record
//     u64 rows_written        cumulative `r` records in the stream
//     u64 tuples_written      cumulative `n` records in the stream
//     u32 num_colors | num_colors * (u32 row, i64 key)   repair colors
//     u64 record_checksum     MixHash64(0, FNV-1a(body) ^ plan_digest ^
//                                           record_index)

#ifndef CEXTEND_CORE_STREAM_CHECKPOINT_H_
#define CEXTEND_CORE_STREAM_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "core/phase2.h"
#include "core/plan.h"
#include "core/shard_executor.h"
#include "util/statusor.h"

namespace cextend {

/// Digest binding a manifest to the exact plan that produced the stream
/// (FNV-1a over the plan's canonical serialization, mixed). Resuming under a
/// different plan is refused up front.
uint64_t PlanDigest(const SynthesisPlan& plan);

/// Everything a resumed run needs from the durable prefix, reconstructed by
/// LoadResumePoint from the manifest's valid record prefix. Default state =
/// nothing durable (fresh run).
struct StreamResumePoint {
  bool header_committed = false;  ///< kind-0 record present
  bool finished = false;          ///< kind-2 record present (run completed)
  uint64_t committed_offset = 0;  ///< durable stream bytes
  uint64_t manifest_offset = 0;   ///< valid manifest prefix bytes
  uint64_t num_records = 0;       ///< committed records of any kind
  uint64_t rows_written = 0;      ///< `r` records in the committed stream
  uint64_t tuples_written = 0;    ///< `n` records in the committed stream
  /// The executor's restart state, filled straight from the records: shards
  /// committed, whether the repair record is among them, the last record's
  /// fresh-key counter, and every record's repair colors in order.
  ExecuteResume resume;
};

/// Validates `manifest_path` against `plan` and `stream_path` and returns
/// the last committed state: the manifest is truncated (logically) to its
/// longest checksum-valid, correctly-sequenced record prefix, and every
/// committed stream range is re-checksummed against the stream file. A
/// missing or empty manifest yields a fresh-run resume point; a manifest for
/// a different plan, or a stream that contradicts committed records, is an
/// error (resuming would corrupt output).
StatusOr<StreamResumePoint> LoadResumePoint(const std::string& stream_path,
                                            const std::string& manifest_path,
                                            const SynthesisPlan& plan);

/// Re-reads the committed stream prefix [0, limit) and replays its records
/// into `sink` as synthetic resolved shards (used to rebuild in-memory
/// tables before resuming; `sink` sees the same rows/tuples the original
/// Consume calls delivered, in order, under synthetic block framing).
Status ReplayStream(const std::string& stream_path, uint64_t limit,
                    RowSink* sink);

/// Durable streaming execution request. `manifest_path` empty derives
/// "<stream_path>.manifest". With `resume` set, execution restarts from the
/// manifest's committed prefix (fresh run if no manifest exists yet);
/// otherwise both files are truncated and the run starts from shard 0.
struct DurableStreamSpec {
  std::string stream_path;
  std::string manifest_path;
  bool resume = false;
};

/// ExecutePlan with a durable, resumable text stream at spec.stream_path.
/// `tee`, when non-null, additionally receives every shard — on resume it is
/// first fed the committed prefix via ReplayStream, so it ends up in the
/// same state as in an uninterrupted run (the CLI's TableSink path). Stats:
/// resumed_shards = shards (plus repair stage, counted as one) reused from
/// the durable prefix; manifest_commits = records fsync'd by this run;
/// new_r2_tuples stays the whole-run total. The headline invariant, pinned
/// by the chaos suite: interrupt anywhere, rerun with resume=true any number
/// of times, and the final stream bytes equal the uninterrupted run's.
StatusOr<Phase2Stats> ExecutePlanDurable(const PreparedPlan& prepared,
                                         const Phase2Options& options,
                                         const DurableStreamSpec& spec,
                                         RowSink* tee = nullptr);

}  // namespace cextend

#endif  // CEXTEND_CORE_STREAM_CHECKPOINT_H_
