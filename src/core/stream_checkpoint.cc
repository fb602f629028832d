#include "core/stream_checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <streambuf>

#include "util/byte_codec.h"
#include "util/fault_injection.h"
#include "util/hash.h"
#include "util/logging.h"

namespace cextend {
namespace {

constexpr char kManifestMagic[4] = {'C', 'X', 'M', 'F'};
constexpr uint32_t kManifestVersion = 1;
/// kind + shard id + end offset + range checksum + next key + rows + tuples
/// + color count (colors and the trailing record checksum follow).
constexpr size_t kRecordFixedBytes = 4 + 8 + 8 + 8 + 8 + 8 + 8 + 4;
constexpr size_t kColorBytes = 4 + 8;
/// Buffered appends spill to the fd past this size.
constexpr size_t kBufferSpill = size_t{1} << 16;
/// Replay hands the sink synthetic shards of at most this many records.
constexpr size_t kReplayChunkRecords = size_t{1} << 16;

/// Append-only file with explicit durability and checked writes, the I/O
/// primitive under both the stream and its manifest. Every write path
/// surfaces a Status (no silent short writes), failures are sticky, and the
/// fault sites "sink.write" (fails before any byte lands), "sink.torn_write"
/// (half the payload reaches the file, then the write fails), and
/// "sink.flush" (Sync fails) are injected here.
class DurableFile {
 public:
  /// Creates/truncates `path` for a fresh stream.
  static StatusOr<std::unique_ptr<DurableFile>> Create(const std::string& path);

  /// Opens `path` for appending at `offset`, truncating any torn tail past
  /// it (the resume path). The truncation is fsync'd before returning.
  static StatusOr<std::unique_ptr<DurableFile>> OpenAt(const std::string& path,
                                                       uint64_t offset);

  ~DurableFile();
  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;

  /// Appends `n` bytes (buffered; a large buffer is spilled to the fd).
  Status Append(const char* data, size_t n);

  /// Flushes the buffer and fsyncs the fd — the durability boundary.
  Status Sync();

  /// Logical end offset: bytes successfully appended since the start of the
  /// file (buffered bytes count; torn bytes past a failed append do not).
  uint64_t offset() const { return offset_; }

  /// Running FNV-1a over the bytes appended since the last call; resets the
  /// accumulator (one call per manifest record = per-range checksums).
  uint64_t TakeRangeChecksum();

  /// First I/O failure, sticky. Ok while the file is healthy.
  const Status& io_status() const { return io_status_; }

  /// ostream view for text emitters (TextStreamSink). Write failures set
  /// badbit on this stream *and* io_status(), so both error channels agree.
  std::ostream& stream() { return stream_; }

 private:
  class Buf;
  DurableFile(int fd, std::string path, uint64_t offset);

  Status FlushBuffer();
  Status WriteToFd(const char* data, size_t n);

  int fd_;
  std::string path_;
  uint64_t offset_;
  uint64_t range_fnv_;
  std::string buffer_;
  Status io_status_;
  std::unique_ptr<Buf> buf_;
  std::ostream stream_;
};

/// RowSink that makes the text stream durable: after the text sink consumes
/// a shard, the data file is fsync'd and a manifest record is committed
/// ("manifest.commit" fault site). Every record field comes from an owner
/// elsewhere: offsets and range checksums from the data file, row/tuple
/// counters from the text sink, and the fresh-key counter and repair colors
/// from the checkpoint state the executor records on each ResolvedShard.
class DurableStreamSink : public RowSink {
 public:
  /// `resume` continues an existing manifest when its header is committed;
  /// otherwise Begin writes a fresh one.
  DurableStreamSink(TextStreamSink* text, DurableFile* data,
                    DurableFile* manifest, uint64_t plan_digest,
                    const StreamResumePoint& resume)
      : text_(text),
        data_(data),
        manifest_(manifest),
        plan_digest_(plan_digest),
        resumed_(resume.header_committed),
        record_index_(resume.num_records),
        next_key_(resume.resume.next_key) {}

  Status Begin(const PreparedPlan& prepared) override;
  Status Consume(const ResolvedShard& shard) override;
  Status Finish() override;

  size_t manifest_commits() const { return commits_; }

 private:
  Status CommitRecord(uint32_t kind, uint64_t shard_id,
                      const std::vector<std::pair<uint32_t, int64_t>>& colors);
  /// Folds the data file's sticky I/O error into a sink status, so callers
  /// see the root cause and not just "stream write failed".
  Status Enrich(Status st) const;

  TextStreamSink* text_;
  DurableFile* data_;
  DurableFile* manifest_;
  uint64_t plan_digest_;
  bool resumed_;  ///< header already durable; Begin is a no-op
  uint64_t record_index_;
  int64_t next_key_;  ///< counter of the last committed record
  size_t commits_ = 0;
};

// ---- DurableFile ----

/// ostream adapter: every character reaches Append, so the fault sites and
/// the short-write checks cover text emitters too. A failed append returns
/// eof/0, which makes the ostream set badbit — the sink's error channel.
class DurableFile::Buf : public std::streambuf {
 public:
  explicit Buf(DurableFile* file) : file_(file) {}

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return sync();
    char c = static_cast<char>(ch);
    return file_->Append(&c, 1).ok() ? ch : traits_type::eof();
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    return file_->Append(s, static_cast<size_t>(n)).ok() ? n : 0;
  }
  int sync() override { return file_->FlushBuffer().ok() ? 0 : -1; }

 private:
  DurableFile* file_;
};

DurableFile::DurableFile(int fd, std::string path, uint64_t offset)
    : fd_(fd),
      path_(std::move(path)),
      offset_(offset),
      range_fnv_(kFnv1aBasis),
      buf_(new Buf(this)),
      stream_(buf_.get()) {
  buffer_.reserve(kBufferSpill);
}

DurableFile::~DurableFile() {
  // No flush: an unsynced buffered tail is exactly the torn tail a resume
  // truncates, and every success path ends with an explicit Sync.
  ::close(fd_);
}

StatusOr<std::unique_ptr<DurableFile>> DurableFile::Create(
    const std::string& path) {
  int fd = ::open(path.c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("open(" + path +
                            ") failed: " + std::strerror(errno));
  }
  return std::unique_ptr<DurableFile>(new DurableFile(fd, path, 0));
}

StatusOr<std::unique_ptr<DurableFile>> DurableFile::OpenAt(
    const std::string& path, uint64_t offset) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::Internal("open(" + path +
                            ") failed: " + std::strerror(errno));
  }
  // Trim any torn tail past the committed offset and make the cut durable
  // before a single new byte is appended.
  if (::ftruncate(fd, static_cast<off_t>(offset)) != 0 || ::fsync(fd) != 0) {
    Status st = Status::Internal("truncate(" + path + ", " +
                                 std::to_string(offset) +
                                 ") failed: " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  return std::unique_ptr<DurableFile>(new DurableFile(fd, path, offset));
}

Status DurableFile::WriteToFd(const char* data, size_t n) {
  size_t written = 0;
  while (written < n) {
    ssize_t w = ::write(fd_, data + written, n - written);
    if (w < 0) {
      if (errno == EINTR) continue;
      io_status_ = Status::Internal("write(" + path_ +
                                    ") failed: " + std::strerror(errno));
      return io_status_;
    }
    written += static_cast<size_t>(w);
  }
  return Status::Ok();
}

Status DurableFile::FlushBuffer() {
  if (!io_status_.ok()) return io_status_;
  if (buffer_.empty()) return Status::Ok();
  CEXTEND_RETURN_IF_ERROR(WriteToFd(buffer_.data(), buffer_.size()));
  buffer_.clear();
  return Status::Ok();
}

Status DurableFile::Append(const char* data, size_t n) {
  if (!io_status_.ok()) return io_status_;
  if (CEXTEND_INJECT_FAULT("sink.write")) {
    io_status_ = Status::Internal("injected fault: sink.write on " + path_);
    return io_status_;
  }
  if (CEXTEND_INJECT_FAULT("sink.torn_write")) {
    // Half the payload reaches the file: a torn record past the committed
    // offset, which a resume must truncate away.
    Status torn = FlushBuffer();
    if (torn.ok() && n > 1) torn = WriteToFd(data, n / 2);
    io_status_ = Status::Internal(
        "injected fault: sink.torn_write after " + std::to_string(n / 2) +
        "/" + std::to_string(n) + " bytes on " + path_ +
        (torn.ok() ? "" : "; " + torn.message()));
    return io_status_;
  }
  buffer_.append(data, n);
  offset_ += n;
  range_fnv_ = Fnv1a(range_fnv_, data, n);
  if (buffer_.size() >= kBufferSpill) return FlushBuffer();
  return Status::Ok();
}

Status DurableFile::Sync() {
  if (!io_status_.ok()) return io_status_;
  if (CEXTEND_INJECT_FAULT("sink.flush")) {
    io_status_ = Status::Internal("injected fault: sink.flush on " + path_);
    return io_status_;
  }
  CEXTEND_RETURN_IF_ERROR(FlushBuffer());
  if (::fsync(fd_) != 0) {
    io_status_ = Status::Internal("fsync(" + path_ +
                                  ") failed: " + std::strerror(errno));
    return io_status_;
  }
  return Status::Ok();
}

uint64_t DurableFile::TakeRangeChecksum() {
  uint64_t h = range_fnv_;
  range_fnv_ = kFnv1aBasis;
  return h;
}

// ---- DurableStreamSink ----

Status DurableStreamSink::Enrich(Status st) const {
  if (st.ok() || data_->io_status().ok()) return st;
  return Status(data_->io_status().code(),
                st.message() + "; " + data_->io_status().message());
}

Status DurableStreamSink::CommitRecord(
    uint32_t kind, uint64_t shard_id,
    const std::vector<std::pair<uint32_t, int64_t>>& colors) {
  if (CEXTEND_INJECT_FAULT("manifest.commit")) {
    return Status::Internal("injected fault: manifest.commit (record " +
                            std::to_string(record_index_) + ", shard " +
                            std::to_string(shard_id) + ")");
  }
  std::string body;
  body.reserve(kRecordFixedBytes + colors.size() * kColorBytes + 8);
  PutU32(&body, kind);
  PutU64(&body, shard_id);
  PutU64(&body, data_->offset());
  PutU64(&body, data_->TakeRangeChecksum());
  PutI64(&body, next_key_);
  PutU64(&body, text_->rows_written());
  PutU64(&body, text_->tuples_written());
  PutU32(&body, static_cast<uint32_t>(colors.size()));
  for (const auto& [row, key] : colors) {
    PutU32(&body, row);
    PutI64(&body, key);
  }
  PutU64(&body, MixHash64(0, Fnv1a(kFnv1aBasis, body.data(), body.size()) ^
                                 plan_digest_ ^ record_index_));
  CEXTEND_RETURN_IF_ERROR(manifest_->Append(body.data(), body.size()));
  CEXTEND_RETURN_IF_ERROR(manifest_->Sync());
  ++record_index_;
  ++commits_;
  return Status::Ok();
}

Status DurableStreamSink::Begin(const PreparedPlan& prepared) {
  if (resumed_) return Status::Ok();  // header already durable
  std::string header;
  header.append(kManifestMagic, 4);
  PutU32(&header, kManifestVersion);
  PutU64(&header, plan_digest_);
  PutU64(&header, prepared.plan->num_shards());
  CEXTEND_RETURN_IF_ERROR(manifest_->Append(header.data(), header.size()));
  CEXTEND_RETURN_IF_ERROR(Enrich(text_->Begin(prepared)));
  CEXTEND_RETURN_IF_ERROR(data_->Sync());
  next_key_ = prepared.fresh_base;
  return CommitRecord(0, 0, {});
}

Status DurableStreamSink::Consume(const ResolvedShard& shard) {
  CEXTEND_RETURN_IF_ERROR(Enrich(text_->Consume(shard)));
  CEXTEND_RETURN_IF_ERROR(data_->Sync());
  next_key_ = shard.next_key;
  return CommitRecord(1, shard.shard_id, shard.repair_colors);
}

Status DurableStreamSink::Finish() {
  CEXTEND_RETURN_IF_ERROR(Enrich(text_->Finish()));
  CEXTEND_RETURN_IF_ERROR(data_->Sync());
  return CommitRecord(2, 0, {});
}

}  // namespace

uint64_t PlanDigest(const SynthesisPlan& plan) {
  const std::string bytes = plan.Serialize();
  return MixHash64(0, Fnv1a(kFnv1aBasis, bytes.data(), bytes.size()) ^
                          static_cast<uint64_t>(bytes.size()));
}

// ---- LoadResumePoint ----

StatusOr<StreamResumePoint> LoadResumePoint(const std::string& stream_path,
                                            const std::string& manifest_path,
                                            const SynthesisPlan& plan) {
  StreamResumePoint rp;
  std::ifstream manifest(manifest_path, std::ios::binary);
  if (!manifest.is_open()) return rp;  // no manifest yet: fresh run
  std::string bytes((std::istreambuf_iterator<char>(manifest)),
                    std::istreambuf_iterator<char>());
  manifest.close();
  // A torn *file header* carries no commitments; start fresh. A complete
  // header that names a different plan is a caller error, not a torn tail.
  ByteReader in(bytes);
  std::string magic;
  uint32_t version = 0;
  uint64_t digest = 0, num_shards = 0;
  if (!in.Bytes(4, &magic) || !in.U32(&version) || !in.U64(&digest) ||
      !in.U64(&num_shards)) {
    return rp;
  }
  if (std::memcmp(magic.data(), kManifestMagic, 4) != 0) {
    return Status::InvalidArgument(manifest_path + " is not a CXMF manifest");
  }
  if (version != kManifestVersion) {
    return Status::InvalidArgument(manifest_path +
                                   ": unsupported CXMF version " +
                                   std::to_string(version));
  }
  if (digest != PlanDigest(plan)) {
    return Status::InvalidArgument(
        manifest_path +
        " was written for a different plan; refusing to resume");
  }
  if (num_shards != plan.num_shards()) {
    return Status::InvalidArgument(manifest_path +
                                   ": shard count mismatch against the plan");
  }
  rp.manifest_offset = in.pos();

  // One manifest record; false when the bytes end before it does.
  struct Record {
    uint32_t kind;
    uint64_t shard_id, end_offset, range_checksum;
    int64_t next_key;
    uint64_t rows, tuples;
    std::vector<std::pair<uint32_t, int64_t>> colors;
    uint64_t checksum;
  };
  auto read_record = [&in](Record* r) {
    uint32_t num_colors = 0;
    if (!in.U32(&r->kind) || !in.U64(&r->shard_id) ||
        !in.U64(&r->end_offset) || !in.U64(&r->range_checksum) ||
        !in.I64(&r->next_key) || !in.U64(&r->rows) || !in.U64(&r->tuples) ||
        !in.U32(&num_colors) || num_colors > in.remaining() / kColorBytes) {
      return false;
    }
    r->colors.resize(num_colors);
    for (auto& [row, key] : r->colors) {
      if (!in.U32(&row) || !in.I64(&key)) return false;
    }
    return in.U64(&r->checksum);
  };

  // Longest valid record prefix: checksum-chained (record index and plan
  // digest are folded into every record checksum) and strictly sequenced
  // (header, shards 0..num_shards in order, finish). The first invalid
  // record is a torn tail — everything from it on is discarded.
  struct Range {
    uint64_t begin, end, checksum;
  };
  std::vector<Range> ranges;
  ExecuteResume& resume = rp.resume;
  uint64_t prev_end = 0;
  Record r{};
  while (!rp.finished) {
    const size_t begin = in.pos();
    if (!read_record(&r)) break;
    const size_t body_bytes = in.pos() - begin - 8;
    if (r.checksum != MixHash64(0, Fnv1a(kFnv1aBasis, bytes.data() + begin,
                                         body_bytes) ^
                                       digest ^ rp.num_records)) {
      break;
    }
    if (r.end_offset < prev_end) break;
    if (rp.num_records == 0) {
      if (r.kind != 0) break;
    } else if (r.kind == 1) {
      // Shards retire in order; shard id num_shards is the repair stage.
      if (resume.repair_done || r.shard_id != resume.first_shard) break;
    } else if (r.kind == 2) {
      if (!resume.repair_done) break;
    } else {
      break;
    }
    ranges.push_back(Range{prev_end, r.end_offset, r.range_checksum});
    if (r.kind == 0) rp.header_committed = true;
    if (r.kind == 1 && r.shard_id == num_shards) resume.repair_done = true;
    if (r.kind == 1 && r.shard_id < num_shards) ++resume.first_shard;
    if (r.kind == 2) rp.finished = true;
    rp.committed_offset = r.end_offset;
    resume.next_key = r.next_key;
    rp.rows_written = r.rows;
    rp.tuples_written = r.tuples;
    resume.repair_colors.insert(resume.repair_colors.end(), r.colors.begin(),
                                r.colors.end());
    prev_end = r.end_offset;
    rp.manifest_offset = in.pos();
    ++rp.num_records;
  }
  if (!rp.header_committed) return StreamResumePoint();

  // The stream must back every committed range: long enough, and each
  // range's bytes must reproduce the checksum taken when it was appended. A
  // contradiction means the stream was modified or lost after its fsync —
  // resuming over it would corrupt output, so it is an error, not a
  // truncation.
  std::ifstream stream(stream_path, std::ios::binary);
  if (!stream.is_open()) {
    return Status::InvalidArgument(
        "manifest has committed records but the stream is unreadable: " +
        stream_path);
  }
  stream.seekg(0, std::ios::end);
  const auto stream_size = static_cast<uint64_t>(stream.tellg());
  if (stream_size < rp.committed_offset) {
    return Status::InvalidArgument(
        stream_path + " is shorter than the committed manifest offset (" +
        std::to_string(stream_size) + " < " +
        std::to_string(rp.committed_offset) + ")");
  }
  std::vector<char> chunk(kBufferSpill);
  for (const Range& r : ranges) {
    stream.seekg(static_cast<std::streamoff>(r.begin));
    uint64_t h = kFnv1aBasis;
    uint64_t left = r.end - r.begin;
    while (left > 0) {
      const size_t take =
          static_cast<size_t>(std::min<uint64_t>(left, chunk.size()));
      stream.read(chunk.data(), static_cast<std::streamsize>(take));
      if (!stream) {
        return Status::Internal("failed reading " + stream_path +
                                " while validating committed ranges");
      }
      h = Fnv1a(h, chunk.data(), take);
      left -= take;
    }
    if (h != r.checksum) {
      return Status::InvalidArgument(
          stream_path + ": committed range [" + std::to_string(r.begin) +
          ", " + std::to_string(r.end) +
          ") fails its manifest checksum; refusing to resume");
    }
  }
  return rp;
}

// ---- ReplayStream ----

Status ReplayStream(const std::string& stream_path, uint64_t limit,
                    RowSink* sink) {
  std::ifstream in(stream_path, std::ios::binary);
  if (!in.is_open()) {
    return Status::InvalidArgument("cannot open stream for replay: " +
                                   stream_path);
  }
  // Synthetic shard framing: the sink contract only requires rows/tuples in
  // retirement order, which the stream preserves; chunking bounds memory.
  ResolvedShard chunk;
  chunk.blocks.emplace_back();
  ResolvedShard::Block& block = chunk.blocks.back();
  block.worklist_idx = ResolvedShard::kRepairBlock;
  size_t buffered = 0;
  auto flush = [&]() -> Status {
    if (buffered == 0) return Status::Ok();
    Status st = sink->Consume(chunk);
    block.rows.clear();
    block.new_tuples.clear();
    buffered = 0;
    ++chunk.shard_id;
    return st;
  };
  uint64_t consumed = 0;
  std::string line;
  while (consumed < limit && std::getline(in, line)) {
    const uint64_t line_bytes = line.size() + 1;
    if (consumed + line_bytes > limit) {
      return Status::InvalidArgument(
          stream_path + ": committed prefix ends mid-line at byte " +
          std::to_string(limit));
    }
    consumed += line_bytes;
    if (line.size() < 2 || line[1] != ' ') continue;  // header/trailer lines
    const char* p = line.c_str() + 2;
    char* end = nullptr;
    if (line[0] == 'r') {
      const unsigned long row = std::strtoul(p, &end, 10);
      const long long key = std::strtoll(end, &end, 10);
      if (end == p || *end != '\0' || row > UINT32_MAX) {
        return Status::InvalidArgument(stream_path +
                                       ": malformed row record \"" + line +
                                       "\" in committed prefix");
      }
      block.rows.push_back(ShardRow{static_cast<uint32_t>(row),
                                    static_cast<int64_t>(key)});
    } else if (line[0] == 'n') {
      ResolvedShard::NewTuple t;
      t.key = std::strtoll(p, &end, 10);
      if (end == p) {
        return Status::InvalidArgument(stream_path +
                                       ": malformed tuple record \"" + line +
                                       "\" in committed prefix");
      }
      while (*end != '\0') {
        const char* code_begin = end;
        const long long code = std::strtoll(code_begin, &end, 10);
        if (end == code_begin) {
          return Status::InvalidArgument(stream_path +
                                         ": malformed tuple record \"" + line +
                                         "\" in committed prefix");
        }
        t.combo.push_back(static_cast<int64_t>(code));
      }
      block.new_tuples.push_back(std::move(t));
    } else {
      continue;
    }
    if (++buffered >= kReplayChunkRecords) CEXTEND_RETURN_IF_ERROR(flush());
  }
  if (consumed != limit) {
    return Status::InvalidArgument(
        stream_path + " is shorter than the committed prefix (" +
        std::to_string(consumed) + " < " + std::to_string(limit) + ")");
  }
  return flush();
}

// ---- ExecutePlanDurable ----

StatusOr<Phase2Stats> ExecutePlanDurable(const PreparedPlan& prepared,
                                         const Phase2Options& options,
                                         const DurableStreamSpec& spec,
                                         RowSink* tee) {
  if (spec.stream_path.empty()) {
    return Status::InvalidArgument("DurableStreamSpec.stream_path is empty");
  }
  const std::string manifest_path = spec.manifest_path.empty()
                                        ? spec.stream_path + ".manifest"
                                        : spec.manifest_path;
  const size_t num_shards = prepared.plan->num_shards();
  StreamResumePoint rp;
  if (spec.resume) {
    CEXTEND_ASSIGN_OR_RETURN(
        rp, LoadResumePoint(spec.stream_path, manifest_path, *prepared.plan));
  }

  if (rp.finished) {
    // The whole run is already durable: trim any garbage past the committed
    // offsets, rebuild the tee from the stream, re-execute nothing.
    CEXTEND_ASSIGN_OR_RETURN(
        std::unique_ptr<DurableFile> data,
        DurableFile::OpenAt(spec.stream_path, rp.committed_offset));
    CEXTEND_ASSIGN_OR_RETURN(
        std::unique_ptr<DurableFile> manifest,
        DurableFile::OpenAt(manifest_path, rp.manifest_offset));
    if (tee != nullptr) {
      CEXTEND_RETURN_IF_ERROR(tee->Begin(prepared));
      CEXTEND_RETURN_IF_ERROR(
          ReplayStream(spec.stream_path, rp.committed_offset, tee));
      CEXTEND_RETURN_IF_ERROR(tee->Finish());
    }
    Phase2Stats stats;
    stats.num_partitions = prepared.partitions.size();
    stats.invalid_rows = prepared.plan->invalid_rows.size();
    stats.new_r2_tuples =
        static_cast<size_t>(rp.resume.next_key - prepared.fresh_base);
    stats.resumed_shards = num_shards + 1;
    return stats;
  }

  std::unique_ptr<DurableFile> data;
  std::unique_ptr<DurableFile> manifest;
  if (rp.header_committed) {
    CEXTEND_ASSIGN_OR_RETURN(
        data, DurableFile::OpenAt(spec.stream_path, rp.committed_offset));
    CEXTEND_ASSIGN_OR_RETURN(
        manifest, DurableFile::OpenAt(manifest_path, rp.manifest_offset));
    if (tee != nullptr) {
      // The tee sees the committed prefix first, then the live tail from
      // ExecutePlan — the same call sequence as an uninterrupted run.
      CEXTEND_RETURN_IF_ERROR(tee->Begin(prepared));
      CEXTEND_RETURN_IF_ERROR(
          ReplayStream(spec.stream_path, rp.committed_offset, tee));
    }
  } else {
    CEXTEND_ASSIGN_OR_RETURN(data, DurableFile::Create(spec.stream_path));
    CEXTEND_ASSIGN_OR_RETURN(manifest, DurableFile::Create(manifest_path));
  }

  TextStreamSink text(data->stream());
  text.ResumeCounts(static_cast<size_t>(rp.rows_written),
                    static_cast<size_t>(rp.tuples_written));
  DurableStreamSink durable(&text, data.get(), manifest.get(),
                            PlanDigest(*prepared.plan), rp);
  TeeSink teed(&durable, tee);
  RowSink* sink = tee != nullptr ? static_cast<RowSink*>(&teed) : &durable;

  CEXTEND_ASSIGN_OR_RETURN(Phase2Stats stats,
                           ExecutePlan(prepared, options, sink, rp.resume));
  stats.resumed_shards =
      rp.resume.first_shard + (rp.resume.repair_done ? 1 : 0);
  stats.manifest_commits = durable.manifest_commits();
  return stats;
}

}  // namespace cextend
