// Engine durability: checkpoint/restore and WAL replay (DESIGN.md §10).
//
// Checkpoint file layout (`engine.ckpt`, CRC-framed, atomic replace):
//   frame 0            header: magic, version, clock, covered WAL LSN,
//                      stream/table/query counts
//   frames 1..S        one per stream: key, schema, state blob
//   next T frames      one per table:  key, schema, state blob
//   next Q frames      one per query:  query id, then per operator
//                      (plan order): label, base counters, state blob
//   last frame         end marker (guards against truncated files)
//
// State blobs are produced by their own BinaryEncoder so each blob is
// self-contained (schema back-references never cross blob boundaries).
//
// Restore contract: the caller rebuilds an identical topology (same DDL
// and RegisterQuery calls, same order) and Restore loads state into it.
// All structural validation — magic/version, frame CRCs, stream/table
// names and schemas, query ids, operator counts and labels — happens
// before any engine state is touched, so the four fault-injection cases
// (torn frame, bad CRC, missing file, version mismatch) leave the
// engine unmodified.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>

#include "common/string_util.h"
#include "core/engine.h"
#include "recovery/checkpoint.h"

namespace eslev {

namespace {

constexpr const char* kEndMarker = "ESLEV-CKPT-END";
constexpr const char* kIngestFrameTag = "INGEST";

// Staged (decoded, validated, not yet applied) restore units.
struct StagedBlob {
  std::string blob;
};

struct StagedOp {
  Operator* op = nullptr;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t heartbeats_in = 0;
  std::string blob;
};

Result<std::pair<std::string, std::string>> DecodeNamedFrame(
    const std::string& payload, const Schema& expected_schema,
    const char* what) {
  BinaryDecoder dec(payload);
  ESLEV_ASSIGN_OR_RETURN(std::string key, dec.GetString());
  ESLEV_ASSIGN_OR_RETURN(SchemaPtr schema, dec.GetSchema());
  if (schema == nullptr || !schema->Equals(expected_schema)) {
    return Status::IoError(std::string(what) + " '" + key +
                           "': schema mismatch between checkpoint and "
                           "rebuilt topology");
  }
  ESLEV_ASSIGN_OR_RETURN(std::string blob, dec.GetString());
  if (!dec.AtEnd()) {
    return Status::IoError(std::string(what) + " '" + key +
                           "': trailing bytes in checkpoint frame");
  }
  return std::make_pair(std::move(key), std::move(blob));
}

}  // namespace

Status Engine::Checkpoint(const std::string& dir) {
  const auto start = std::chrono::steady_clock::now();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint dir " + dir + ": " +
                           ec.message());
  }

  ESLEV_ASSIGN_OR_RETURN(const uint64_t wal_last_lsn, front_.FlushWal());

  std::string out;
  {
    BinaryEncoder header;
    header.PutU32(kCheckpointMagic);
    header.PutU32(kCheckpointVersion);
    header.PutI64(clock_);
    header.PutU64(wal_last_lsn);
    header.PutU32(static_cast<uint32_t>(streams_.size()));
    header.PutU32(static_cast<uint32_t>(tables_.size()));
    header.PutU32(static_cast<uint32_t>(queries_.size()));
    AppendFrame(header.buffer(), &out);
  }
  for (const auto& [key, stream] : streams_) {
    BinaryEncoder frame;
    frame.PutString(key);
    frame.PutSchema(stream->schema());
    BinaryEncoder state;
    ESLEV_RETURN_NOT_OK(stream->SaveState(&state));
    frame.PutString(state.buffer());
    AppendFrame(frame.buffer(), &out);
  }
  for (const auto& [key, table] : tables_) {
    BinaryEncoder frame;
    frame.PutString(key);
    frame.PutSchema(table->schema());
    BinaryEncoder state;
    ESLEV_RETURN_NOT_OK(table->SaveState(&state));
    frame.PutString(state.buffer());
    AppendFrame(frame.buffer(), &out);
  }
  for (const PlannedQuery& q : queries_) {
    BinaryEncoder frame;
    frame.PutU32(static_cast<uint32_t>(q.query_id));
    frame.PutU32(static_cast<uint32_t>(q.operators.size()));
    for (const auto& op : q.operators) {
      frame.PutString(op->label());
      frame.PutU64(op->tuples_in());
      frame.PutU64(op->tuples_emitted());
      frame.PutU64(op->heartbeats_in());
      BinaryEncoder state;
      ESLEV_RETURN_NOT_OK(op->SaveState(&state));
      frame.PutString(state.buffer());
    }
    AppendFrame(frame.buffer(), &out);
  }
  if (front_.ingest_enabled()) {
    // Optional ingest frame: raw input clock + buffered stage state
    // (reorder buffer, open smoothing groups, held-back emissions).
    // Written between the query frames and the end marker so the
    // version-1 layout above is untouched when ingest is disabled.
    BinaryEncoder frame;
    frame.PutString(kIngestFrameTag);
    frame.PutI64(ingest_input_clock_);
    BinaryEncoder state;
    ESLEV_RETURN_NOT_OK(front_.SaveIngestState(&state));
    frame.PutString(state.buffer());
    AppendFrame(frame.buffer(), &out);
  }
  AppendFrame(kEndMarker, &out);

  ESLEV_RETURN_NOT_OK(
      WriteFileAtomic(dir + "/" + kCheckpointFileName, out));
  // The checkpoint covers everything up to wal_last_lsn; drop it.
  ESLEV_RETURN_NOT_OK(front_.TruncateWalBefore(wal_last_lsn + 1));

  ++checkpoints_taken_;
  last_checkpoint_bytes_ = out.size();
  last_checkpoint_duration_us_ =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  return Status::OK();
}

Status Engine::Restore(const std::string& dir) {
  const std::string path = dir + "/" + kCheckpointFileName;
  ESLEV_ASSIGN_OR_RETURN(std::string bytes, ReadFileAll(path));
  ESLEV_ASSIGN_OR_RETURN(FrameScanResult frames,
                         ScanFrames(bytes.data(), bytes.size()));
  if (frames.torn_tail) {
    return Status::IoError("checkpoint " + path +
                           ": truncated file (incomplete checkpoint)");
  }
  if (frames.payloads.size() < 2) {
    return Status::IoError("checkpoint " + path + ": too few frames");
  }
  ESLEV_RETURN_NOT_OK(
      ValidateCheckpointHeader(frames.payloads[0], "checkpoint " + path));

  BinaryDecoder header(frames.payloads[0]);
  (void)*header.GetU32();  // magic, validated above
  (void)*header.GetU32();  // version, validated above
  ESLEV_ASSIGN_OR_RETURN(Timestamp clock, header.GetI64());
  ESLEV_ASSIGN_OR_RETURN(uint64_t wal_last_lsn, header.GetU64());
  ESLEV_ASSIGN_OR_RETURN(uint32_t nstreams, header.GetU32());
  ESLEV_ASSIGN_OR_RETURN(uint32_t ntables, header.GetU32());
  ESLEV_ASSIGN_OR_RETURN(uint32_t nqueries, header.GetU32());
  if (!header.AtEnd()) {
    return Status::IoError("checkpoint: trailing bytes in header frame");
  }
  // An ingest-enabled engine writes one extra frame; a checkpoint taken
  // with ingest must be restored into an ingest-enabled engine and vice
  // versa (same topology contract as streams/tables/queries).
  const size_t expected_frames = 2u + static_cast<size_t>(nstreams) +
                                 ntables + nqueries +
                                 (front_.ingest_enabled() ? 1u : 0u);
  if (frames.payloads.size() != expected_frames) {
    return Status::IoError(
        "checkpoint: frame count mismatch (ingest configuration must match "
        "the checkpointed engine)");
  }
  if (frames.payloads.back() != kEndMarker) {
    return Status::IoError("checkpoint: missing end marker");
  }
  if (nstreams != streams_.size() || ntables != tables_.size() ||
      nqueries != queries_.size()) {
    return Status::IoError(
        "checkpoint: topology mismatch (rebuild the same streams, tables, "
        "and queries before Restore)");
  }

  // Phase 1: decode and validate everything; no engine state mutated yet.
  size_t fi = 1;
  std::vector<std::pair<Stream*, StagedBlob>> stream_blobs;
  for (uint32_t i = 0; i < nstreams; ++i) {
    // Names and schemas must match the rebuilt catalog; the frame order
    // inside the file is the catalog's own (sorted) order, but match by
    // name to stay independent of it.
    BinaryDecoder peek(frames.payloads[fi]);
    ESLEV_ASSIGN_OR_RETURN(std::string key, peek.GetString());
    Stream* s = FindStream(key);
    if (s == nullptr) {
      return Status::IoError("checkpoint names unknown stream '" + key + "'");
    }
    ESLEV_ASSIGN_OR_RETURN(
        auto named,
        DecodeNamedFrame(frames.payloads[fi], *s->schema(), "stream"));
    stream_blobs.push_back({s, {std::move(named.second)}});
    ++fi;
  }
  std::vector<std::pair<Table*, StagedBlob>> table_blobs;
  for (uint32_t i = 0; i < ntables; ++i) {
    BinaryDecoder peek(frames.payloads[fi]);
    ESLEV_ASSIGN_OR_RETURN(std::string key, peek.GetString());
    Table* t = FindTable(key);
    if (t == nullptr) {
      return Status::IoError("checkpoint names unknown table '" + key + "'");
    }
    ESLEV_ASSIGN_OR_RETURN(
        auto named,
        DecodeNamedFrame(frames.payloads[fi], *t->schema(), "table"));
    table_blobs.push_back({t, {std::move(named.second)}});
    ++fi;
  }
  std::vector<StagedOp> staged_ops;
  for (uint32_t i = 0; i < nqueries; ++i) {
    BinaryDecoder dec(frames.payloads[fi++]);
    ESLEV_ASSIGN_OR_RETURN(uint32_t query_id, dec.GetU32());
    const PlannedQuery& q = queries_[i];
    if (query_id != static_cast<uint32_t>(q.query_id)) {
      return Status::IoError("checkpoint: query id mismatch at position " +
                             std::to_string(i));
    }
    ESLEV_ASSIGN_OR_RETURN(uint32_t nops, dec.GetU32());
    if (nops != q.operators.size()) {
      return Status::IoError("checkpoint: operator count mismatch in query " +
                             std::to_string(query_id));
    }
    for (uint32_t j = 0; j < nops; ++j) {
      StagedOp staged;
      staged.op = q.operators[j].get();
      ESLEV_ASSIGN_OR_RETURN(std::string label, dec.GetString());
      if (label != staged.op->label()) {
        return Status::IoError("checkpoint: operator mismatch in query " +
                               std::to_string(query_id) + " ('" + label +
                               "' vs '" + staged.op->label() + "')");
      }
      ESLEV_ASSIGN_OR_RETURN(staged.tuples_in, dec.GetU64());
      ESLEV_ASSIGN_OR_RETURN(staged.tuples_out, dec.GetU64());
      ESLEV_ASSIGN_OR_RETURN(staged.heartbeats_in, dec.GetU64());
      ESLEV_ASSIGN_OR_RETURN(staged.blob, dec.GetString());
      staged_ops.push_back(std::move(staged));
    }
    if (!dec.AtEnd()) {
      return Status::IoError("checkpoint: trailing bytes in query frame");
    }
  }
  Timestamp staged_ingest_clock = kMinTimestamp;
  std::string staged_ingest_blob;
  if (front_.ingest_enabled()) {
    BinaryDecoder dec(frames.payloads[fi++]);
    ESLEV_ASSIGN_OR_RETURN(std::string tag, dec.GetString());
    if (tag != kIngestFrameTag) {
      return Status::IoError(
          "checkpoint: expected ingest frame (checkpoint was taken without "
          "ingest configured)");
    }
    ESLEV_ASSIGN_OR_RETURN(staged_ingest_clock, dec.GetI64());
    ESLEV_ASSIGN_OR_RETURN(staged_ingest_blob, dec.GetString());
    if (!dec.AtEnd()) {
      return Status::IoError("checkpoint: trailing bytes in ingest frame");
    }
  }

  // Phase 2: apply. Structural validation is done; a decode error past
  // this point means the blob itself is inconsistent, the Status is
  // returned, and the engine must be discarded.
  for (auto& [stream, staged] : stream_blobs) {
    BinaryDecoder dec(staged.blob);
    ESLEV_RETURN_NOT_OK(stream->RestoreState(&dec));
    if (!dec.AtEnd()) {
      return Status::IoError("stream '" + stream->name() +
                             "': trailing state bytes");
    }
  }
  for (auto& [table, staged] : table_blobs) {
    BinaryDecoder dec(staged.blob);
    ESLEV_RETURN_NOT_OK(table->RestoreState(&dec));
    if (!dec.AtEnd()) {
      return Status::IoError("table '" + table->name() +
                             "': trailing state bytes");
    }
  }
  for (StagedOp& staged : staged_ops) {
    staged.op->RestoreCounters(staged.tuples_in, staged.tuples_out,
                               staged.heartbeats_in);
    BinaryDecoder dec(staged.blob);
    ESLEV_RETURN_NOT_OK(staged.op->RestoreState(&dec));
    if (!dec.AtEnd()) {
      return Status::IoError("operator '" + staged.op->label() +
                             "': trailing state bytes");
    }
  }
  if (front_.ingest_enabled()) {
    ESLEV_RETURN_NOT_OK(front_.RestoreIngestState(
        staged_ingest_blob,
        [this](const std::string& key) { return FindStream(key); }));
    ingest_input_clock_ = staged_ingest_clock;
  }
  clock_ = clock;
  front_.set_restored_lsn(wal_last_lsn);
  return Status::OK();
}

Status Engine::EnableWal(const std::string& path, WalOptions options) {
  return front_.EnableWal(path, std::move(options));
}

Result<ReplayStats> Engine::ReplayMuted(const WalChainReadResult& read,
                                        const ReplayOptions& options) {
  // Arm duplicate suppression: mute callbacks up to each stream's
  // per-consumer threshold (UINT64_MAX = the whole replay).
  std::map<std::string, uint64_t> overrides;
  for (const auto& [name, seq] : options.deliver_after) {
    overrides[AsciiToLower(name)] = seq;
  }
  std::vector<Stream*> muted;
  for (const auto& [key, stream] : streams_) {
    auto it = overrides.find(key);
    if (it != overrides.end()) {
      stream->set_deliver_after_seq(it->second);
    } else if (!options.deliver_callbacks) {
      stream->set_deliver_after_seq(UINT64_MAX);
      muted.push_back(stream.get());
    }
  }
  Result<ReplayStats> stats = front_.Replay(read);
  // Un-mute: deliveries resume with the next live emission.
  for (Stream* stream : muted) {
    stream->set_deliver_after_seq(stream->tuples_pushed());
  }
  return stats;
}

Result<ReplayStats> Engine::ReplayWal(const std::string& path,
                                      const ReplayOptions& options) {
  ESLEV_ASSIGN_OR_RETURN(WalChainReadResult read, front_.ReadWal(path));
  return ReplayMuted(read, options);
}

Status Engine::RecoverFrom(const std::string& dir,
                           const ReplayOptions& options) {
  if (front_.wal() != nullptr) {
    return Status::Invalid("WAL already enabled before RecoverFrom");
  }
  ESLEV_RETURN_NOT_OK(Restore(dir));
  const std::string wal_path = dir + "/" + kWalFileName;
  // Read the WAL chain once: replay the suffix, then reopen for append
  // with any torn live tail truncated away.
  ESLEV_ASSIGN_OR_RETURN(WalChainReadResult read, front_.ReadWal(wal_path));
  ESLEV_RETURN_NOT_OK(ReplayMuted(read, options).status());
  return front_.OpenWal(wal_path, WalOptions{}, read);
}

}  // namespace eslev
