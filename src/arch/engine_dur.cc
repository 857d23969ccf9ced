/// StreamEngine durability: checkpointing, recovery, and replay over the
/// sqp::dur archive. Split from engine.cc so the core delivery path stays
/// readable — this file owns everything behind EnableDurability.

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "arch/engine.h"
#include "common/strings.h"
#include "dur/checkpoint.h"
#include "exec/project.h"
#include "exec/select.h"

namespace sqp {

std::string RecoveryReport::ToString() const {
  if (!recovered) return "no archive found; starting fresh";
  std::string s = StrFormat(
      "replayed %llu tuples + %llu puncts in %.3fs",
      static_cast<unsigned long long>(replayed_tuples),
      static_cast<unsigned long long>(replayed_puncts), replay_seconds);
  if (checkpoint_loaded) {
    s += StrFormat(
        "; checkpoint #%llu at seq %llu restored %zu queries (%zu operators)",
        static_cast<unsigned long long>(checkpoint_id),
        static_cast<unsigned long long>(checkpoint_position), restored_queries,
        restored_operators);
  } else {
    s += "; no checkpoint (full replay)";
  }
  if (replay_from_zero_queries > 0) {
    s += StrFormat("; %zu queries replayed from seq 0",
                   replay_from_zero_queries);
  }
  if (torn_streams > 0) {
    s += StrFormat("; %zu stream tails torn (truncated at last intact record)",
                   torn_streams);
  }
  return s;
}

bool StreamEngine::CollectCheckpointOps(
    QueryHandle& q, std::vector<CheckpointableOperator*>* ops,
    std::string* why) const {
  // Operator state owned by worker threads cannot be read consistently
  // from the ingest thread mid-run; such queries fall back to full
  // archive replay.
  if (q.parallel_ != nullptr) {
    *why = "parallel execution";
    return false;
  }
  if (q.sharded()) {
    *why = "sharded plan";
    return false;
  }
  if (q.shed_gate_ != nullptr) {
    // The gate's RNG position is not captured, so replay would shed a
    // different subset than the original run.
    *why = "adaptive shedding gate";
    return false;
  }
  for (const auto& op : q.query_->plan().operators()) {
    if (auto* c = dynamic_cast<CheckpointableOperator*>(op.get())) {
      ops->push_back(c);
      continue;
    }
    // Known-stateless operators contribute nothing to a checkpoint.
    if (dynamic_cast<SelectOp*>(op.get()) != nullptr ||
        dynamic_cast<ProjectOp*>(op.get()) != nullptr) {
      continue;
    }
    *why = "operator '" + op->name() + "' holds state with no serializer";
    return false;
  }
  // The collector is outside the plan but holds the emitted rows — it
  // goes last so a restored query resumes with its past output intact.
  ops->push_back(q.sink_.get());
  return true;
}

Status StreamEngine::CheckpointLocked() {
  if (dur_ == nullptr) {
    return Status::InvalidArgument("durability is not enabled");
  }
  dur::Checkpoint ckpt;
  ckpt.id = ckpt_id_ + 1;
  ckpt.position = dur_->last_seq();
  ckpt.next_seq = dur_->next_seq();
  for (auto& q : queries_) {
    dur::QueryCheckpoint qc;
    qc.text = q->text_;
    std::vector<CheckpointableOperator*> ops;
    std::string why;
    if (CollectCheckpointOps(*q, &ops, &why)) {
      qc.included = true;
      qc.op_states.reserve(ops.size());
      for (const CheckpointableOperator* op : ops) {
        dur::BufWriter w;
        op->SaveState(w);
        qc.op_states.push_back(w.Take());
      }
    }
    ckpt.queries.push_back(std::move(qc));
  }
  // Archive first, checkpoint second: a checkpoint at position P must
  // never exist while records <= P (needed by non-included queries and
  // by the next recovery's suffix) are still only in the buffer.
  SQP_RETURN_NOT_OK(dur_->Flush());
  SQP_RETURN_NOT_OK(dur::WriteCheckpoint(dur_->root(), ckpt,
                                         dur_->options().keep_checkpoints,
                                         dur_->options().fsync));
  ckpt_id_ = ckpt.id;
  if (dur_ckpt_ctr_ != nullptr) dur_ckpt_ctr_->Inc();
  metrics_.GetGauge("sqp_dur_checkpoint_position")
      ->Set(static_cast<double>(ckpt.position));
  events_.Emit(obs::EventKind::kCheckpointWritten, "",
               StrFormat("checkpoint #%llu at seq %llu (%zu queries)",
                         static_cast<unsigned long long>(ckpt.id),
                         static_cast<unsigned long long>(ckpt.position),
                         ckpt.queries.size()));
  return Status::OK();
}

Status StreamEngine::CheckpointNow() {
  // Exclusive, not shared: ingest holds the lock shared, so this is the
  // only way a checkpoint taken from an arbitrary thread is guaranteed
  // not to read operator state mid-mutation. Checkpoints are rare; the
  // brief ingest stall is the price of a consistent snapshot.
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  return CheckpointLocked();
}

Status StreamEngine::RecoverLocked() {
  const auto t0 = std::chrono::steady_clock::now();
  recovery_ = RecoveryReport{};

  // 1) Latest checkpoint (optional, and skipped entirely in
  //    --ignore-checkpoint mode).
  dur::Checkpoint ckpt;
  bool have_ckpt = false;
  if (dur_->options().use_checkpoint) {
    auto loaded = dur::ReadLatestCheckpoint(dur_->root());
    if (loaded.ok()) {
      ckpt = std::move(*loaded);
      have_ckpt = true;
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  // 2) Restore operator state into matching queries. Matching is by CQL
  //    text, first-come-first-claimed, so duplicate query texts pair up
  //    positionally. A query that matches but was not included (or whose
  //    current plan shape refuses checkpointing) replays from seq 0.
  std::unordered_map<const QueryHandle*, uint64_t> start_seq;
  std::vector<bool> claimed(ckpt.queries.size(), false);
  for (auto& q : queries_) {
    bool restored = false;
    for (size_t i = 0; have_ckpt && i < ckpt.queries.size(); ++i) {
      const dur::QueryCheckpoint& qc = ckpt.queries[i];
      if (claimed[i] || qc.text != q->text_) continue;
      claimed[i] = true;
      if (!qc.included) break;
      std::vector<CheckpointableOperator*> ops;
      std::string why;
      if (!CollectCheckpointOps(*q, &ops, &why)) break;
      // A saved state that does not fit the plan (corrupt, or an older
      // layout) leaves the query as built and it replays from seq 0, as
      // CheckpointableOperator promises.
      if (ops.size() != qc.op_states.size()) {
        events_.Emit(obs::EventKind::kCheckpointRestored, q->metrics_label_,
                     StrFormat("checkpoint holds %zu operator states, the "
                               "plan has %zu; replaying from seq 0",
                               qc.op_states.size(), ops.size()));
        break;
      }
      // Keep the operators' fresh state, to put back if a restore fails
      // part way.
      std::vector<std::string> fresh;
      fresh.reserve(ops.size());
      for (const CheckpointableOperator* op : ops) {
        dur::BufWriter w;
        op->SaveState(w);
        fresh.push_back(w.Take());
      }
      Status restore;
      for (size_t j = 0; j < ops.size() && restore.ok(); ++j) {
        dur::BufReader r(qc.op_states[j]);
        restore = ops[j]->RestoreState(r);
      }
      if (!restore.ok()) {
        for (size_t j = 0; j < ops.size(); ++j) {
          dur::BufReader r(fresh[j]);
          SQP_RETURN_NOT_OK(ops[j]->RestoreState(r));
        }
        events_.Emit(obs::EventKind::kCheckpointRestored,
                     q->metrics_label_,
                     "state did not restore (" + restore.ToString() +
                         "); replaying from seq 0");
        break;
      }
      start_seq[q.get()] = ckpt.position;
      ++recovery_.restored_queries;
      recovery_.restored_operators += ops.size();
      restored = true;
      break;
    }
    if (!restored) ++recovery_.replay_from_zero_queries;
  }
  if (have_ckpt) {
    recovery_.checkpoint_loaded = true;
    recovery_.checkpoint_id = ckpt.id;
    recovery_.checkpoint_position = ckpt.position;
    events_.Emit(
        obs::EventKind::kCheckpointRestored, "",
        StrFormat("checkpoint #%llu at seq %llu restored %zu queries "
                  "(%zu operators)",
                  static_cast<unsigned long long>(ckpt.id),
                  static_cast<unsigned long long>(ckpt.position),
                  recovery_.restored_queries, recovery_.restored_operators));
  }
  events_.Emit(obs::EventKind::kReplayStart, "",
               "replaying archive suffix through " +
                   std::to_string(queries_.size()) + " queries");

  // 3) Replay the archive in original ingest order. The k-way merge by
  //    global seq reproduces the exact interleaving across streams, so
  //    watermarks and per-stream order land exactly as they did live.
  //    Records at or below every query's start position are dead weight
  //    (fully covered by restored checkpoints) — they are skimmed past
  //    without delivery and without counting as replayed.
  uint64_t min_start = 0;
  if (!queries_.empty()) {
    min_start = UINT64_MAX;
    for (auto& q : queries_) {
      auto it = start_seq.find(q.get());
      min_start = std::min(min_start,
                           it != start_seq.end() ? it->second : uint64_t{0});
    }
  }
  dur::ArchiveReader reader(dur_->root());
  SQP_RETURN_NOT_OK(reader.Open());
  dur::ArchivedRecord rec;
  while (true) {
    auto has = reader.Next(&rec);
    if (!has.ok()) return has.status();
    if (!*has) break;
    if (rec.seq <= min_start) continue;
    // Same routing as live ingest; a record of a stream this engine did
    // not register reaches no query.
    auto st = streams_.find(rec.stream);
    if (st != streams_.end()) {
      for (const StreamState::Reader& r : st->second.readers) {
        auto it = start_seq.find(r.query);
        if (it != start_seq.end() && rec.seq <= it->second) continue;
        // Straight into DeliverDirect: replay must be lossless, so the
        // shed gate (whose query is never checkpointed) is bypassed.
        DeliverDirect(*r.query, *r.tap, rec.element);
      }
    }
    if (rec.element.is_punctuation()) {
      ++recovery_.replayed_puncts;
    } else {
      ++recovery_.replayed_tuples;
    }
    if (dur_replay_ctr_ != nullptr) dur_replay_ctr_->Inc();
  }
  recovery_.torn_streams = reader.torn_streams();
  // A fresh directory yields neither checkpoint nor records; report it
  // as a clean start, not a zero-record recovery.
  recovery_.recovered = have_ckpt || reader.last_seq() > 0;
  if (!recovery_.recovered) recovery_.replay_from_zero_queries = 0;

  // 4) Resume the global sequence past everything the archive holds (a
  //    torn tail may sit below the checkpoint's counter — take the max).
  uint64_t resume = reader.last_seq() + 1;
  if (have_ckpt && ckpt.next_seq > resume) resume = ckpt.next_seq;
  dur_->set_next_seq(resume < 1 ? 1 : resume);
  ckpt_id_ = have_ckpt ? ckpt.id : 0;

  recovery_.replay_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  metrics_.GetGauge("sqp_dur_recovery_replayed")
      ->Set(static_cast<double>(recovery_.replayed_tuples +
                                recovery_.replayed_puncts));
  metrics_.GetGauge("sqp_dur_recovery_restored_queries")
      ->Set(static_cast<double>(recovery_.restored_queries));
  metrics_.GetGauge("sqp_dur_recovery_seconds")->Set(recovery_.replay_seconds);
  events_.Emit(obs::EventKind::kReplayFinish, "", recovery_.ToString());
  return Status::OK();
}

Status StreamEngine::EnableDurability(const std::string& dir,
                                      dur::DurabilityOptions options) {
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  if (finished_) {
    return Status::InvalidArgument("engine already finished");
  }
  if (dur_ != nullptr) {
    return Status::AlreadyExists("durability already enabled");
  }
  auto mgr = std::make_unique<dur::DurabilityManager>(dir, options, &metrics_);
  SQP_RETURN_NOT_OK(mgr->Open());
  dur_ = std::move(mgr);
  dur_ckpt_ctr_ = metrics_.GetCounter("sqp_dur_checkpoints_total");
  dur_replay_ctr_ = metrics_.GetCounter("sqp_dur_replayed_total");
  if (options.recover) {
    Status st = RecoverLocked();
    if (!st.ok()) {
      // Leave the engine durability-off rather than half-recovered; the
      // caller can retry with use_checkpoint=false to audit the archive.
      dur_.reset();
      recovery_ = RecoveryReport{};
      return st;
    }
  }
  // Queries that predate durability get their replay boundary here: the
  // archive content as of this point was already poured into them by
  // recovery (or deliberately skipped with recover=false), and anything
  // archived from now on reaches them live.
  for (auto& q : queries_) q->submit_seq_ = dur_->last_seq();
  return Status::OK();
}

Result<uint64_t> StreamEngine::ReplayInto(QueryHandle* handle) {
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  if (dur_ == nullptr) {
    return Status::InvalidArgument("durability is not enabled");
  }
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  if (finished_) return Status::InvalidArgument("engine already finished");
  // Make everything appended so far visible to the reader.
  SQP_RETURN_NOT_OK(dur_->Flush());
  dur::ArchiveReader reader(dur_->root());
  SQP_RETURN_NOT_OK(reader.Open());
  // Bound the replay at the handle's registration point: every record
  // archived after Submit is (or will be) delivered live to this
  // handle, so pouring it again would duplicate results whenever ingest
  // races this call.
  const uint64_t bound = handle->submit_seq_;
  events_.Emit(obs::EventKind::kReplayStart, handle->metrics_label_,
               "replaying archive up to seq " + std::to_string(bound));
  dur::ArchivedRecord rec;
  uint64_t delivered = 0;
  while (true) {
    auto has = reader.Next(&rec);
    if (!has.ok()) return has.status();
    if (!*has) break;
    if (rec.seq > bound) break;  // Merged order is ascending.
    for (const QueryHandle::Tap& tap : handle->taps_) {
      if (tap.stream != rec.stream) continue;
      DeliverDirect(*handle, tap, rec.element);
      ++delivered;
    }
    if (dur_replay_ctr_ != nullptr) dur_replay_ctr_->Inc();
  }
  events_.Emit(obs::EventKind::kReplayFinish, handle->metrics_label_,
               "replayed " + std::to_string(delivered) + " elements");
  return delivered;
}

}  // namespace sqp
