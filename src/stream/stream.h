// Stream: a named, schema-typed, append-only tuple stream with fan-out to
// subscribed operators and user callbacks, plus an optional bounded
// retention buffer that serves ad-hoc snapshot queries (paper §2.1:
// "current location of the patient ... queried directly ... without
// having to store such location data all the time in a persistent
// database").

#ifndef ESLEV_STREAM_STREAM_H_
#define ESLEV_STREAM_STREAM_H_

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "stream/operator.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace eslev {

using TupleCallback = std::function<void(const Tuple&)>;

class Stream {
 public:
  Stream(std::string name, SchemaPtr schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const SchemaPtr& schema() const { return schema_; }

  /// \brief Subscribe a downstream operator (delivery in subscription
  /// order, which the planner relies on for same-stream self-references).
  void Subscribe(Operator* op, size_t port = 0) {
    subscribers_.push_back({op, port});
  }

  /// \brief Subscribe a user callback (invoked after operators).
  void SubscribeCallback(TupleCallback cb) {
    callbacks_.push_back(std::move(cb));
  }

  /// \brief Remove every subscription of `op` (all ports), preserving the
  /// delivery order of the remaining subscribers. Supports runtime query
  /// unregistration (DESIGN.md §17); unknown operators are a no-op.
  void Unsubscribe(const Operator* op) {
    for (size_t i = subscribers_.size(); i > 0; --i) {
      if (subscribers_[i - 1].op == op) {
        subscribers_.erase(subscribers_.begin() + (i - 1));
      }
    }
  }

  /// \brief Keep the most recent `duration` of tuples for snapshots.
  /// 0 disables retention (the default).
  void SetRetention(Duration duration) { retention_ = duration; }

  /// \brief The retained suffix of the stream (most recent first-in order).
  const std::deque<Tuple>& retained() const { return retained_; }

  /// \brief Append a tuple: validates arity, retains, and fans out.
  Status Push(const Tuple& tuple);

  /// \brief Propagate a heartbeat to subscribers and trim retention.
  Status Heartbeat(Timestamp now);

  uint64_t tuples_pushed() const { return tuples_pushed_; }
  uint64_t heartbeats_delivered() const { return heartbeats_delivered_; }
  size_t retained_count() const { return retained_.size(); }

  /// \brief Suppress user callbacks until more than `seq` tuples have been
  /// pushed over this stream's lifetime. Crash recovery sets this on
  /// derived streams before WAL replay so consumers do not re-observe
  /// emissions already delivered before the crash (DESIGN.md §10).
  /// Operator fan-out is NOT suppressed — downstream state must rebuild.
  void set_deliver_after_seq(uint64_t seq) { deliver_after_seq_ = seq; }
  uint64_t callbacks_suppressed() const { return callbacks_suppressed_; }

  /// \brief Serialize counters, retention clock, and retained suffix.
  Status SaveState(BinaryEncoder* enc) const;
  /// \brief Restore state saved by SaveState (schema must already match).
  Status RestoreState(BinaryDecoder* dec);

 private:
  void Retain(const Tuple& tuple);
  void TrimRetention(Timestamp now);

  struct Subscriber {
    Operator* op;
    size_t port;
  };

  std::string name_;
  SchemaPtr schema_;
  std::vector<Subscriber> subscribers_;
  std::vector<TupleCallback> callbacks_;
  Duration retention_ = 0;
  std::deque<Tuple> retained_;
  uint64_t tuples_pushed_ = 0;
  uint64_t heartbeats_delivered_ = 0;
  Timestamp last_heartbeat_ = kMinTimestamp;
  uint64_t deliver_after_seq_ = 0;
  uint64_t callbacks_suppressed_ = 0;
};

/// \brief Adapter operator that pushes every received tuple into a Stream
/// (the sink of `INSERT INTO <stream> SELECT ...` transducers).
class StreamInsertOperator : public Operator {
 public:
  explicit StreamInsertOperator(Stream* stream) : stream_(stream) {}

 protected:
  Status ProcessTuple(size_t, const Tuple& tuple) override {
    return stream_->Push(tuple);
  }

  Status ProcessHeartbeat(Timestamp now) override {
    return stream_->Heartbeat(now);
  }

 private:
  Stream* stream_;
};

}  // namespace eslev

#endif  // ESLEV_STREAM_STREAM_H_
