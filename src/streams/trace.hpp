// Replay streams: feed a monitor exactly the values you specify. The
// offline-optimal computation and many unit tests drive the system with
// hand-crafted traces through this generator.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "streams/stream.hpp"

namespace topkmon {

/// What a TraceStream does after the recorded values are exhausted.
enum class TraceEnd {
  kHoldLast,   ///< keep returning the final value
  kCycle,      ///< wrap around to the beginning
  kThrow,      ///< throw std::out_of_range (strict tests)
};

class TraceStream final : public Stream {
 public:
  TraceStream(std::vector<Value> values,
              TraceEnd end_behavior = TraceEnd::kHoldLast);

  Value next() override;
  void next_batch(std::span<Value> out) override;

  /// Strict traces bound prefetch to the values actually left, so a
  /// batching caller throws at exactly the same advance as per-call
  /// next(); hold-last / cycling traces are effectively infinite.
  std::uint64_t prefetch_limit() const override {
    if (end_ != TraceEnd::kThrow) return ~std::uint64_t{0};
    return values_.size() - std::min(pos_, values_.size());
  }

  std::size_t length() const noexcept { return values_.size(); }

 private:
  std::vector<Value> values_;
  TraceEnd end_;
  std::size_t pos_ = 0;
};

/// A full n-node trace: row t holds the n observations of step t, stored
/// row-major in one flat array. Column slices become per-node
/// TraceStreams via `to_stream_set`.
class TraceMatrix {
 public:
  TraceMatrix(std::size_t n, std::size_t steps)
      : n_(n), steps_(steps), cells_(n * steps, 0) {}

  std::size_t nodes() const noexcept { return n_; }
  std::size_t steps() const noexcept { return steps_; }

  /// Cell (t, i); throws std::out_of_range outside steps() x nodes().
  Value& at(std::size_t t, NodeId i) { return cells_[index(t, i)]; }
  Value at(std::size_t t, NodeId i) const { return cells_[index(t, i)]; }

  /// Builds per-node replay streams over this matrix.
  StreamSet to_stream_set(TraceEnd end_behavior = TraceEnd::kHoldLast) const;

 private:
  std::size_t index(std::size_t t, NodeId i) const {
    if (t >= steps_ || i >= n_) {
      throw std::out_of_range("TraceMatrix::at: cell out of range");
    }
    return t * n_ + i;
  }

  std::size_t n_;
  std::size_t steps_;
  std::vector<Value> cells_;
};

}  // namespace topkmon
