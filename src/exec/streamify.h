#ifndef SQP_EXEC_STREAMIFY_H_
#define SQP_EXEC_STREAMIFY_H_

#include <memory>
#include <string>

#include "exec/operator.h"
#include "window/window_buffer.h"

namespace sqp {

/// CQL's relation-to-stream operators (slide 26 "streamify"), applied to
/// the time-varying relation defined by a sliding window over the input:
///  - IStream: emits each tuple as it *enters* the window (identity on
///    append-only input, kept for plan completeness);
///  - DStream: emits each tuple as it *expires* from the window;
///  - RStream: emits the entire window contents every `period` time units.
enum class StreamifyKind { kIStream, kDStream, kRStream };

const char* StreamifyKindName(StreamifyKind kind);

class StreamifyOp : public Operator {
 public:
  /// `window_size` defines the underlying sliding window; `period` is the
  /// RStream sampling interval (ignored otherwise).
  StreamifyOp(StreamifyKind kind, int64_t window_size, int64_t period = 1,
              std::string name = "streamify");

  void Push(const Element& e, int port = 0) override;
  void Flush() override;
  size_t StateBytes() const override;

 private:
  void MaybeEmitSnapshots(int64_t now);

  StreamifyKind kind_;
  int64_t period_;
  WindowBuffer buf_;
  int64_t last_snapshot_ = INT64_MIN;
};

}  // namespace sqp

#endif  // SQP_EXEC_STREAMIFY_H_
