#ifndef MRCOST_OBS_EXPORT_H_
#define MRCOST_OBS_EXPORT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/obs/trace.h"

namespace mrcost::obs {

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslash, control characters; non-ASCII bytes pass through).
std::string JsonEscape(std::string_view s);

/// Renders events as one Chrome trace_event JSON document
/// ({"traceEvents":[...]}), loadable by Perfetto / chrome://tracing.
/// round/shard/task ids travel in each event's args. Adds process_name
/// metadata records naming pid 0 "mrcost engine" and each worker lane
/// present (pid kWorkerPidBase + w) "mrcost worker w".
std::string ToChromeTraceJson(const std::vector<TraceEvent>& events);

/// Writes ToChromeTraceJson(events) to `path`.
common::Status WriteChromeTraceFile(const std::string& path,
                                    const std::vector<TraceEvent>& events);

/// Parses a document produced by ToChromeTraceJson back into events
/// (metadata records are skipped; round/shard/task args are folded back
/// into the struct fields). Strict about JSON well-formedness — this is
/// the round-trip half used by tests, not a general JSON reader.
common::Result<std::vector<TraceEvent>> ParseChromeTrace(
    std::string_view json);

/// RAII capture scope: enables the global TraceRecorder and Registry on
/// construction; at destruction writes the trace (when trace_path is
/// non-empty) and the registry snapshot JSON (when metrics_path is
/// non-empty), then disables both. Constructing with two empty paths is
/// an inactive no-op, so callers can pass user flags through untouched.
/// Scopes nest: recording stops when the outermost scope closes.
class ScopedCapture {
 public:
  explicit ScopedCapture(std::string trace_path,
                         std::string metrics_path = "");
  ~ScopedCapture();

  ScopedCapture(const ScopedCapture&) = delete;
  ScopedCapture& operator=(const ScopedCapture&) = delete;

  bool active() const { return active_; }

 private:
  bool active_ = false;
  std::string trace_path_;
  std::string metrics_path_;
};

/// Scans argv for --trace_out=PATH / --metrics_out=PATH (obs capture) and
/// --spill_dir=PATH / --keep_spills (shuffle spill placement, shared by
/// the external shuffle and the multi-process backend) without consuming
/// them, so examples and benches share one flag convention.
struct CaptureFlags {
  std::string trace_out;
  std::string metrics_out;
  std::string spill_dir;
  bool keep_spills = false;
};
CaptureFlags ParseCaptureFlags(int argc, char** argv);

}  // namespace mrcost::obs

#endif  // MRCOST_OBS_EXPORT_H_
