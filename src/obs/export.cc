#include "src/obs/export.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "src/obs/registry.h"

namespace mrcost::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void AppendEventJson(const TraceEvent& event, std::ostringstream& os) {
  os << "{\"name\":\"" << JsonEscape(event.name) << "\",\"cat\":\""
     << JsonEscape(event.category) << "\",\"ph\":\"" << event.phase << "\"";
  if (event.phase == 'i') {
    os << ",\"s\":\"t\"";
  }
  os << ",\"ts\":" << event.t_start_us;
  if (event.phase == 'X') {
    const std::uint64_t dur =
        event.t_end_us >= event.t_start_us ? event.t_end_us - event.t_start_us
                                           : 0;
    os << ",\"dur\":" << dur;
  }
  os << ",\"pid\":" << event.pid << ",\"tid\":" << event.tid << ",\"args\":{"
     << "\"round\":" << event.round << ",\"shard\":" << event.shard;
  if (event.task_id != 0) {
    os << ",\"task\":" << event.task_id;
  }
  for (const TraceArg& arg : event.args) {
    os << ",\"" << JsonEscape(arg.key) << "\":";
    if (arg.numeric) {
      os << arg.value;
    } else {
      os << "\"" << JsonEscape(arg.value) << "\"";
    }
  }
  os << "}}";
}

}  // namespace

std::string ToChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kRealTimePid
     << ",\"tid\":0,\"args\":{\"name\":\"mrcost engine\"}}";
  // Worker processes of the multi-process backend occupy pids from
  // kWorkerPidBase (one lane per worker, merged from its Bye payload);
  // name each one that appears.
  std::set<std::uint32_t> worker_pids;
  for (const TraceEvent& event : events) {
    if (event.pid >= kWorkerPidBase) worker_pids.insert(event.pid);
  }
  for (std::uint32_t pid : worker_pids) {
    os << ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"mrcost worker "
       << (pid - kWorkerPidBase) << "\"}}";
  }
  for (const TraceEvent& event : events) {
    os << ",\n";
    AppendEventJson(event, os);
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

common::Status WriteChromeTraceFile(const std::string& path,
                                    const std::vector<TraceEvent>& events) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return common::Status::InvalidArgument("cannot open trace file: " + path);
  }
  out << ToChromeTraceJson(events);
  out.flush();
  if (!out) {
    return common::Status::Internal("short write to trace file: " + path);
  }
  return common::Status::Ok();
}

namespace {

/// Minimal strict cursor-based JSON reader — just enough to parse the
/// documents ToChromeTraceJson produces, for round-trip tests and tools.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char Peek() {
    SkipWs();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'n':
            *out += '\n';
            break;
          case 'r':
            *out += '\r';
            break;
          case 't':
            *out += '\t';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return false;
              }
            }
            // The writer only emits \u00XX for control bytes.
            *out += static_cast<char>(code < 256 ? code : '?');
            break;
          }
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return false;
  }

  bool ParseNumber(double* out, std::string* raw) {
    SkipWs();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return false;
    if (raw != nullptr) *raw = token;
    return true;
  }

  /// Skips any well-formed value (used for keys we don't model).
  bool SkipValue() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '"') {
      std::string scratch;
      return ParseString(&scratch);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      SkipWs();
      if (Consume(close)) return true;
      while (true) {
        if (c == '{') {
          std::string key;
          if (!ParseString(&key) || !Consume(':')) return false;
        }
        if (!SkipValue()) return false;
        if (Consume(close)) return true;
        if (!Consume(',')) return false;
      }
    }
    if (c == 't' && text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return true;
    }
    if (c == 'f' && text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return true;
    }
    if (c == 'n' && text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return true;
    }
    double ignored;
    return ParseNumber(&ignored, nullptr);
  }

  std::size_t pos() const { return pos_; }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

common::Status ParseError(const JsonCursor& cursor, const std::string& what) {
  return common::Status::InvalidArgument(
      "trace JSON parse error near offset " + std::to_string(cursor.pos()) +
      ": " + what);
}

common::Status ParseEventObject(JsonCursor& cursor,
                                std::vector<TraceEvent>* out) {
  if (!cursor.Consume('{')) return ParseError(cursor, "expected event object");
  TraceEvent event;
  bool is_metadata = false;
  double ts = 0, dur = 0, pid = 0, tid = 0;
  if (!cursor.Consume('}')) {
    while (true) {
      std::string key;
      if (!cursor.ParseString(&key) || !cursor.Consume(':')) {
        return ParseError(cursor, "expected event key");
      }
      if (key == "name" || key == "cat" || key == "ph" || key == "s") {
        std::string value;
        if (!cursor.ParseString(&value)) {
          return ParseError(cursor, "expected string for " + key);
        }
        if (key == "name") event.name = value;
        if (key == "cat") event.category = value;
        if (key == "ph") {
          if (value.size() != 1) {
            return ParseError(cursor, "bad ph value: " + value);
          }
          event.phase = value[0];
          if (event.phase == 'M') is_metadata = true;
        }
      } else if (key == "ts" || key == "dur" || key == "pid" ||
                 key == "tid") {
        double value;
        if (!cursor.ParseNumber(&value, nullptr)) {
          return ParseError(cursor, "expected number for " + key);
        }
        if (key == "ts") ts = value;
        if (key == "dur") dur = value;
        if (key == "pid") pid = value;
        if (key == "tid") tid = value;
      } else if (key == "args") {
        if (!cursor.Consume('{')) {
          return ParseError(cursor, "expected args object");
        }
        if (!cursor.Consume('}')) {
          while (true) {
            std::string arg_key;
            if (!cursor.ParseString(&arg_key) || !cursor.Consume(':')) {
              return ParseError(cursor, "expected arg key");
            }
            if (cursor.Peek() == '"') {
              std::string value;
              if (!cursor.ParseString(&value)) {
                return ParseError(cursor, "expected arg string");
              }
              event.args.push_back(TraceArg{arg_key, value, false});
            } else {
              double value;
              std::string raw;
              if (!cursor.ParseNumber(&value, &raw)) {
                return ParseError(cursor, "expected arg value for " + arg_key);
              }
              if (arg_key == "round") {
                event.round = static_cast<std::uint32_t>(value);
              } else if (arg_key == "shard") {
                event.shard = static_cast<std::uint32_t>(value);
              } else if (arg_key == "task") {
                event.task_id = static_cast<std::uint64_t>(value);
              } else {
                event.args.push_back(TraceArg{arg_key, raw, true});
              }
            }
            if (cursor.Consume('}')) break;
            if (!cursor.Consume(',')) {
              return ParseError(cursor, "expected , in args");
            }
          }
        }
      } else {
        if (!cursor.SkipValue()) {
          return ParseError(cursor, "bad value for " + key);
        }
      }
      if (cursor.Consume('}')) break;
      if (!cursor.Consume(',')) {
        return ParseError(cursor, "expected , in event");
      }
    }
  }
  if (!is_metadata) {
    event.pid = static_cast<std::uint32_t>(pid);
    event.tid = static_cast<std::uint32_t>(tid);
    event.t_start_us = static_cast<std::uint64_t>(ts);
    event.t_end_us = static_cast<std::uint64_t>(ts + dur);
    out->push_back(std::move(event));
  }
  return common::Status::Ok();
}

}  // namespace

common::Result<std::vector<TraceEvent>> ParseChromeTrace(
    std::string_view json) {
  JsonCursor cursor(json);
  if (!cursor.Consume('{')) {
    return ParseError(cursor, "expected top-level object");
  }
  std::vector<TraceEvent> events;
  bool saw_events = false;
  if (!cursor.Consume('}')) {
    while (true) {
      std::string key;
      if (!cursor.ParseString(&key) || !cursor.Consume(':')) {
        return ParseError(cursor, "expected top-level key");
      }
      if (key == "traceEvents") {
        saw_events = true;
        if (!cursor.Consume('[')) {
          return ParseError(cursor, "expected traceEvents array");
        }
        if (!cursor.Consume(']')) {
          while (true) {
            common::Status status = ParseEventObject(cursor, &events);
            if (!status.ok()) return status;
            if (cursor.Consume(']')) break;
            if (!cursor.Consume(',')) {
              return ParseError(cursor, "expected , in traceEvents");
            }
          }
        }
      } else {
        if (!cursor.SkipValue()) {
          return ParseError(cursor, "bad top-level value for " + key);
        }
      }
      if (cursor.Consume('}')) break;
      if (!cursor.Consume(',')) {
        return ParseError(cursor, "expected , at top level");
      }
    }
  }
  if (!cursor.AtEnd()) {
    return ParseError(cursor, "trailing content");
  }
  if (!saw_events) {
    return common::Status::InvalidArgument("no traceEvents key in document");
  }
  return events;
}

ScopedCapture::ScopedCapture(std::string trace_path, std::string metrics_path)
    : trace_path_(std::move(trace_path)),
      metrics_path_(std::move(metrics_path)) {
  if (trace_path_.empty() && metrics_path_.empty()) return;
  active_ = true;
  TraceRecorder::Global().Enable();
  Registry::Global().Enable();
}

ScopedCapture::~ScopedCapture() {
  if (!active_) return;
  if (!trace_path_.empty()) {
    const common::Status status = WriteChromeTraceFile(
        trace_path_, TraceRecorder::Global().Snapshot());
    if (!status.ok()) {
      std::fprintf(stderr, "obs: %s\n", status.ToString().c_str());
    } else {
      const std::uint64_t dropped =
          TraceRecorder::Global().dropped_events();
      if (dropped > 0) {
        std::fprintf(stderr,
                     "obs: trace ring overflow, %" PRIu64
                     " oldest events dropped\n",
                     dropped);
      }
    }
  }
  if (!metrics_path_.empty()) {
    std::ofstream out(metrics_path_, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "obs: cannot open metrics file: %s\n",
                   metrics_path_.c_str());
    } else {
      out << Registry::Global().TakeSnapshot().ToJson() << "\n";
    }
  }
  Registry::Global().Disable();
  TraceRecorder::Global().Disable();
}

CaptureFlags ParseCaptureFlags(int argc, char** argv) {
  CaptureFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kTrace = "--trace_out=";
    constexpr std::string_view kMetrics = "--metrics_out=";
    constexpr std::string_view kSpillDir = "--spill_dir=";
    if (arg.substr(0, kTrace.size()) == kTrace) {
      flags.trace_out = std::string(arg.substr(kTrace.size()));
    } else if (arg.substr(0, kMetrics.size()) == kMetrics) {
      flags.metrics_out = std::string(arg.substr(kMetrics.size()));
    } else if (arg.substr(0, kSpillDir.size()) == kSpillDir) {
      flags.spill_dir = std::string(arg.substr(kSpillDir.size()));
    } else if (arg == "--keep_spills") {
      flags.keep_spills = true;
    }
  }
  return flags;
}

}  // namespace mrcost::obs
