// Benchmark-side plumbing shared by the workloads: spans recorded around
// calls into the library, order statistics, the environment stamp, and the
// metric record that ends up in the report.

#ifndef TONDBENCH_HARNESS_H_
#define TONDBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tondbench {

uint64_t NowNs();

// ---- spans ---------------------------------------------------------------

/// One benchmark-side span: a call into a library layer, timed from
/// outside. `parent` indexes the same Tracer (-1 = root); spans of one
/// request share `request`.
struct SpanRec {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
};

/// In-memory span log for one thread. A disabled tracer records nothing,
/// so the untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int Begin(const char* name, int parent, uint64_t request);
  void End(int index);
  const std::vector<SpanRec>& spans() const { return spans_; }
  /// Copies `other`'s spans in, rebasing their parent indices and adding
  /// `request_offset` to their request ids.
  void Append(const Tracer& other, uint64_t request_offset = 0);

 private:
  bool enabled_;
  std::vector<SpanRec> spans_;
};

/// RAII span; no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int parent, uint64_t request)
      : tracer_(tracer),
        index_(tracer->enabled() ? tracer->Begin(name, parent, request) : -1) {}
  ~Scope() { End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int index() const { return index_; }
  void End() {
    if (index_ >= 0) tracer_->End(index_);
    index_ = -1;
  }

 private:
  Tracer* tracer_;
  int index_;
};

/// Per-span self time: duration minus the union of its children's
/// intervals (clipped to the span). Indexed like `spans`.
std::vector<double> SelfTimesMs(const std::vector<SpanRec>& spans);
/// Sum of the children's durations for each span (ms).
std::vector<double> ChildTimesMs(const std::vector<SpanRec>& spans);
double DurationMs(const SpanRec& span);
/// Writes spans as JSON lines with their self time.
bool WriteSpans(const std::string& path, const std::vector<SpanRec>& spans);

// ---- statistics ----------------------------------------------------------

double Median(std::vector<double> v);
/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

// ---- metrics -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// True when `name` is non-empty and made of [A-Za-z0-9_.-].
bool ValidMetricName(const std::string& name);

std::string JsonString(const std::string& s);
/// Shortest round-trip decimal form; non-finite values render as null.
std::string JsonNumber(double v);
/// {"name": {"value": v, "unit": "u"}, ...}
std::string MetricsJson(const std::vector<Metric>& metrics);

// ---- environment stamp ---------------------------------------------------

struct EnvStamp {
  int nproc = 0;
  double burn_t1_ms = 0;   // fixed CPU burn on one thread
  double burn_t4_ms = 0;   // the same burn on each of four threads
  std::string compiler;
  std::string cxx_flags;
  std::string build_type;
  std::string git_sha;
};

EnvStamp StampEnvironment();
std::string EnvJson(const EnvStamp& env);

}  // namespace tondbench

#endif  // TONDBENCH_HARNESS_H_
