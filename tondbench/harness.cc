#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>

#ifndef TONDBENCH_CXX_FLAGS
#define TONDBENCH_CXX_FLAGS "unknown"
#endif
#ifndef TONDBENCH_BUILD_TYPE
#define TONDBENCH_BUILD_TYPE "unknown"
#endif
#ifndef TONDBENCH_GIT_SHA
#define TONDBENCH_GIT_SHA "unknown"
#endif

namespace tondbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- spans ---------------------------------------------------------------

int Tracer::Begin(const char* name, int parent, uint64_t request) {
  SpanRec s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

void Tracer::Append(const Tracer& other, uint64_t request_offset) {
  const int base = static_cast<int>(spans_.size());
  for (SpanRec s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    s.request += request_offset;
    spans_.push_back(std::move(s));
  }
}

double DurationMs(const SpanRec& span) {
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

std::vector<double> ChildTimesMs(const std::vector<SpanRec>& spans) {
  std::vector<double> out(spans.size(), 0.0);
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) out[static_cast<size_t>(s.parent)] += DurationMs(s);
  }
  return out;
}

std::vector<double> SelfTimesMs(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cursor = spans[i].start_ns;
    for (auto [b, e] : iv) {
      b = std::max(b, cursor);
      e = std::min(e, spans[i].end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    out[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                 covered) / 1e6;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<SpanRec>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = SelfTimesMs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":" << JsonString(s.name)
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ms\":" << JsonNumber(self[i]) << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- statistics ----------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// ---- metrics -------------------------------------------------------------

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// ---- environment stamp ---------------------------------------------------

namespace {

constexpr uint64_t kBurnIters = 40'000'000;

/// A fixed, memory-free integer loop: its time measures one core's speed,
/// and four copies at once measure how much parallel throughput the host
/// really gives.
uint64_t Burn(uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < kBurnIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double BurnMs(int threads) {
  std::atomic<uint64_t> sink{0};
  const uint64_t t0 = NowNs();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] { sink += Burn(0x9e3779b97f4a7c15ULL + t); });
  }
  for (auto& th : pool) th.join();
  return static_cast<double>(NowNs() - t0) / 1e6;
}

int CountCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

}  // namespace

EnvStamp StampEnvironment() {
  EnvStamp env;
  env.nproc = CountCpus();
  // Median of three: on a shared host one burn can land in a quiet or a
  // busy moment.
  env.burn_t1_ms = Median({BurnMs(1), BurnMs(1), BurnMs(1)});
  env.burn_t4_ms = Median({BurnMs(4), BurnMs(4), BurnMs(4)});
#if defined(__clang__)
  env.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  env.compiler = std::string("gcc ") + __VERSION__;
#else
  env.compiler = "unknown";
#endif
  env.cxx_flags = TONDBENCH_CXX_FLAGS;
  env.build_type = TONDBENCH_BUILD_TYPE;
  env.git_sha = TONDBENCH_GIT_SHA;
  return env;
}

std::string EnvJson(const EnvStamp& env) {
  return "{\"nproc\": " + std::to_string(env.nproc) +
         ", \"burn_t1_ms\": " + JsonNumber(env.burn_t1_ms) +
         ", \"burn_t4_ms\": " + JsonNumber(env.burn_t4_ms) +
         ", \"burn_parallel_speedup\": " +
         JsonNumber(env.burn_t4_ms > 0 ? 4 * env.burn_t1_ms / env.burn_t4_ms
                                       : 0) +
         ", \"compiler\": " + JsonString(env.compiler) +
         ", \"cxx_flags\": " + JsonString(env.cxx_flags) +
         ", \"build_type\": " + JsonString(env.build_type) +
         ", \"git_sha\": " + JsonString(env.git_sha) + "}";
}

}  // namespace tondbench
