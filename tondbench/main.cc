// tondbench: the repository benchmark.
//
//   tondbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   tondbench --selftest
//   tondbench --list-metrics
//
// Workloads (see workloads.cc for sizes): olap_t4, serve_mix,
// serve_mix_sf0.05, notebook_cold. A run sets the workload up several times (setup_s is the
// median), computes the expected results with the eager runtime (the
// paper's Python baseline; untimed), runs the closed loop for S seconds,
// and checks every result against the oracle. With --trace 0 the last
// stdout line carries the end-to-end metrics; with --trace 1 it carries
// the per-layer metrics of a traced run (half the time untraced, half
// traced, plus a replay of the compile chain). Earlier stdout lines are the
// human-readable report; the full report and the spans are written under
// --out (default .bench_build/reports).
//
// Exit status: 0 run completed (the result line says whether it was
// correct), 1 set-up or self-test failure, 2 usage error.

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace tondbench {
namespace {

constexpr double kOracleTolerance = 1e-6;
constexpr int kReplayReps = 3;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndDefs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"qps", "1/s"},
      {"latency_p99_ms", "ms"},
      {"query_mem_peak_mb", "MB"},
  };
  return defs;
}

/// Printed with every end-to-end run but not on the result line.
/// failure_ratio is 0 on a correct run (attempted/failed carry it there).
/// The pooled p50 and p90 of a 30-source mix fall on the boundary between
/// two sources' latencies, so which source sets them changes from seed to
/// seed. latency_geomean_ms weighs every source the same, which makes it
/// amplify load from elsewhere on the host: the small queries slow down
/// most.
const std::vector<MetricDef>& ReportOnlyDefs() {
  static const std::vector<MetricDef> defs = {
      {"failure_ratio", "ratio"},
      {"latency_p50_ms", "ms"},
      {"latency_p90_ms", "ms"},
      {"latency_geomean_ms", "ms"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerDefs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"frontend.parse_ms", "ms"},
        {"frontend.anf_ms", "ms"},
        {"frontend.analyze_ms", "ms"},
        {"frontend.translate_ms", "ms"},
        {"analysis.verify_ms", "ms"},
        {"analysis.dataflow_ms", "ms"},
        {"optimizer.optimize_ms", "ms"},
        {"sqlgen.generate_ms", "ms"},
        {"core.compile_ms", "ms"},
        {"core.compile_cached_ms", "ms"},
        {"tondir.rules_translated", "count"},
        {"tondir.rules_optimized", "count"},
        {"sqlgen.sql_bytes", "bytes"},
        {"engine.ctes", "count"},
        {"engine.sql_parse_ms", "ms"},
        {"engine.query_ms", "ms"},
        {"engine.rows_out", "rows"},
        {"engine.query_mem_peak_bytes", "bytes"},
        {"engine.pipelines", "count"},
        {"engine.pipeline_morsels", "count"},
        {"engine.streamed_bytes", "bytes"},
        {"engine.sched.runs", "count"},
        {"engine.sched.morsels", "count"},
        {"engine.sched.steals", "count"},
        {"engine.sched.queue_depth_peak", "count"},
        {"engine.sched.worker_busy_s", "s"},
        {"engine.sched.utilization", "ratio"},
        {"core.plan_cache_hits", "count"},
        {"core.plan_cache_misses", "count"},
        {"core.plan_cache_entries", "count"},
        {"core.plan_cache_hit_ratio", "ratio"},
        {"serve.prepared_hits", "count"},
        {"serve.prepared_misses", "count"},
        {"serve.param_fallback", "count"},
        {"serve.prepare_ms", "ms"},
        {"serve.execute_ms", "ms"},
        {"serve.admission_wait_p50_ms", "ms"},
        {"serve.admission_wait_p99_ms", "ms"},
        {"serve.admitted", "count"},
        {"serve.rejected", "count"},
        {"workloads.dbgen_s", "s"},
        {"workloads.populate_s", "s"},
        {"core.warm_s", "s"},
        {"unattributed_ms", "ms"},
        {"trace_overhead_ratio", "ratio"},
    };
    for (const Source& s : Mix()) {
      d.push_back({"engine.query_ms." + s.name, "ms"});
    }
    return d;
  }();
  return defs;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out = ".bench_build/reports";
  bool selftest = false;
  bool list_metrics = false;
};

int Usage() {
  std::cerr
      << "usage: tondbench --workload NAME --seed N --seconds S --trace 0|1"
         " [--out DIR]\n"
         "       tondbench --selftest\n"
         "       tondbench --list-metrics\n"
         "workloads: olap_t4 serve_mix serve_mix_sf0.05 notebook_cold\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      a->selftest = true;
    } else if (arg == "--list-metrics") {
      a->list_metrics = true;
    } else if (arg == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      a->trace = std::atoi(argv[++i]);
    } else if (arg == "--out" && has_value) {
      a->out = argv[++i];
    } else {
      std::cerr << "tondbench: unknown or incomplete option '" << arg << "'\n";
      return false;
    }
  }
  if (a->selftest || a->list_metrics) return true;
  if (FindWorkload(a->workload) == nullptr) {
    std::cerr << "tondbench: unknown workload '" << a->workload << "'\n";
    return false;
  }
  if (!(a->seconds > 0) || (a->trace != 0 && a->trace != 1)) {
    std::cerr << "tondbench: --seconds must be > 0 and --trace 0 or 1\n";
    return false;
  }
  return true;
}

// ---- one run -------------------------------------------------------------

/// Library-side counters read before and after the traced window.
struct Counters {
  uint64_t pipelines = 0;
  uint64_t morsels = 0;
  uint64_t streamed = 0;
  uint64_t prepared_hits = 0;
  uint64_t prepared_misses = 0;
  uint64_t param_fallback = 0;
  pytond::PlanCacheStats cache;
  pytond::serve::ServeStats serve;
  pytond::obs::HistogramSnapshot wait_ns;
  uint64_t sched_runs = 0;
  uint64_t sched_morsels = 0;
  uint64_t sched_steals = 0;
  uint64_t sched_busy_ns = 0;
  int sched_workers = 0;
};

Counters ReadCounters(const Instance& inst) {
  Counters c;
  auto& m = inst.db->metrics();
  c.pipelines = m.counter("tond_exec_pipelines_total").Value();
  c.morsels = m.counter("tond_exec_pipeline_morsels_total").Value();
  c.streamed = m.counter("tond_exec_streamed_bytes_total").Value();
  c.prepared_hits = m.counter("tond_serve_prepared_hits_total").Value();
  c.prepared_misses = m.counter("tond_serve_prepared_misses_total").Value();
  c.param_fallback = m.counter("tond_serve_param_fallback_total").Value();
  c.wait_ns = m.histogram("tond_serve_wait_ns").Snapshot();
  c.cache = inst.manager ? inst.manager->shared_cache()->stats()
                         : inst.session->plan_cache_stats();
  if (inst.manager) c.serve = inst.manager->stats();
  if (const auto* pool = inst.db->pool_if_created()) {
    c.sched_runs = pool->total_runs();
    c.sched_morsels = pool->total_morsels();
    c.sched_steals = pool->total_steals();
    c.sched_workers = pool->num_workers();
    for (const auto& w : pool->worker_activity()) c.sched_busy_ns += w.busy_ns;
  }
  return c;
}

struct Outcome {
  std::map<std::string, double> values;  // metric name -> value
  int64_t attempted = 0;
  std::vector<Failure> failures;
  std::vector<std::string> sql_mismatches;  // traced runs only
  Tracer query_spans{true};
  Tracer replay_spans{true};
  std::string report;  // human-readable lines
  std::string report_fields;  // JSON members of the report file, no braces
  std::string per_source_json;  // median latency per source (plain runs)
  std::string slices_json;      // qps of each slice (plain runs)
};

/// Correct queries per second: the median over consecutive slices of
/// 30 x clients completions (one pass per client on average), so a burst
/// of load from elsewhere on the host moves one slice, not the figure.
/// Windows shorter than one slice use the whole window.
double Qps(const Window& w, const std::vector<Failure>& failures,
           int clients, std::vector<double>* slice_rates = nullptr) {
  std::vector<bool> bad(w.samples.size(), false);
  for (const Failure& f : failures) bad[f.sample] = true;
  std::vector<std::pair<uint64_t, bool>> done;  // completion, correct
  for (size_t i = 0; i < w.samples.size(); ++i) {
    done.push_back({w.samples[i].done_ns, !bad[i]});
  }
  std::sort(done.begin(), done.end());
  const size_t slice = Mix().size() * static_cast<size_t>(clients);
  std::vector<double> rates;
  uint64_t slice_start = w.start_ns;
  for (size_t end = slice; end <= done.size(); end += slice) {
    size_t correct = 0;
    for (size_t i = end - slice; i < end; ++i) correct += done[i].second;
    const uint64_t slice_end = done[end - 1].first;
    rates.push_back(static_cast<double>(correct) /
                    (static_cast<double>(slice_end - slice_start) / 1e9));
    slice_start = slice_end;
  }
  if (slice_rates != nullptr) *slice_rates = rates;
  if (!rates.empty()) return Median(rates);
  return static_cast<double>(w.samples.size() - failures.size()) / w.wall_s;
}

void EndToEnd(const Window& w, const std::vector<Failure>& failures,
              int clients, Outcome* out) {
  const size_t failed = failures.size();
  std::vector<double> lat;
  double peak = 0;
  for (const Sample& s : w.samples) {
    lat.push_back(s.latency_ms);
    peak = std::max(peak, static_cast<double>(s.mem_peak_bytes));
  }
  const double n = static_cast<double>(w.samples.size());
  std::vector<double> rates;
  out->values["qps"] = Qps(w, failures, clients, &rates);
  out->slices_json = "[";
  for (size_t i = 0; i < rates.size(); ++i) {
    out->slices_json += (i > 0 ? ", " : "") + JsonNumber(rates[i]);
  }
  out->slices_json += "]";
  out->values["latency_p50_ms"] = Percentile(lat, 0.50);
  out->values["latency_p90_ms"] = Percentile(lat, 0.90);
  out->values["latency_p99_ms"] = Percentile(lat, 0.99);
  out->values["query_mem_peak_mb"] = peak / 1e6;
  out->values["failure_ratio"] = n > 0 ? static_cast<double>(failed) / n : 0;

  // Geometric mean over the sources of each source's median latency (the
  // TPC-H power-test summary): every source weighs the same, whatever
  // its share of the run time.
  std::vector<std::vector<double>> by_source(Mix().size());
  for (const Sample& s : w.samples) {
    by_source[static_cast<size_t>(s.source)].push_back(s.latency_ms);
  }
  double log_sum = 0;
  int sources = 0;
  for (const auto& latencies : by_source) {
    if (latencies.empty()) continue;
    log_sum += std::log(Median(latencies));
    ++sources;
  }
  out->values["latency_geomean_ms"] =
      sources > 0 ? std::exp(log_sum / sources) : 0;
  out->per_source_json = "{";
  for (size_t i = 0; i < by_source.size(); ++i) {
    if (i > 0) out->per_source_json += ", ";
    out->per_source_json += JsonString(Mix()[i].name) + ": {\"median_ms\": " +
                            JsonNumber(Median(by_source[i])) +
                            ", \"samples\": " +
                            std::to_string(by_source[i].size()) + "}";
  }
  out->per_source_json += "}";
}

/// Per-layer metrics of the traced window and the compile replay.
void PerLayer(const Instance& inst, const Window& traced,
              const Counters& before, const Counters& after,
              const IrSizes& sizes, Outcome* out) {
  auto& v = out->values;
  const std::vector<Source>& mix = Mix();

  // Compile replay: per-layer totals per 30-source pass, median over reps.
  {
    const auto& spans = out->replay_spans.spans();
    std::map<std::string, std::vector<double>> per_rep;  // name -> per rep
    for (const SpanRec& s : spans) {
      const size_t rep = (s.request - 1) / mix.size();
      auto& reps = per_rep[s.name];
      if (reps.size() <= rep) reps.resize(rep + 1, 0.0);
      reps[rep] += DurationMs(s);
    }
    const std::pair<const char*, const char*> layers[] = {
        {"frontend.parse", "frontend.parse_ms"},
        {"frontend.anf", "frontend.anf_ms"},
        {"frontend.analyze", "frontend.analyze_ms"},
        {"frontend.translate", "frontend.translate_ms"},
        {"analysis.verify", "analysis.verify_ms"},
        {"analysis.dataflow", "analysis.dataflow_ms"},
        {"optimizer.optimize", "optimizer.optimize_ms"},
        {"sqlgen.generate", "sqlgen.generate_ms"},
        {"core.compile", "core.compile_ms"},
    };
    for (const auto& [span, metric] : layers) v[metric] = Median(per_rep[span]);
  }
  v["tondir.rules_translated"] = static_cast<double>(sizes.rules_translated);
  v["tondir.rules_optimized"] = static_cast<double>(sizes.rules_optimized);
  v["sqlgen.sql_bytes"] = static_cast<double>(sizes.sql_bytes);
  v["engine.ctes"] = static_cast<double>(sizes.ctes);

  // Traced window: spans per query.
  const auto& spans = out->query_spans.spans();
  std::map<uint64_t, int> source_of;
  for (const Sample& s : traced.samples) source_of[s.request] = s.source;
  std::map<std::string, std::vector<double>> by_name;
  std::vector<std::vector<double>> exec_by_source(mix.size());
  const bool serve = inst.spec.kind == Kind::kServe;
  const char* exec_span = serve ? "serve.execute" : "engine.query";
  const std::vector<double> child_ms = ChildTimesMs(spans);
  std::vector<double> unattributed;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    by_name[s.name].push_back(DurationMs(s));
    if (s.parent < 0) unattributed.push_back(DurationMs(s) - child_ms[i]);
    if (s.name == exec_span) {
      exec_by_source[static_cast<size_t>(source_of[s.request])].push_back(
          DurationMs(s));
    }
  }
  const double queries = static_cast<double>(traced.samples.size());
  const pytond::obs::HistogramSnapshot wait =
      after.wait_ns.DeltaSince(before.wait_ns);
  const double mean_wait_ms = wait.Mean() / 1e6;
  v["core.compile_cached_ms"] = Mean(by_name["core.compile_cached"]);
  v["engine.sql_parse_ms"] = Mean(by_name["engine.sql_parse"]);
  // On serve_mix the execute call includes admission; take its mean out.
  v["engine.query_ms"] = serve ? Mean(by_name["serve.execute"]) - mean_wait_ms
                               : Mean(by_name["engine.query"]);
  for (size_t i = 0; i < mix.size(); ++i) {
    v["engine.query_ms." + mix[i].name] = Median(exec_by_source[i]);
  }
  v["serve.prepare_ms"] = Mean(by_name["serve.prepare"]);
  v["serve.execute_ms"] = Mean(by_name["serve.execute"]);
  v["unattributed_ms"] = Mean(unattributed);

  double rows = 0;
  double mem_peak = 0;
  for (const Sample& s : traced.samples) {
    if (s.table) rows += static_cast<double>(s.table->num_rows());
    mem_peak = std::max(mem_peak, static_cast<double>(s.mem_peak_bytes));
  }
  auto per_query = [&](uint64_t a, uint64_t b) {
    return queries > 0 ? static_cast<double>(b - a) / queries : 0.0;
  };
  v["engine.rows_out"] = queries > 0 ? rows / queries : 0;
  v["engine.query_mem_peak_bytes"] = mem_peak;
  v["engine.pipelines"] = per_query(before.pipelines, after.pipelines);
  v["engine.pipeline_morsels"] = per_query(before.morsels, after.morsels);
  v["engine.streamed_bytes"] = per_query(before.streamed, after.streamed);

  v["engine.sched.runs"] =
      static_cast<double>(after.sched_runs - before.sched_runs);
  v["engine.sched.morsels"] =
      static_cast<double>(after.sched_morsels - before.sched_morsels);
  v["engine.sched.steals"] =
      static_cast<double>(after.sched_steals - before.sched_steals);
  const auto* pool = inst.db->pool_if_created();
  v["engine.sched.queue_depth_peak"] =
      pool ? static_cast<double>(pool->peak_queue_depth()) : 0;
  const double busy_s =
      static_cast<double>(after.sched_busy_ns - before.sched_busy_ns) / 1e9;
  v["engine.sched.worker_busy_s"] = busy_s;
  v["engine.sched.utilization"] =
      after.sched_workers > 0
          ? busy_s / (after.sched_workers * traced.wall_s)
          : 0;

  const double hits =
      static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  v["core.plan_cache_hits"] = hits;
  v["core.plan_cache_misses"] = misses;
  v["core.plan_cache_entries"] = static_cast<double>(after.cache.entries);
  v["core.plan_cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  v["serve.prepared_hits"] =
      static_cast<double>(after.prepared_hits - before.prepared_hits);
  v["serve.prepared_misses"] =
      static_cast<double>(after.prepared_misses - before.prepared_misses);
  v["serve.param_fallback"] =
      static_cast<double>(after.param_fallback - before.param_fallback);
  v["serve.admission_wait_p50_ms"] =
      wait.count > 0 ? wait.Quantile(0.50) / 1e6 : 0;
  v["serve.admission_wait_p99_ms"] =
      wait.count > 0 ? wait.Quantile(0.99) / 1e6 : 0;
  v["serve.admitted"] =
      static_cast<double>(after.serve.admitted - before.serve.admitted);
  const auto rejected = [](const pytond::serve::ServeStats& s) {
    return s.rejected_queue_full + s.rejected_timeout + s.rejected_memory;
  };
  v["serve.rejected"] =
      static_cast<double>(rejected(after.serve) - rejected(before.serve));
}

std::string FailureSummary(const std::vector<Failure>& failures) {
  // One line per (source, variant, kind) with its count and first detail.
  std::map<std::string, std::pair<int, std::string>> grouped;
  for (const Failure& f : failures) {
    const std::string key = f.source + " variant " +
                            std::to_string(f.variant) + " " + f.kind;
    auto& g = grouped[key];
    if (g.first++ == 0) g.second = f.detail.substr(0, f.detail.find('\n'));
  }
  std::string out;
  for (const auto& [key, g] : grouped) {
    out += "  FAIL " + key + " x" + std::to_string(g.first) + ": " +
           g.second + "\n";
  }
  return out;
}

pytond::Status RunOnce(const WorkloadSpec& spec, uint64_t seed,
                       double seconds, bool trace, Outcome* out) {
  std::ostringstream rep;
  const EnvStamp env = StampEnvironment();

  // Set-up, repeated: setup_s is the median; the last instance is kept.
  std::vector<double> setup_s, dbgen_s, populate_s, warm_s;
  std::unique_ptr<Instance> inst;
  for (int k = 0; k < spec.setups; ++k) {
    inst.reset();
    SetupTimes t;
    auto made = Setup(spec, seed, &t);
    if (!made.ok()) return made.status();
    inst = std::move(*made);
    setup_s.push_back(t.total());
    dbgen_s.push_back(t.dbgen_s);
    populate_s.push_back(t.populate_s);
    warm_s.push_back(t.warm_s);
  }

  const uint64_t o0 = NowNs();
  const Oracle oracle = BuildOracle(*inst);
  const double oracle_s = static_cast<double>(NowNs() - o0) / 1e9;
  // The eager runtime's intermediates are gone; hand their pages back so
  // the timed window does not run beside them.
  malloc_trim(0);

  auto& v = out->values;
  Tracer off(false);
  if (!trace) {
    v["setup_s"] = Median(setup_s);
    const Window w = RunWindow(inst.get(), seconds, &off);
    out->failures = CheckWindow(*inst, oracle, w, kOracleTolerance);
    out->attempted = static_cast<int64_t>(w.samples.size());
    EndToEnd(w, out->failures, spec.clients, out);
    const size_t n = w.samples.size();
    rep << "window: " << n << " queries in " << w.wall_s << " s; samples"
        << " beyond p50/p90/p99: " << n - (n + 1) / 2 << "/"
        << n - static_cast<size_t>(std::ceil(0.9 * n)) << "/"
        << n - static_cast<size_t>(std::ceil(0.99 * n)) << "\n";
  } else {
    v["workloads.dbgen_s"] = Median(dbgen_s);
    v["workloads.populate_s"] = Median(populate_s);
    v["core.warm_s"] = Median(warm_s);
    const Window plain = RunWindow(inst.get(), seconds / 2, &off);
    // serve_mix starts cold in the plain run too: first arrivals compile.
    if (inst->manager) inst->manager->shared_cache()->Clear();
    const Counters before = ReadCounters(*inst);
    const Window traced = RunWindow(inst.get(), seconds / 2, &out->query_spans);
    const Counters after = ReadCounters(*inst);
    IrSizes sizes;
    PYTOND_RETURN_IF_ERROR(ReplayCompile(*inst, kReplayReps,
                                         &out->replay_spans, &sizes,
                                         &out->sql_mismatches));
    const auto plain_failures =
        CheckWindow(*inst, oracle, plain, kOracleTolerance);
    const auto traced_failures =
        CheckWindow(*inst, oracle, traced, kOracleTolerance);
    out->failures = plain_failures;
    out->failures.insert(out->failures.end(), traced_failures.begin(),
                         traced_failures.end());
    out->attempted =
        static_cast<int64_t>(plain.samples.size() + traced.samples.size());
    PerLayer(*inst, traced, before, after, sizes, out);
    const double plain_qps = Qps(plain, plain_failures, spec.clients);
    const double traced_qps = Qps(traced, traced_failures, spec.clients);
    v["trace_overhead_ratio"] = traced_qps > 0 ? plain_qps / traced_qps : 0;
    rep << "windows: plain " << plain.samples.size() << " queries in "
        << plain.wall_s << " s, traced " << traced.samples.size()
        << " queries in " << traced.wall_s << " s\n";
    for (const std::string& name : out->sql_mismatches) {
      rep << "  FAIL replayed SQL differs from Session::Compile: " << name
          << "\n";
    }
  }

  std::ostringstream head;
  head << "tondbench: workload=" << spec.name << " seed=" << seed
       << " seconds=" << seconds << " trace=" << (trace ? 1 : 0) << "\n"
       << "env: " << EnvJson(env) << "\n"
       << "data: tpch_sf=" << spec.sf << " datasci_rows=" << spec.datasci_rows
       << " seed=" << seed << " threads=" << spec.threads
       << " clients=" << spec.clients << " variants=" << spec.variants
       << "\n"
       << "setup: " << spec.setups << " runs, median " << Median(setup_s)
       << " s; oracle (untimed) " << oracle_s << " s over " << oracle.size()
       << " distinct sources\n";
  out->report = head.str() + rep.str() + "attempted " +
                std::to_string(out->attempted) + ", failed " +
                std::to_string(out->failures.size()) + "\n" +
                FailureSummary(out->failures);

  out->report_fields =
      "\"workload\": " + JsonString(spec.name) +
      ", \"seed\": " + std::to_string(seed) +
      ", \"seconds\": " + JsonNumber(seconds) +
      ", \"trace\": " + (trace ? "1" : "0") + ", \"env\": " + EnvJson(env) +
      ", \"data\": {\"tpch_sf\": " + JsonNumber(spec.sf) +
      ", \"datasci_rows\": " + std::to_string(spec.datasci_rows) +
      ", \"seed\": " + std::to_string(seed) +
      ", \"threads\": " + std::to_string(spec.threads) +
      ", \"clients\": " + std::to_string(spec.clients) +
      ", \"variants\": " + std::to_string(spec.variants) + "}" +
      ", \"oracle_s\": " + JsonNumber(oracle_s) +
      ", \"attempted\": " + std::to_string(out->attempted) +
      ", \"failed\": " + std::to_string(out->failures.size());
  out->report_fields += ", \"failures\": [";
  for (size_t i = 0; i < out->failures.size(); ++i) {
    const Failure& f = out->failures[i];
    if (i > 0) out->report_fields += ", ";
    out->report_fields += "{\"source\": " + JsonString(f.source) +
                        ", \"variant\": " + std::to_string(f.variant) +
                        ", \"kind\": " + JsonString(f.kind) +
                        ", \"detail\": " + JsonString(f.detail) + "}";
  }
  out->report_fields += "], \"sql_mismatches\": [";
  for (size_t i = 0; i < out->sql_mismatches.size(); ++i) {
    out->report_fields +=
        (i > 0 ? ", " : "") + JsonString(out->sql_mismatches[i]);
  }
  out->report_fields += "]";
  if (!out->per_source_json.empty()) {
    out->report_fields += ", \"latency_by_source\": " + out->per_source_json +
                        ", \"qps_by_slice\": " + out->slices_json;
  }
  return pytond::Status::OK();
}

/// The metrics named by `defs`, in order; missing names are reported.
std::vector<Metric> Select(const Outcome& out,
                           const std::vector<MetricDef>& defs,
                           std::vector<std::string>* missing) {
  std::vector<Metric> metrics;
  for (const MetricDef& d : defs) {
    auto it = out.values.find(d.name);
    if (it == out.values.end()) {
      missing->push_back(d.name);
      continue;
    }
    metrics.push_back({d.name, it->second, d.unit});
  }
  return metrics;
}

bool MakeDirs(const std::string& path) {
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = path.find('/', pos + 1);
    const std::string prefix = path.substr(0, pos);
    if (!prefix.empty() && mkdir(prefix.c_str(), 0755) != 0 &&
        errno != EEXIST) {
      return false;
    }
  }
  return true;
}

std::string ResultLine(bool correct, int64_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + MetricsJson(metrics) + "}";
}

int RunMain(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  Outcome out;
  pytond::Status st =
      RunOnce(spec, args.seed, args.seconds, args.trace == 1, &out);
  if (!st.ok()) {
    std::cerr << "tondbench: " << spec.name << ": " << st.ToString() << "\n";
    return 1;
  }
  std::vector<std::string> missing;
  const std::vector<Metric> metrics =
      Select(out, args.trace == 1 ? PerLayerDefs() : EndToEndDefs(), &missing);
  if (!missing.empty()) {
    std::cerr << "tondbench: metric(s) not computed:";
    for (const auto& m : missing) std::cerr << " " << m;
    std::cerr << "\n";
    return 1;
  }
  std::vector<Metric> shown = metrics;
  if (args.trace == 0) {
    std::vector<std::string> unused;
    for (const Metric& m : Select(out, ReportOnlyDefs(), &unused)) {
      shown.push_back(m);
    }
  }

  std::cout << out.report;
  for (const Metric& m : shown) {
    std::cout << "  " << m.name << " = " << JsonNumber(m.value) << " "
              << m.unit << "\n";
  }
  const std::string stem = args.out + "/" + spec.name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace);
  if (MakeDirs(args.out)) {
    std::ofstream(stem + ".json") << "{" << out.report_fields
                                  << ", \"metrics\": " << MetricsJson(shown)
                                  << "}\n";
    if (args.trace == 1) {
      // Replay request ids restart at 1; move them past the queries'.
      uint64_t last_request = 0;
      for (const SpanRec& s : out.query_spans.spans()) {
        last_request = std::max(last_request, s.request);
      }
      Tracer merged(true);
      merged.Append(out.query_spans);
      merged.Append(out.replay_spans, last_request);
      if (!WriteSpans(stem + ".spans.jsonl", merged.spans())) {
        std::cerr << "tondbench: cannot write " << stem << ".spans.jsonl\n";
      }
    }
    std::cout << "report: " << stem << ".json\n";
  } else {
    std::cerr << "tondbench: cannot create " << args.out << "\n";
  }
  const bool correct = out.failures.empty() && out.sql_mismatches.empty();
  std::cout << ResultLine(correct, out.attempted, out.failures.size(),
                          metrics)
            << std::endl;
  return 0;
}

// ---- self-test -----------------------------------------------------------

int selftest_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok   " : "  FAIL ") << what << "\n";
  if (!ok) ++selftest_failures;
}

/// Every span's children plus its unattributed time equal its duration.
void CheckSpanSums(const std::vector<SpanRec>& spans, const std::string& tag) {
  const std::vector<double> self = SelfTimesMs(spans);
  const std::vector<double> kids = ChildTimesMs(spans);
  double worst = 0;
  size_t roots = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    worst = std::max(worst,
                     std::fabs(kids[i] + self[i] - DurationMs(spans[i])));
    if (spans[i].parent < 0) ++roots;
  }
  Expect(roots > 0 && worst < 1e-6,
         tag + ": children + unattributed == span (" + std::to_string(roots) +
             " roots, worst error " + std::to_string(worst) + " ms)");
}

void CheckMetrics(const Outcome& out, const std::vector<MetricDef>& defs,
                  const std::string& tag) {
  std::vector<std::string> missing;
  const std::vector<Metric> metrics = Select(out, defs, &missing);
  bool named = true;
  for (const Metric& m : metrics) {
    named = named && ValidMetricName(m.name) && !m.unit.empty() &&
            std::isfinite(m.value);
  }
  Expect(missing.empty() && named,
         tag + ": all " + std::to_string(defs.size()) +
             " metrics present, named [A-Za-z0-9_.-]+, with units" +
             (missing.empty() ? "" : " (missing " + missing[0] + ")"));
}

int SelfTest() {
  std::cout << "tondbench self-test\n";
  // The comparator counts a deliberately wrong expected table.
  {
    SetupTimes t;
    auto inst = Setup(TinySpec(*FindWorkload("notebook_cold")), 1, &t);
    if (!inst.ok()) {
      std::cout << "  FAIL set-up: " << inst.status().ToString() << "\n";
      return 1;
    }
    const Oracle oracle = BuildOracle(**inst);
    Window w;
    for (int i = 0; i < 2; ++i) {
      Sample s;
      s.source = i;
      auto r = (*inst)->session->Run((*inst)->texts[0][i], (*inst)->Options());
      if (r.ok()) {
        s.table = *r;
      } else {
        s.status = r.status();
      }
      w.samples.push_back(std::move(s));
    }
    const size_t honest =
        CheckWindow(**inst, oracle, w, kOracleTolerance).size();
    // Swap in Q2's expected rows as Q1's.
    Oracle wrong = oracle;
    wrong.at((*inst)->texts[0][0]) = oracle.at((*inst)->texts[0][1]);
    const auto caught = CheckWindow(**inst, wrong, w, kOracleTolerance);
    Expect(honest == 0 && caught.size() == 1 && caught[0].kind == "mismatch",
           "comparator: wrong expected table counted as a failure");
  }

  for (const WorkloadSpec& full : AllWorkloads()) {
    const WorkloadSpec spec = TinySpec(full);
    for (int trace = 0; trace <= 1; ++trace) {
      const std::string tag = spec.name + " trace=" + std::to_string(trace);
      Outcome out;
      pytond::Status st = RunOnce(spec, 3, 1.0, trace == 1, &out);
      Expect(st.ok(), tag + ": run " + (st.ok() ? "" : st.ToString()));
      if (!st.ok()) continue;
      Expect(out.attempted > 0, tag + ": " + std::to_string(out.attempted) +
                                    " queries attempted, " +
                                    std::to_string(out.failures.size()) +
                                    " failed");
      CheckMetrics(out, trace ? PerLayerDefs() : EndToEndDefs(), tag);
      if (!trace) CheckMetrics(out, ReportOnlyDefs(), tag + " (report only)");
      if (trace) {
        CheckSpanSums(out.query_spans.spans(), tag + " query spans");
        CheckSpanSums(out.replay_spans.spans(), tag + " replay spans");
        Expect(out.sql_mismatches.empty(),
               tag + ": replayed SQL == Session::Compile for all " +
                   std::to_string(Mix().size()) + " sources");
      }
    }
  }
  std::cout << (selftest_failures == 0 ? "self-test passed\n"
                                       : "self-test FAILED\n");
  return selftest_failures == 0 ? 0 : 1;
}

int ListMetrics() {
  auto list = [](const std::vector<MetricDef>& defs) {
    std::string out = "[";
    for (size_t i = 0; i < defs.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"name\": " + JsonString(defs[i].name) +
             ", \"unit\": " + JsonString(defs[i].unit) + "}";
    }
    return out + "]";
  };
  std::cout << "{\"end_to_end\": " << list(EndToEndDefs())
            << ", \"per_layer\": " << list(PerLayerDefs()) << "}\n";
  return 0;
}

}  // namespace
}  // namespace tondbench

int main(int argc, char** argv) {
  tondbench::Args args;
  if (!tondbench::ParseArgs(argc, argv, &args)) return tondbench::Usage();
  if (args.list_metrics) return tondbench::ListMetrics();
  if (args.selftest) return tondbench::SelfTest();
  return tondbench::RunMain(args);
}
