// The benchmark workloads over the 30-source mix (22 TPC-H queries +
// 8 data-science programs): data set-up, the closed-loop query windows
// (plain and traced), the eager-runtime oracle, and the traced replay of
// the compile chain.

#ifndef TONDBENCH_WORKLOADS_H_
#define TONDBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/session.h"
#include "harness.h"
#include "serve/connection_manager.h"
#include "storage/table.h"

namespace tondbench {

struct Source {
  std::string name;
  std::string text;
};

/// The 30-source mix, in a fixed order.
const std::vector<Source>& Mix();

enum class Kind { kOlap, kServe, kNotebook };

struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kOlap;
  double sf = 0.1;              // TPC-H scale factor
  int64_t datasci_rows = 10000;
  int threads = 1;              // RunOptions::num_threads per query
  int clients = 1;              // closed-loop clients
  int variants = 1;             // literal variants of the mix
  int setups = 3;               // set-up repetitions behind setup_s
};

/// Null when `name` names no workload.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();
/// The same workload at self-test size (tiny data, one set-up).
WorkloadSpec TinySpec(WorkloadSpec spec);

struct SetupTimes {
  double dbgen_s = 0;     // tpch::Populate
  double populate_s = 0;  // the datasci Populate* calls
  double warm_s = 0;      // plan-cache warm-up (olap_t4 only)
  double total() const { return dbgen_s + populate_s + warm_s; }
};

/// One populated workload: the database and the handles its clients use.
struct Instance {
  WorkloadSpec spec;
  uint64_t seed = 0;
  std::shared_ptr<pytond::engine::Database> db;
  /// Single-client workloads run through this session; it is also the
  /// oracle's and the compile replay's session on every workload.
  std::unique_ptr<pytond::Session> session;
  std::unique_ptr<pytond::serve::ConnectionManager> manager;  // serve only
  /// texts[variant][source]: the literal variants of the mix.
  std::vector<std::vector<std::string>> texts;

  pytond::RunOptions Options() const;
};

/// Generates and loads the data, builds the handles and, on olap_t4, warms
/// the plan cache. Times each part.
pytond::Result<std::unique_ptr<Instance>> Setup(const WorkloadSpec& spec,
                                                uint64_t seed,
                                                SetupTimes* times);

/// One timed query of a window.
struct Sample {
  int source = 0;
  int variant = 0;
  uint64_t request = 0;  // span request id (traced windows)
  uint64_t done_ns = 0;  // completion time (NowNs)
  double latency_ms = 0;
  uint64_t mem_peak_bytes = 0;
  pytond::Status status;
  std::shared_ptr<const pytond::Table> table;
};

struct Window {
  std::vector<Sample> samples;
  uint64_t start_ns = 0;
  double wall_s = 0;
};

/// Runs the workload's closed loop for `seconds`. With an enabled tracer
/// every query is issued as separate calls into the layers (compile or
/// prepare, engine SQL parse, execute) with a span around each.
Window RunWindow(Instance* inst, double seconds, Tracer* tracer);

/// Expected results from the eager runtime, keyed by source text. Serial:
/// the eager runtime peaks near 1.7 GB on one query at SF 0.1.
using Oracle = std::map<std::string, pytond::Result<pytond::Table>>;
Oracle BuildOracle(const Instance& inst);

struct Failure {
  size_t sample = 0;  // index into Window::samples
  std::string source;
  int variant = 0;
  std::string kind;  // error | rejected | mismatch | oracle_error
  std::string detail;
};

/// Compares every sample with the oracle (Table::UnorderedEquals, `tol`).
std::vector<Failure> CheckWindow(const Instance& inst, const Oracle& oracle,
                                 const Window& window, double tol);

/// IR sizes summed over one compile of the 30 sources.
struct IrSizes {
  int64_t rules_translated = 0;
  int64_t rules_optimized = 0;
  int64_t sql_bytes = 0;
  int64_t ctes = 0;
};

/// Replays Session::Compile's chain (parse, ANF, analyze, translate,
/// verify, optimize, dataflow, sqlgen) for every source `reps` times, one
/// span per call, and times Session::Compile itself. Any source whose
/// replayed SQL differs from Session::Compile's is named in `mismatches`.
pytond::Status ReplayCompile(const Instance& inst, int reps, Tracer* tracer,
                             IrSizes* sizes,
                             std::vector<std::string>* mismatches);

}  // namespace tondbench

#endif  // TONDBENCH_WORKLOADS_H_
