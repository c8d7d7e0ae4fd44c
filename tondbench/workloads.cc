#include "workloads.h"

#include <atomic>
#include <set>
#include <thread>

#include "analysis/dataflow/dataflow.h"
#include "analysis/verifier.h"
#include "engine/sql/parser.h"
#include "frontend/analysis/analyzer.h"
#include "frontend/anf/anf.h"
#include "frontend/pylang/parser.h"
#include "frontend/translate/translator.h"
#include "obs/metrics/memory_accountant.h"
#include "optimizer/passes.h"
#include "sqlgen/sqlgen.h"
#include "workloads/datasci.h"
#include "workloads/tpch/dbgen.h"
#include "workloads/tpch/queries.h"

namespace tondbench {

namespace ds = pytond::workloads::datasci;
using pytond::Result;
using pytond::RunOptions;
using pytond::Status;

const std::vector<Source>& Mix() {
  static const std::vector<Source> mix = [] {
    std::vector<Source> out;
    for (const auto& q : pytond::workloads::tpch::AllQueries()) {
      out.push_back({q.name, q.source});
    }
    out.push_back({"crime_index", ds::CrimeIndexSource()});
    out.push_back({"birth_analysis", ds::BirthAnalysisSource()});
    out.push_back({"n3", ds::N3Source()});
    out.push_back({"n9", ds::N9Source()});
    out.push_back({"hybrid_matmul", ds::HybridMatMulSource(false)});
    out.push_back({"hybrid_covar", ds::HybridCovarSource(false)});
    out.push_back({"covar_dense", ds::CovarDenseSource()});
    out.push_back({"covar_sparse", ds::CovarSparseSource()});
    return out;
  }();
  return mix;
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> all = {
      // name, kind, sf, datasci_rows, threads, clients, variants, setups
      {"olap_t4", Kind::kOlap, 0.1, 10000, 4, 1, 1, 3},
      {"serve_mix", Kind::kServe, 0.02, 10000, 1, 4, 4, 5},
      // serve_mix at a scale where Q17's filtered frame is practically
      // never empty: about 10 Brand#23/MED BOX parts are expected, so a
      // seed gives none with probability about e^-10. At SF 0.02 (about 4
      // expected) Q17 returns NULL where the oracle has 0.0 at roughly
      // 1-2% of seeds; see README.
      {"serve_mix_sf0.05", Kind::kServe, 0.05, 10000, 1, 4, 4, 5},
      {"notebook_cold", Kind::kNotebook, 0.002, 1000, 1, 1, 1, 5},
  };
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

WorkloadSpec TinySpec(WorkloadSpec spec) {
  spec.sf = 0.002;
  spec.datasci_rows = 1000;
  spec.setups = 1;
  return spec;
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Shifts the day of month of every 'YYYY-MM-DD' literal by `shift`
/// (mod 28, so every date stays valid and both ends of a range move
/// alike). Only dates vary: numeric literals also sit in structural
/// positions (head(n), matrix shapes) where an edit changes the plan.
std::string VaryLiterals(const std::string& source, int shift) {
  std::string out = source;
  for (size_t i = 0; i + 11 < out.size(); ++i) {
    if (out[i] != '\'' || out[i + 11] != '\'') continue;
    const char* p = out.data() + i + 1;
    if (!(IsDigit(p[0]) && IsDigit(p[1]) && IsDigit(p[2]) &&
          IsDigit(p[3]) && p[4] == '-' && IsDigit(p[5]) && IsDigit(p[6]) &&
          p[7] == '-' && IsDigit(p[8]) && IsDigit(p[9]))) {
      continue;
    }
    int day = (p[8] - '0') * 10 + (p[9] - '0');
    day = (day - 1 + shift) % 28 + 1;
    out[i + 9] = static_cast<char>('0' + day / 10);
    out[i + 10] = static_cast<char>('0' + day % 10);
    i += 11;
  }
  return out;
}

double Seconds(uint64_t t0, uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

Status PopulateDatasci(pytond::engine::Database* db, int64_t rows,
                       uint64_t seed) {
  PYTOND_RETURN_IF_ERROR(ds::PopulateCrimeIndex(db, rows, seed + 7));
  PYTOND_RETURN_IF_ERROR(ds::PopulateBirthAnalysis(db, rows, seed + 11));
  PYTOND_RETURN_IF_ERROR(ds::PopulateN3(db, rows, seed + 13));
  PYTOND_RETURN_IF_ERROR(ds::PopulateN9(db, rows, seed + 17));
  PYTOND_RETURN_IF_ERROR(ds::PopulateHybrid(db, rows, seed + 19));
  return ds::PopulateCovariance(db, 256, 8, 0.5, seed + 23);
}

}  // namespace

RunOptions Instance::Options() const {
  RunOptions o;
  o.num_threads = spec.threads;
  return o;
}

Result<std::unique_ptr<Instance>> Setup(const WorkloadSpec& spec,
                                        uint64_t seed, SetupTimes* times) {
  auto inst = std::make_unique<Instance>();
  inst->spec = spec;
  inst->seed = seed;
  inst->db = std::make_shared<pytond::engine::Database>();

  const uint64_t t0 = NowNs();
  PYTOND_RETURN_IF_ERROR(
      pytond::workloads::tpch::Populate(inst->db.get(), spec.sf, seed));
  const uint64_t t1 = NowNs();
  PYTOND_RETURN_IF_ERROR(
      PopulateDatasci(inst->db.get(), spec.datasci_rows, seed));
  const uint64_t t2 = NowNs();

  inst->session = std::make_unique<pytond::Session>(inst->db);
  if (spec.kind == Kind::kServe) {
    pytond::serve::ServeConfig cfg;
    cfg.max_in_flight = 4;
    // Deep and patient enough that nothing is refused at four clients.
    cfg.max_queue = 64;
    cfg.queue_timeout_ms = 60000;
    inst->manager =
        std::make_unique<pytond::serve::ConnectionManager>(inst->db, cfg);
  }
  inst->texts.resize(static_cast<size_t>(spec.variants));
  for (int v = 0; v < spec.variants; ++v) {
    // Day shifts spread over the month. The set is the same for every
    // seed, so runs at different seeds do the same work; the seed picks
    // which (client, pass) gets which variant (see RunWindow).
    const int shift = 1 + 7 * v;
    for (const Source& s : Mix()) {
      inst->texts[v].push_back(spec.kind == Kind::kServe
                                   ? VaryLiterals(s.text, shift)
                                   : s.text);
    }
  }
  if (spec.kind == Kind::kOlap) {
    for (const std::string& text : inst->texts[0]) {
      auto compiled = inst->session->CompileCached(text, inst->Options());
      if (!compiled.ok()) return compiled.status();
    }
  }
  const uint64_t t3 = NowNs();
  times->dbgen_s = Seconds(t0, t1);
  times->populate_s = Seconds(t1, t2);
  times->warm_s = Seconds(t2, t3);
  return inst;
}

namespace {

Status NotRun() { return Status::Internal("not run"); }

/// The engine's SQL parser on its own, as a span of the query.
Status TimedSqlParse(Tracer* tracer, int parent, uint64_t request,
                     const std::string& sql,
                     const std::vector<pytond::Value>* params) {
  Scope span(tracer, "engine.sql_parse", parent, request);
  auto parsed = pytond::engine::sql::ParseSql(sql, params);
  return parsed.ok() ? Status::OK() : parsed.status();
}

void Finish(Result<std::shared_ptr<const pytond::Table>> r, uint64_t t0,
            const pytond::obs::MemoryAccountant& mem, Sample* s) {
  s->done_ns = NowNs();
  s->latency_ms = static_cast<double>(s->done_ns - t0) / 1e6;
  s->mem_peak_bytes = mem.peak();
  if (r.ok()) {
    s->table = std::move(*r);
  } else {
    s->status = r.status();
  }
}

/// One query through a single-client session. Untraced: Session::Run.
/// Traced: its two halves, CompileCached then Execute, with the engine's
/// SQL parser timed in between.
Sample SessionQuery(Instance* inst, int source, Tracer* tracer,
                    uint64_t request) {
  Sample s;
  s.source = source;
  s.request = request;
  const std::string& text = inst->texts[0][static_cast<size_t>(source)];
  pytond::obs::MemoryAccountant mem;
  RunOptions o = inst->Options();
  o.mem = &mem;
  pytond::Session& session = *inst->session;
  const uint64_t t0 = NowNs();
  Result<std::shared_ptr<const pytond::Table>> r = NotRun();
  if (!tracer->enabled()) {
    r = session.Run(text, o);
  } else {
    Scope q(tracer, "query", -1, request);
    Result<std::shared_ptr<const pytond::frontend::Compiled>> c = NotRun();
    {
      Scope span(tracer, "core.compile_cached", q.index(), request);
      c = session.CompileCached(text, o);
    }
    Status parsed = c.ok() ? TimedSqlParse(tracer, q.index(), request,
                                           (*c)->sql, nullptr)
                           : c.status();
    if (!parsed.ok()) {
      r = parsed;
    } else {
      Scope span(tracer, "engine.query", q.index(), request);
      r = session.Execute(**c, o);
    }
  }
  Finish(std::move(r), t0, mem, &s);
  return s;
}

/// One query through a serve connection. Untraced: Connection::Run
/// (admission, PREPARE, EXECUTE). Traced: Connection::Prepare, the
/// engine's SQL parser, then Connection::Execute (admission + execute).
Sample ServeQuery(Instance* inst, pytond::serve::Connection* conn, int source,
                  int variant, Tracer* tracer, uint64_t request) {
  Sample s;
  s.source = source;
  s.variant = variant;
  s.request = request;
  const std::string& text =
      inst->texts[static_cast<size_t>(variant)][static_cast<size_t>(source)];
  pytond::obs::MemoryAccountant mem;
  RunOptions o = inst->Options();
  o.mem = &mem;
  const uint64_t t0 = NowNs();
  Result<std::shared_ptr<const pytond::Table>> r = NotRun();
  if (!tracer->enabled()) {
    r = conn->Run(text, o);
  } else {
    Scope q(tracer, "query", -1, request);
    Result<pytond::PreparedStatement> ps = NotRun();
    {
      Scope span(tracer, "serve.prepare", q.index(), request);
      ps = conn->Prepare(text, o);
    }
    Status parsed =
        ps.ok() ? TimedSqlParse(tracer, q.index(), request,
                                ps->compiled().sql,
                                ps->parameterized() ? &ps->defaults()
                                                    : nullptr)
                : ps.status();
    if (!parsed.ok()) {
      r = parsed;
    } else {
      Scope span(tracer, "serve.execute", q.index(), request);
      r = conn->Execute(*ps);
    }
  }
  Finish(std::move(r), t0, mem, &s);
  return s;
}

}  // namespace

Window RunWindow(Instance* inst, double seconds, Tracer* tracer) {
  Window w;
  const int n = static_cast<int>(Mix().size());
  const uint64_t start = NowNs();
  const uint64_t deadline =
      start + static_cast<uint64_t>(seconds * 1e9);
  w.start_ns = start;
  std::atomic<uint64_t> next_request{1};

  if (inst->spec.kind != Kind::kServe) {
    // One client, whole passes over the mix so every pass weighs the same.
    while (NowNs() < deadline) {
      if (inst->spec.kind == Kind::kNotebook) inst->session->ClearPlanCache();
      for (int i = 0; i < n; ++i) {
        w.samples.push_back(SessionQuery(inst, i, tracer, next_request++));
      }
    }
    w.wall_s = Seconds(start, NowNs());
    return w;
  }

  const int clients = inst->spec.clients;
  std::vector<std::vector<Sample>> per_client(static_cast<size_t>(clients));
  std::vector<Tracer> tracers(static_cast<size_t>(clients),
                              Tracer(tracer->enabled()));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto conn = inst->manager->Connect();
      auto& out = per_client[static_cast<size_t>(c)];
      Tracer* local = &tracers[static_cast<size_t>(c)];
      for (int pass = 0;; ++pass) {
        for (int k = 0; k < n; ++k) {
          if (NowNs() >= deadline) return;
          // Offset each client's sweep so the mix interleaves, and rotate
          // the literal variant per (client, pass).
          const int source = (k + c) % n;
          const int variant = static_cast<int>(
              (inst->seed + c + pass) % inst->spec.variants);
          out.push_back(ServeQuery(inst, conn.get(), source, variant, local,
                                   next_request++));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  w.wall_s = Seconds(start, NowNs());
  for (int c = 0; c < clients; ++c) {
    auto& samples = per_client[static_cast<size_t>(c)];
    w.samples.insert(w.samples.end(), std::make_move_iterator(samples.begin()),
                     std::make_move_iterator(samples.end()));
    tracer->Append(tracers[static_cast<size_t>(c)]);
  }
  return w;
}

Oracle BuildOracle(const Instance& inst) {
  Oracle oracle;
  for (const auto& variant : inst.texts) {
    for (const std::string& text : variant) {
      if (oracle.count(text) == 0) {
        oracle.emplace(text, inst.session->RunBaseline(text));
      }
    }
  }
  return oracle;
}

std::vector<Failure> CheckWindow(const Instance& inst, const Oracle& oracle,
                                 const Window& window, double tol) {
  std::vector<Failure> out;
  for (size_t i = 0; i < window.samples.size(); ++i) {
    const Sample& s = window.samples[i];
    Failure f;
    f.sample = i;
    f.source = Mix()[static_cast<size_t>(s.source)].name;
    f.variant = s.variant;
    if (!s.status.ok()) {
      f.kind = s.status.code() == pytond::StatusCode::kRejected ? "rejected"
                                                                : "error";
      f.detail = s.status.ToString();
      out.push_back(std::move(f));
      continue;
    }
    const std::string& text = inst.texts[static_cast<size_t>(s.variant)]
                                        [static_cast<size_t>(s.source)];
    auto it = oracle.find(text);
    if (it == oracle.end() || !it->second.ok()) {
      f.kind = "oracle_error";
      f.detail = it == oracle.end() ? "no oracle result"
                                    : it->second.status().ToString();
      out.push_back(std::move(f));
      continue;
    }
    std::string diff;
    if (!pytond::Table::UnorderedEquals(*s.table, *it->second, tol, &diff)) {
      f.kind = "mismatch";
      f.detail = diff;
      out.push_back(std::move(f));
    }
  }
  return out;
}

namespace {

/// Session::Compile's chain for one source, one span per public call.
/// Mirrors frontend::CompileFunction with the options Session::Compile
/// derives from default RunOptions (duck dialect, O4, verify on,
/// frontend checks on, no parameterization).
Result<std::string> ReplayOne(const std::string& text,
                              const pytond::Catalog& catalog, Tracer* tracer,
                              uint64_t request, IrSizes* sizes) {
  namespace fe = pytond::frontend;
  Scope root(tracer, "compile.replay", -1, request);
  const int parent = root.index();

  Result<fe::py::Module> module = NotRun();
  {
    Scope span(tracer, "frontend.parse", parent, request);
    module = fe::py::ParseModule(text);
  }
  if (!module.ok()) return module.status();
  if (module->functions.size() != 1) {
    return Status::InvalidArgument("expected exactly one @pytond function");
  }
  const fe::py::Function& fn = module->functions[0];

  fe::TranslateOptions topts;
  for (const auto& [key, value] : fn.decorator_kwargs) {
    if (key == "layout") {
      if (value->kind == fe::py::Expr::Kind::kLiteral &&
          value->literal.type() == pytond::DataType::kString) {
        topts.layout = value->literal.AsString() == "sparse"
                           ? fe::TensorLayout::kSparse
                           : fe::TensorLayout::kDense;
      }
    } else if (key == "pivot_values") {
      for (const auto& item : value->children) {
        if (item->kind == fe::py::Expr::Kind::kLiteral &&
            item->literal.type() == pytond::DataType::kString) {
          topts.pivot_values.push_back(item->literal.AsString());
        }
      }
    }
  }

  fe::py::Function normalized = fn;
  {
    Scope span(tracer, "frontend.anf", parent, request);
    auto body = fe::ToAnf(fn.body);
    if (!body.ok()) return body.status();
    normalized.body = std::move(*body);
  }

  std::vector<std::string> rewrite_log;
  fe::check::FunctionFacts ffacts;
  {
    Scope span(tracer, "frontend.analyze", parent, request);
    fe::check::AnalyzerOptions copts;
    copts.catalog = &catalog;
    copts.layout = topts.layout;
    copts.pivot_values = topts.pivot_values;
    ffacts = fe::check::AnalyzeFunction(normalized, copts);
  }
  PYTOND_RETURN_IF_ERROR(ffacts.error_status);
  topts.facts = &ffacts;
  topts.fusion_log = &rewrite_log;

  Result<fe::TranslationResult> tr = NotRun();
  {
    Scope span(tracer, "frontend.translate", parent, request);
    tr = fe::TranslateFunction(normalized, catalog, topts);
  }
  if (!tr.ok()) return tr.status();
  sizes->rules_translated += static_cast<int64_t>(tr->program.rules.size());

  std::set<std::string> base;
  for (const auto& [rel, cols] : tr->program.base_columns) base.insert(rel);
  {
    Scope span(tracer, "analysis.verify", parent, request);
    pytond::analysis::VerifyOptions vopts;
    vopts.base_relations = base;
    auto diags = pytond::analysis::VerifyProgram(tr->program, vopts);
    if (pytond::analysis::HasErrors(diags)) {
      return Status::Internal("replayed translation failed verification");
    }
  }
  {
    Scope span(tracer, "optimizer.optimize", parent, request);
    pytond::opt::OptimizerOptions oopts =
        pytond::opt::OptimizerOptions::Preset(4);
    oopts.rewrite_log = &rewrite_log;
    PYTOND_RETURN_IF_ERROR(pytond::opt::Optimize(&tr->program, base, oopts));
  }
  sizes->rules_optimized += static_cast<int64_t>(tr->program.rules.size());

  pytond::analysis::dataflow::ProgramFacts facts;
  {
    Scope span(tracer, "analysis.dataflow", parent, request);
    pytond::analysis::dataflow::AnalyzeOptions aopts;
    aopts.base_relations = base;
    facts = pytond::analysis::dataflow::AnalyzeProgram(tr->program, aopts);
  }
  Result<std::string> sql = NotRun();
  {
    Scope span(tracer, "sqlgen.generate", parent, request);
    pytond::sqlgen::SqlGenOptions sopts;
    sopts.facts = &facts;
    sql = pytond::sqlgen::GenerateSql(tr->program, sopts);
  }
  return sql;
}

}  // namespace

Status ReplayCompile(const Instance& inst, int reps, Tracer* tracer,
                     IrSizes* sizes, std::vector<std::string>* mismatches) {
  const pytond::Catalog& catalog = inst.db->catalog();
  uint64_t request = 1;
  for (int rep = 0; rep < reps; ++rep) {
    // Compilation is deterministic: sizes come from the first rep, the
    // SQL comparison runs on every rep.
    IrSizes later_reps;
    IrSizes* rep_sizes = rep == 0 ? sizes : &later_reps;
    for (const Source& src : Mix()) {
      PYTOND_ASSIGN_OR_RETURN(
          std::string sql,
          ReplayOne(src.text, catalog, tracer, request, rep_sizes));
      Result<pytond::frontend::Compiled> compiled = NotRun();
      {
        Scope span(tracer, "core.compile", -1, request);
        compiled = inst.session->Compile(src.text, inst.Options());
      }
      if (!compiled.ok()) return compiled.status();
      ++request;
      if (sql != compiled->sql) mismatches->push_back(src.name);
      if (rep == 0) {
        sizes->sql_bytes += static_cast<int64_t>(sql.size());
        PYTOND_ASSIGN_OR_RETURN(auto parsed,
                                pytond::engine::sql::ParseSql(sql));
        sizes->ctes += static_cast<int64_t>(parsed->ctes.size());
      }
    }
  }
  return Status::OK();
}

}  // namespace tondbench
