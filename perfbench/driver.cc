// The benchmark's closed-loop driver: one process, one driving thread, one scenario
// run at a time.
//
// A scenario run is what `jockey_cli run <scenario>` does, called through the same
// public API and timed from outside:
//
//   ParseScenarioText -> JobCatalog::Resolve -> CompileScenario -> RunScenario
//     -> output writers
//
// run.py generates the scenario documents from the benchmark seed and passes their
// paths here; this program only ever sees the generated text. The workloads:
//
//   catalog_cold    a fresh JobCatalog per run over an empty table-cache directory
//                   (the C(p, a) build simulates and stores)
//   catalog_warm    a fresh JobCatalog per run over a cache directory set-up filled
//                   (the C(p, a) build loads)
//   episode_stream  one long-lived JobCatalog trained in set-up; observability
//                   detached (cluster dispatch and the control tick dominate)
//   traced_stream   episode_stream plus every CLI artifact: an AsyncJsonlSink trace
//                   file, time series, metrics, summary and episodes files, then a
//                   strict trace read-back and a postmortem
//
// Every run's WriteScenarioSummaryJson bytes must equal a reference computed in
// set-up with the table cache disabled and one build thread. With --trace 1 the
// second half of the measuring time runs with in-memory spans around each public
// call plus the scoped profiler, and the per-layer split is reported instead of
// the end-to-end metrics.
//
// The last stdout line is one JSON object: correct, attempted, failed, metrics and
// a report with the run's manifest and details.

#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/completion_model.h"
#include "src/core/experiment.h"
#include "src/core/jockey.h"
#include "src/obs/analysis/postmortem.h"
#include "src/obs/async_jsonl.h"
#include "src/obs/json_format.h"
#include "src/obs/jsonl.h"
#include "src/obs/metrics.h"
#include "src/obs/prof/profiler.h"
#include "src/obs/timeseries/timeseries.h"
#include "src/scenario/catalog.h"
#include "src/scenario/compiler.h"
#include "src/scenario/orchestrator.h"
#include "src/scenario/spec.h"
#include "src/sim/table_cache.h"

namespace jockey {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Repetitions of set-up per process; setup_s reports their median.
constexpr int kSetupRepeats = 3;

double WallNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

// Returns freed heap to the system, then restarts the process's resident-memory
// high-water mark at its current size, so PeakRssMb() covers only what follows.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) {
    throw std::runtime_error("cannot reset the peak RSS through /proc/self/clear_refs");
  }
}

// The resident-memory high-water mark (VmHWM) since the last ResetPeakRss().
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads "VmHWM:  <n> kB"
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between closest ranks (numpy's default).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and scenario-run id, kept in memory and written
// when the run ends. A null Tracer makes every SpanScope a no-op.

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int run = 0;
};

class Tracer {
 public:
  void BeginRun(int run) { run_ = run; }

  void Open(const char* name) {
    int parent = stack_.empty() ? -1 : stack_.back();
    stack_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(Span{name, WallNow(), 0.0, parent, run_});
  }

  void Close() {
    spans_[static_cast<size_t>(stack_.back())].end = WallNow();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  void WriteJsonl(const fs::path& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":" << JsonString(s.name) << ",\"start\":" << Num(s.start)
          << ",\"end\":" << Num(s.end) << ",\"parent\":" << s.parent << ",\"run\":" << s.run
          << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int run_ = 0;
};

class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Open(name);
    }
  }
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->Close();
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// Workloads and scenario runs.

enum class Workload { kCatalogCold, kCatalogWarm, kEpisodeStream, kTracedStream };

std::optional<Workload> ParseWorkload(const std::string& name) {
  if (name == "catalog_cold") return Workload::kCatalogCold;
  if (name == "catalog_warm") return Workload::kCatalogWarm;
  if (name == "episode_stream") return Workload::kEpisodeStream;
  if (name == "traced_stream") return Workload::kTracedStream;
  return std::nullopt;
}

bool IsCatalogWorkload(Workload w) {
  return w == Workload::kCatalogCold || w == Workload::kCatalogWarm;
}

struct Doc {
  std::string name;
  std::string text;
};

// What one scenario run needs besides its document.
struct RunContext {
  Workload workload = Workload::kEpisodeStream;
  int threads = 1;
  fs::path work_dir;
  // Streams: the long-lived catalog. Null for catalog workloads, which build a
  // fresh catalog per run and resolve its jobs before compiling.
  JobCatalog* catalog = nullptr;
  std::string cache_dir;  // catalog workloads; empty disables the table cache
};

struct ResolvedJob {
  std::shared_ptr<const TrainedJob> trained;
  double cpu_seconds = 0.0;
  double wall_seconds = 0.0;
};

// One scenario run's results: the checked output plus the simulated tallies.
struct DocRun {
  std::string summary;
  int episodes = 0;
  int jockey_episodes = 0;
  int jockey_met = 0;
  double over_oracle_sum = 0.0;
  std::vector<ResolvedJob> resolved;
  // traced_stream only.
  int64_t events_emitted = 0;
  int64_t events_read = 0;
  bool trace_strict_ok = true;
  int finished_jobs = 0;
  uint64_t trace_bytes = 0;
};

// Forwards to the trace sink and counts what was emitted, for the read-back check.
class CountingSink final : public ObserverSink {
 public:
  explicit CountingSink(ObserverSink* next) : next_(next) {}
  void OnEvent(const TraceEvent& event) override {
    ++count_;
    next_->OnEvent(event);
  }
  int64_t count() const { return count_; }

 private:
  ObserverSink* next_;
  int64_t count_ = 0;
};

// traced_stream's artifacts, as `jockey_cli run --trace-out --metrics-out
// --timeseries-out --json --episodes-out` opens them.
struct Artifacts {
  explicit Artifacts(const fs::path& dir)
      : trace_path(dir / "trace.jsonl"),
        trace(trace_path),
        sink(std::make_unique<AsyncJsonlSink>(trace)),
        counter(sink.get()) {
    if (!trace) {
      throw std::runtime_error("cannot write " + trace_path.string());
    }
  }
  // The sink's writer thread holds `trace`, and `counter` holds the sink.
  Artifacts(const Artifacts&) = delete;
  Artifacts& operator=(const Artifacts&) = delete;

  fs::path trace_path;
  std::ofstream trace;
  std::unique_ptr<AsyncJsonlSink> sink;
  CountingSink counter;
  MetricsRegistry metrics;
  TimeSeriesRecorder timeseries;
};

std::ofstream OpenOutput(const fs::path& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write " + path.string());
  }
  return out;
}

void CloseOutput(std::ofstream& out, const fs::path& path) {
  out.close();
  if (!out) {
    throw std::runtime_error("error writing " + path.string());
  }
}

JobCatalogOptions CatalogOptions(int threads, const std::string& cache_dir) {
  JobCatalogOptions options;
  options.threads = threads;
  options.cache_dir = cache_dir;
  return options;
}

ScenarioSpec ParseDoc(const Doc& doc) {
  ScenarioParseResult parsed = ParseScenarioText(doc.text);
  if (!parsed.spec.has_value()) {
    throw std::runtime_error(FormatScenarioIssue(doc.name, *parsed.issue));
  }
  return std::move(*parsed.spec);
}

bool HasFaultPlan(const CompiledScenario& compiled) {
  return std::any_of(compiled.episodes.begin(), compiled.episodes.end(),
                     [](const CompiledExperiment& episode) {
                       const auto& plan = episode.spec().options.fault_plan;
                       return plan != nullptr && !plan->empty();
                     });
}

void WriteOutputFiles(const ScenarioOutcome& outcome, const std::string& summary,
                      const fs::path& dir) {
  fs::path summary_path = dir / "summary.json";
  std::ofstream summary_out = OpenOutput(summary_path);
  summary_out << summary;
  CloseOutput(summary_out, summary_path);
  fs::path episodes_path = dir / "episodes.jsonl";
  std::ofstream episodes_out = OpenOutput(episodes_path);
  for (const EpisodeOutcome& episode : outcome.episodes) {
    episodes_out << WriteEpisodeJsonl(episode) << '\n';
  }
  CloseOutput(episodes_out, episodes_path);
}

// Flushes the trace, writes time series and metrics, then reads the trace back
// strictly and builds its postmortem — traced_stream's obs layer.
void FinishArtifacts(std::unique_ptr<Artifacts> artifacts, const fs::path& dir, Tracer* tracer,
                     DocRun& run) {
  {
    SpanScope span(tracer, "obs.sink.flush");
    artifacts->sink->Flush();
    artifacts->sink.reset();
    CloseOutput(artifacts->trace, artifacts->trace_path);
  }
  {
    SpanScope span(tracer, "obs.timeseries.write");
    fs::path path = dir / "timeseries.jsonl";
    std::ofstream out = OpenOutput(path);
    WriteTimeSeriesJsonl(out, artifacts->timeseries.Snapshot());
    CloseOutput(out, path);
  }
  {
    SpanScope span(tracer, "obs.metrics.write");
    fs::path path = dir / "metrics.json";
    std::ofstream out = OpenOutput(path);
    artifacts->metrics.WriteJson(out);
    CloseOutput(out, path);
  }
  run.events_emitted = artifacts->counter.count();
  run.trace_bytes = fs::file_size(artifacts->trace_path);
  TraceReadResult trace;
  {
    SpanScope span(tracer, "obs.readback");
    std::ifstream in(artifacts->trace_path);
    trace = ReadJsonlTrace(in, /*strict=*/true);
  }
  {
    SpanScope span(tracer, "obs.postmortem");
    PostmortemReport report = BuildPostmortem(trace.events);
    run.finished_jobs = static_cast<int>(std::count_if(
        report.jobs.begin(), report.jobs.end(), [](const JobPostmortem& j) { return j.finished; }));
    run.events_read = static_cast<int64_t>(trace.events.size());
    run.trace_strict_ok = !trace.first_issue.has_value() && trace.malformed_lines == 0;
    trace = TraceReadResult{};
  }
}

// One scenario run, parse through the last output. Throws on any API failure.
DocRun RunDocument(const Doc& doc, const RunContext& ctx, Tracer* tracer) {
  DocRun run;
  SpanScope root(tracer, "run");
  ScenarioSpec spec;
  {
    SpanScope span(tracer, "scenario.parse");
    spec = ParseDoc(doc);
  }
  std::optional<JobCatalog> own_catalog;
  JobCatalog* catalog = ctx.catalog;
  if (catalog == nullptr) {
    own_catalog.emplace(CatalogOptions(ctx.threads, ctx.cache_dir));
    catalog = &*own_catalog;
    for (const WorkloadEntrySpec& entry : spec.workload) {
      SpanScope span(tracer, "scenario.catalog.resolve");
      double cpu0 = CpuNow();
      double wall0 = WallNow();
      const CatalogJob& job = catalog->Resolve(entry.job);
      run.resolved.push_back(ResolvedJob{job.trained, CpuNow() - cpu0, WallNow() - wall0});
    }
  }
  std::unique_ptr<Artifacts> artifacts;
  ScenarioCompileOptions compile_options;
  if (ctx.workload == Workload::kTracedStream) {
    SpanScope span(tracer, "obs.open");
    artifacts = std::make_unique<Artifacts>(ctx.work_dir);
    compile_options.observer = Observer(&artifacts->counter, &artifacts->metrics);
    compile_options.timeseries = &artifacts->timeseries;
  }
  std::optional<CompiledScenario> compiled;
  {
    SpanScope span(tracer, "scenario.compile");
    compiled = CompileScenario(spec, *catalog, compile_options);
  }
  ScenarioOutcome outcome;
  {
    SpanScope span(tracer, HasFaultPlan(*compiled) ? "core.episode.faulted" : "core.episode");
    outcome = RunScenario(*compiled);
  }
  {
    SpanScope span(tracer, "scenario.output");
    std::ostringstream summary;
    WriteScenarioSummaryJson(summary, outcome);
    run.summary = summary.str();
    if (artifacts != nullptr) {
      WriteOutputFiles(outcome, run.summary, ctx.work_dir);
    }
  }
  if (artifacts != nullptr) {
    FinishArtifacts(std::move(artifacts), ctx.work_dir, tracer, run);
  }
  for (const EpisodeOutcome& episode : outcome.episodes) {
    ++run.episodes;
    if (episode.policy == PolicyKind::kJockey) {
      ++run.jockey_episodes;
      run.jockey_met += episode.result.met_deadline ? 1 : 0;
      run.over_oracle_sum += episode.result.frac_above_oracle;
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
// Set-up and the reference outputs.

// A document's reference output and the simulated tallies read from it. Every
// timed run of the document must reproduce the output byte for byte, so the
// tallies are the timed runs' own.
struct Reference {
  std::string summary;
  int jockey_episodes = 0;
  int jockey_met = 0;
  double over_oracle_sum = 0.0;
};

// Runs every document once with the table cache disabled, one build thread and
// observability detached, against one shared catalog (catalog sharing and
// observability change no output; the checks hold the timed runs to that).
std::vector<Reference> ComputeReferences(const std::vector<Doc>& docs) {
  JobCatalog catalog(CatalogOptions(1, ""));
  RunContext ref;
  ref.catalog = &catalog;
  std::vector<Reference> refs;
  for (const Doc& doc : docs) {
    DocRun run = RunDocument(doc, ref, nullptr);
    refs.push_back(
        Reference{run.summary, run.jockey_episodes, run.jockey_met, run.over_oracle_sum});
  }
  return refs;
}

// Trains every job the documents name into a new long-lived catalog.
std::unique_ptr<JobCatalog> TrainCatalog(const std::vector<Doc>& docs, int threads) {
  auto catalog = std::make_unique<JobCatalog>(CatalogOptions(threads, ""));
  for (const Doc& doc : docs) {
    for (const WorkloadEntrySpec& entry : ParseDoc(doc).workload) {
      catalog->Resolve(entry.job);
    }
  }
  return catalog;
}

// One cold pass over every document into `cache_dir`, which fills it.
void FillCache(const std::vector<Doc>& docs, const RunContext& ctx, const std::string& cache_dir) {
  RunContext fill = ctx;
  fill.cache_dir = cache_dir;
  for (const Doc& doc : docs) {
    RunDocument(doc, fill, nullptr);
  }
}

// ---------------------------------------------------------------------------
// Measuring.

// Traced-phase probes: second, timed calls of pure public functions on the
// trained job's own data, for layers no span or profiler scope reaches.
struct Probes {
  double resolve_cpu_s = 0.0;
  double resolve_wall_s = 0.0;
  int64_t simulated_runs = 0;
  int cache_lookups = 0;
  int cache_hits = 0;
  double cache_load_s = 0.0;
  double trace_fingerprint_s = 0.0;
  double table_key_s = 0.0;
  int64_t trace_events = 0;
  int64_t trace_bytes = 0;
};

// Returns false if the probe's cache key misses an entry the run itself loaded.
bool ProbeResolvedJob(const ResolvedJob& resolved, Probes& probes) {
  const TrainedJob& trained = *resolved.trained;
  const Jockey& jockey = *trained.jockey;
  const CompletionModelBuildStats& stats = jockey.table_build_stats();
  probes.resolve_cpu_s += resolved.cpu_seconds;
  probes.resolve_wall_s += resolved.wall_seconds;
  probes.simulated_runs += stats.simulated_runs;
  CompletionModelConfig config = jockey.config().model;
  if (config.cache_dir.empty()) {
    return true;
  }
  ++probes.cache_lookups;
  probes.cache_hits += stats.cache_hit ? 1 : 0;
  // Jockey::Build's training-trace fingerprint, then the table cache key.
  double t0 = WallNow();
  std::ostringstream trace_bytes;
  trained.training_trace.Save(trace_bytes);
  config.cache_extra_tag = HashString(trace_bytes.str());
  double t1 = WallNow();
  uint64_t key =
      CompletionTableCacheKey(jockey.graph(), jockey.profile(), jockey.indicator(), config);
  double t2 = WallNow();
  probes.trace_fingerprint_s += t1 - t0;
  probes.table_key_s += t2 - t1;
  if (!stats.cache_hit) {
    return true;
  }
  TableCache::LoadResult loaded = TableCache(config.cache_dir).Load(key);
  probes.cache_load_s += WallNow() - t2;
  return loaded.table.has_value();
}

struct Phase {
  std::vector<double> run_seconds;  // completed scenario runs
  int attempted = 0;
  int failed = 0;
  int64_t episodes = 0;
  std::vector<bool> doc_failed;  // by document index
  Probes probes;
};

std::string CheckRun(const DocRun& run, const Reference& ref, Workload workload) {
  if (run.summary != ref.summary) {
    return "summary JSON differs from the reference";
  }
  if (workload == Workload::kTracedStream) {
    if (!run.trace_strict_ok || run.events_read != run.events_emitted) {
      return "trace read back " + std::to_string(run.events_read) + " of " +
             std::to_string(run.events_emitted) + " events under strict parsing";
    }
    if (run.finished_jobs != run.episodes) {
      return "postmortem finished " + std::to_string(run.finished_jobs) + " jobs for " +
             std::to_string(run.episodes) + " episodes";
    }
  }
  return "";
}

// Whole passes until `seconds` have elapsed. `docs` holds `groups` equal groups
// of documents; pass k runs group k mod groups, in order.
void Measure(const std::vector<Doc>& docs, int groups, const std::vector<Reference>& refs,
             RunContext ctx, double seconds, Tracer* tracer, Phase& phase) {
  const size_t per_pass = docs.size() / static_cast<size_t>(groups);
  phase.doc_failed.assign(docs.size(), false);
  double start = WallNow();
  for (size_t pass = 0; pass == 0 || WallNow() - start < seconds; ++pass) {
    size_t first = (pass % static_cast<size_t>(groups)) * per_pass;
    for (size_t i = first; i < first + per_pass; ++i) {
      int run_id = phase.attempted++;
      fs::path cold_dir;
      if (ctx.workload == Workload::kCatalogCold) {
        cold_dir = ctx.work_dir / ("cold_" + std::to_string(run_id));
        fs::remove_all(cold_dir);
        ctx.cache_dir = cold_dir.string();
      }
      if (tracer != nullptr) {
        tracer->BeginRun(run_id);
      }
      std::string error;
      DocRun run;
      double t0 = WallNow();
      try {
        run = RunDocument(docs[i], ctx, tracer);
        phase.run_seconds.push_back(WallNow() - t0);
        error = CheckRun(run, refs[i], ctx.workload);
      } catch (const std::exception& e) {
        error = e.what();
      }
      if (error.empty() && tracer != nullptr) {
        for (const ResolvedJob& resolved : run.resolved) {
          if (!ProbeResolvedJob(resolved, phase.probes)) {
            error = "cache-load probe missed the run's own table";
          }
        }
        phase.probes.trace_events += run.events_emitted;
        phase.probes.trace_bytes += static_cast<int64_t>(run.trace_bytes);
      }
      if (error.empty()) {
        phase.episodes += run.episodes;
      } else {
        std::fprintf(stderr, "run %d (%s) failed: %s\n", run_id, docs[i].name.c_str(),
                     error.c_str());
        ++phase.failed;
        phase.doc_failed[i] = true;
      }
      if (!cold_dir.empty()) {
        fs::remove_all(cold_dir);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-layer split: spans joined with the profiler's call-path rows.

struct SpanTotals {
  double inclusive = 0.0;
  double self = 0.0;
  int count = 0;
};

std::map<std::string, SpanTotals> AggregateSpans(const std::vector<Span>& spans,
                                                 double* root_children_s) {
  std::vector<double> child_time(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, SpanTotals> totals;
  *root_children_s = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SpanTotals& t = totals[s.name];
    t.inclusive += s.end - s.start;
    t.self += s.end - s.start - child_time[i];
    ++t.count;
    if (s.parent >= 0 && spans[static_cast<size_t>(s.parent)].parent < 0) {
      *root_children_s += s.end - s.start;
    }
  }
  return totals;
}

struct ProfTotals {
  double seconds = 0.0;
  int64_t count = 0;
};

// Sums profiler rows whose call path satisfies `match`.
template <typename Match>
ProfTotals SumScopes(const std::vector<prof::ScopeStat>& rows, Match match) {
  ProfTotals t;
  for (const prof::ScopeStat& row : rows) {
    if (match(row.path)) {
      t.seconds += static_cast<double>(row.total_ns) * 1e-9;
      t.count += row.count;
    }
  }
  return t;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// The last component of a call path.
bool LeafIs(const std::string& path, const std::string& name) {
  return path == name || EndsWith(path, "/" + name);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> LayerMetrics(const Tracer& tracer, const std::vector<prof::ScopeStat>& rows,
                                 const Phase& traced, double untraced_p50) {
  double root_children = 0.0;
  std::map<std::string, SpanTotals> spans = AggregateSpans(tracer.spans(), &root_children);
  const double runs = std::max(1, static_cast<int>(traced.run_seconds.size()));
  auto incl = [&](const char* name) { return spans[name].inclusive / runs; };
  auto self = [&](const char* name) { return spans[name].self / runs; };
  auto per_run = [&](double v) { return v / runs; };
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  using Path = const std::string&;
  ProfTotals table_build = SumScopes(rows, [](Path p) { return LeafIs(p, "table_build"); });
  ProfTotals simulate = SumScopes(rows, [](Path p) { return EndsWith(p, "table_build/simulate"); });
  ProfTotals merge =
      SumScopes(rows, [](Path p) { return EndsWith(p, "table_build/merge_freeze"); });
  // Training runs dispatch outside any scope; episodes under RunScenario's.
  ProfTotals train_dispatch = SumScopes(rows, [](Path p) { return p == "sim_dispatch"; });
  ProfTotals episodes = SumScopes(rows, [](Path p) { return p == "scenario_episode"; });
  ProfTotals episode_dispatch =
      SumScopes(rows, [](Path p) { return p == "scenario_episode/sim_dispatch"; });
  ProfTotals tick = SumScopes(rows, [](Path p) { return LeafIs(p, "control_tick"); });
  ProfTotals predict = SumScopes(rows, [](Path p) {
    return LeafIs(p, "predict") && p.find("control_tick/") != std::string::npos;
  });
  const Probes& pr = traced.probes;
  double resolve = incl("scenario.catalog.resolve");
  double run_wall = incl("run");
  double episode = incl("core.episode") + incl("core.episode.faulted");

  return {
      {"run_wall_s", run_wall, "s"},
      {"scenario.parse_s", self("scenario.parse"), "s"},
      {"scenario.catalog.resolve_s", resolve, "s"},
      {"scenario.catalog.resolve_count", per_run(spans["scenario.catalog.resolve"].count), "count"},
      {"scenario.catalog.resolve.unscoped_s",
       resolve - per_run(table_build.seconds + train_dispatch.seconds), "s"},
      {"scenario.compile_s", self("scenario.compile"), "s"},
      {"sim.table_build_s", per_run(table_build.seconds), "s"},
      {"sim.table_build.simulate_s", per_run(simulate.seconds), "s"},
      {"sim.table_build.merge_freeze_s", per_run(merge.seconds), "s"},
      {"sim.table_build.runs", per_run(static_cast<double>(pr.simulated_runs)), "count"},
      {"sim.table_build.cpu_per_wall", ratio(pr.resolve_cpu_s, pr.resolve_wall_s), "ratio"},
      {"sim.cache.hit_frac", ratio(pr.cache_hits, pr.cache_lookups), "frac"},
      {"sim.cache.load_s", per_run(pr.cache_load_s), "s"},
      {"core.fingerprint.trace_s", per_run(pr.trace_fingerprint_s), "s"},
      {"core.fingerprint.table_key_s", per_run(pr.table_key_s), "s"},
      {"cluster.train.dispatch_s", per_run(train_dispatch.seconds), "s"},
      {"cluster.train.dispatch_count", per_run(static_cast<double>(train_dispatch.count)), "count"},
      {"core.episode_s", episode, "s"},
      {"core.episode_count", per_run(static_cast<double>(episodes.count)), "count"},
      {"core.episode.faulted_s", incl("core.episode.faulted"), "s"},
      {"cluster.episode.dispatch_s", per_run(episode_dispatch.seconds), "s"},
      {"cluster.episode.dispatch_count", per_run(static_cast<double>(episode_dispatch.count)),
       "count"},
      {"cluster.ns_per_dispatch",
       ratio(episode_dispatch.seconds * 1e9, static_cast<double>(episode_dispatch.count)), "ns"},
      {"core.control_tick_s", per_run(tick.seconds), "s"},
      {"core.control_tick_count", per_run(static_cast<double>(tick.count)), "count"},
      {"core.control_tick.predict_s", per_run(predict.seconds), "s"},
      {"obs.open_s", incl("obs.open"), "s"},
      {"obs.trace.events", per_run(static_cast<double>(pr.trace_events)), "count"},
      {"obs.trace.bytes", per_run(static_cast<double>(pr.trace_bytes)), "bytes"},
      {"obs.sink.flush_s", incl("obs.sink.flush"), "s"},
      {"obs.readback_s", incl("obs.readback"), "s"},
      {"obs.postmortem_s", incl("obs.postmortem"), "s"},
      {"obs.timeseries.write_s", incl("obs.timeseries.write"), "s"},
      {"obs.metrics.write_s", incl("obs.metrics.write"), "s"},
      {"scenario.output_s", incl("scenario.output"), "s"},
      {"unattributed_s", run_wall - per_run(root_children), "s"},
      {"trace_overhead_frac", ratio(Quantile(traced.run_seconds, 0.5), untraced_p50), "ratio"},
  };
}

// The simulated metrics cover every document's Jockey-policy episodes, read from
// the references; a document with any failed run counts all of them as misses.
std::vector<Metric> EndToEndMetrics(const Phase& phase, const std::vector<Reference>& refs,
                                    double setup_s) {
  double run_total = 0.0;
  for (double s : phase.run_seconds) {
    run_total += s;
  }
  int jockey = 0;
  int met = 0;
  double over_oracle = 0.0;
  for (size_t i = 0; i < refs.size(); ++i) {
    jockey += refs[i].jockey_episodes;
    met += phase.doc_failed[i] ? 0 : refs[i].jockey_met;
    over_oracle += refs[i].over_oracle_sum;
  }
  return {
      {"run_s.p50", Quantile(phase.run_seconds, 0.5), "s"},
      {"run_s.p90", Quantile(phase.run_seconds, 0.9), "s"},
      {"episodes_per_s", run_total > 0.0 ? static_cast<double>(phase.episodes) / run_total : 0.0,
       "1/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"slo_met_frac", jockey > 0 ? static_cast<double>(met) / jockey : 0.0, "frac"},
      {"over_oracle_frac", jockey > 0 ? over_oracle / jockey : 0.0, "frac"},
      {"run_ok_frac",
       static_cast<double>(phase.attempted - phase.failed) / static_cast<double>(phase.attempted),
       "frac"},
  };
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  double seconds = 0.0;
  bool trace = false;
  fs::path work_dir;
  fs::path spans_out;
  int groups = 1;
  int setup_groups = 1;
  std::vector<fs::path> docs;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seconds S --trace 0|1 "
               "--work-dir DIR [--spans-out FILE] [--groups N] [--setup-groups K] DOC...\n"
               "DOCs form N equal groups; pass k of the measuring loop runs group k mod N.\n"
               "Set-up runs the first K groups, which must name every job.\n");
  return 2;
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (a == "--work-dir" && has_value) {
      args.work_dir = argv[++i];
    } else if (a == "--spans-out" && has_value) {
      args.spans_out = argv[++i];
    } else if (a == "--groups" && has_value) {
      args.groups = std::stoi(argv[++i]);
    } else if (a == "--setup-groups" && has_value) {
      args.setup_groups = std::stoi(argv[++i]);
    } else if (a.rfind("--", 0) == 0) {
      return std::nullopt;
    } else {
      args.docs.emplace_back(a);
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || args.docs.empty() || args.seconds <= 0.0 ||
      args.groups < 1 || args.docs.size() % static_cast<size_t>(args.groups) != 0 ||
      args.setup_groups < 1 || args.setup_groups > args.groups) {
    return std::nullopt;
  }
  return args;
}

std::vector<Doc> ReadDocs(const std::vector<fs::path>& paths) {
  std::vector<Doc> docs;
  for (const fs::path& path : paths) {
    std::ifstream in(path);
    if (!in) {
      throw std::runtime_error("cannot read " + path.string());
    }
    std::ostringstream text;
    text << in.rdbuf();
    docs.push_back(Doc{path.stem().string(), text.str()});
  }
  return docs;
}

void PrintResult(const Args& args, int threads, const Phase& total,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  bool correct = total.failed == 0;
  os << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << total.attempted
     << ",\"failed\":" << total.failed << ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? "," : "") << JsonString(metrics[i].name) << ":{\"value\":" << Num(metrics[i].value)
       << ",\"unit\":" << JsonString(metrics[i].unit) << "}";
  }
  os << "},\"report\":{\"workload\":" << JsonString(args.workload)
     << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << JsonString(std::string("g++ ") + __VERSION__)
     << ",\"nproc\":" << OnlineCpus() << ",\"peak_rss_mb\":" << Num(PeakRssMb())
     << ",\"table_build_threads\":" << threads
     << ",\"scenario_runs\":" << total.run_seconds.size() << ",\"episodes\":" << total.episodes
     << "}}";
  std::printf("%s\n", os.str().c_str());
}

int Main(int argc, char** argv) {
  std::optional<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.has_value()) {
    return Usage();
  }
  const Args& args = *parsed;
  std::optional<Workload> workload = ParseWorkload(args.workload);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::vector<Doc> docs = ReadDocs(args.docs);
  fs::create_directories(args.work_dir);

  RunContext ctx;
  ctx.workload = *workload;
  ctx.threads = std::min(4, OnlineCpus());
  ctx.work_dir = args.work_dir;
  std::vector<Reference> refs = ComputeReferences(docs);
  // The first setup_groups groups name every job, so set-up over them trains them all.
  std::vector<Doc> setup_docs(
      docs.begin(), docs.begin() + static_cast<long>(docs.size() / static_cast<size_t>(args.groups) *
                                                     static_cast<size_t>(args.setup_groups)));

  // Set-up, repeated; the last repetition's state is the one measured against. The
  // previous catalog goes before the next trains, so only one is ever live.
  std::unique_ptr<JobCatalog> catalog;
  std::vector<double> setup_times;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    fs::path cache = args.work_dir / ("setup_cache_" + std::to_string(rep));
    fs::remove_all(cache);
    double t0 = WallNow();
    if (IsCatalogWorkload(ctx.workload)) {
      // A cold pass fills the cache catalog_warm loads from; catalog_cold uses it
      // as its warm-up and discards it.
      FillCache(setup_docs, ctx, cache.string());
    } else {
      catalog.reset();
      catalog = TrainCatalog(setup_docs, ctx.threads);
    }
    setup_times.push_back(WallNow() - t0);
    if (ctx.workload == Workload::kCatalogWarm && rep + 1 == kSetupRepeats) {
      ctx.cache_dir = cache.string();
    } else {
      fs::remove_all(cache);
    }
  }
  ctx.catalog = catalog.get();
  // The peak covers the measured runs only, not the references or set-up.
  ResetPeakRss();

  Phase untraced;
  Phase traced;
  Tracer tracer;
  std::vector<Metric> metrics;
  if (!args.trace) {
    Measure(docs, args.groups, refs, ctx, args.seconds, nullptr, untraced);
    metrics = EndToEndMetrics(untraced, refs, Median(setup_times));
  } else {
    // Untraced first, for the baseline p50 that trace_overhead_frac divides by.
    Measure(docs, args.groups, refs, ctx, args.seconds / 2.0, nullptr, untraced);
    prof::Reset();
    prof::SetEnabled(true);
    Measure(docs, args.groups, refs, ctx, args.seconds / 2.0, &tracer, traced);
    prof::SetEnabled(false);
    metrics = LayerMetrics(tracer, prof::Snapshot(), traced, Quantile(untraced.run_seconds, 0.5));
    if (!args.spans_out.empty()) {
      tracer.WriteJsonl(args.spans_out);
    }
  }
  if (!ctx.cache_dir.empty()) {
    fs::remove_all(ctx.cache_dir);
  }

  Phase total = untraced;
  total.attempted += traced.attempted;
  total.failed += traced.failed;
  total.episodes += traced.episodes;
  total.run_seconds.insert(total.run_seconds.end(), traced.run_seconds.begin(),
                           traced.run_seconds.end());
  PrintResult(args, ctx.threads, total, metrics);
  return total.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace jockey

int main(int argc, char** argv) {
  try {
    return jockey::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
