// Shared plumbing of the pulpclass benchmark (perfbench): run arguments,
// the per-run outcome, an in-memory span tracer, statistics and process
// probes. Every workload lives in its own translation unit and only
// calls the public pulpclass API; spans are recorded here, around those
// calls, never inside the program.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/artifacts.hpp"
#include "core/pipeline.hpp"
#include "ml/dataset.hpp"

namespace pcbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;        ///< tiny inputs (the benchmark's own tests)
  std::string inject;        ///< "", "wrong-reply" or "csv-row"
  std::string work_dir;      ///< scratch directory inside the checkout
  unsigned threads = 1;      ///< nproc: build/CV threads and client cap
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run produced. Every metric is printed as text; the final
/// JSON line carries the catalog's end-to-end set untraced and its
/// per-layer set traced.
struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> info;      ///< extra "key value" output lines
  std::vector<std::string> problems;  ///< one line per detected failure

  void problem(const std::string& what) {
    if (problems.size() < 20) problems.push_back(what);
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// ---- tracing -------------------------------------------------------------

/// One finished span. `name` points at a string literal.
struct SpanRec {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root span
  std::int64_t req = -1;     ///< request / sample id, -1 when none
  double start = 0;          ///< seconds since the tracer epoch
  double end = 0;
};

/// Per-layer totals derived from spans.
struct LayerTotals {
  double self_s = 0;  ///< span time not covered by child spans
  double wall_s = 0;  ///< summed span durations
  std::size_t calls = 0;
};

/// Process-wide span recorder. Off by default: Span then costs one
/// relaxed atomic load. Spans are kept in memory and written out once,
/// when the run ends.
class Tracer {
 public:
  static Tracer& get();
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t next_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double now() const;
  void record(const SpanRec& rec);
  /// Record a span whose interval was measured by the caller.
  void record_interval(const char* name, std::int64_t req, double start,
                       double end);
  [[nodiscard]] std::vector<SpanRec> spans() const;
  /// Self time, summed duration and call count per span name.
  [[nodiscard]] std::map<std::string, LayerTotals> layers() const;
  /// Tab-separated dump: id parent req name start_us end_us.
  void write(const std::string& path) const;

 private:
  Tracer();
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> ids_{1};
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
};

/// RAII span around one call into a layer. Nests per thread: the parent
/// is the innermost open span of the constructing thread.
class Span {
 public:
  explicit Span(const char* name, std::int64_t req = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRec rec_;
  bool live_ = false;
};

// ---- statistics ------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);

// ---- process probes --------------------------------------------------------

/// User + system CPU seconds of the whole process.
[[nodiscard]] double process_cpu_s();
/// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_s();
/// Peak resident set size of the process, MB.
[[nodiscard]] double peak_rss_mb();
/// Host-wide steal time so far (all CPUs, /proc/stat), seconds.
[[nodiscard]] double host_steal_s();

// ---- pipeline helpers ------------------------------------------------------

/// Remove and recreate `<work_dir>/<name>`; returns its path.
[[nodiscard]] std::string fresh_dir(const Args& args, const std::string& name);
/// Build options for a fresh v2 store with the CSV cache off.
[[nodiscard]] pulpc::core::BuildOptions store_options(
    const std::string& store_dir, unsigned threads);
[[nodiscard]] std::string csv_of(const pulpc::ml::Dataset& ds);
/// 16 hex digits of FNV-1a 64 over the bytes.
[[nodiscard]] std::string digest(const std::string& bytes);
/// Compare two CSV texts line by line; returns the number of differing
/// data rows (a length mismatch counts the missing rows) and notes the
/// first difference.
std::size_t diff_rows(const std::string& want, const std::string& got,
                      const char* what, Outcome& out);
/// Alter one data row of a CSV text (the injected-fault self test).
void corrupt_one_row(std::string& csv);
/// A seeded permutation of [0, n); seed 0 is the identity.
[[nodiscard]] std::vector<std::size_t> submission_order(std::size_t n,
                                                        std::uint64_t seed);

/// Totals of one compose_dataset call that spans cannot carry.
struct ComposeStats {
  std::uint64_t cycles_at[9] = {};  ///< simulated cycles per core count
  std::uint64_t total_cycles = 0;
  std::uint64_t ff_cycles = 0;
  double wall_s = 0;
};

/// The pipeline stages of core::build_dataset / core::relabel composed
/// one public call at a time (lower, verify, store load, simulate, store
/// append, label, featurize, assemble), each call inside a span. Rows
/// land in `configs` order, so the CSV must equal the library's.
[[nodiscard]] pulpc::ml::Dataset compose_dataset(
    const pulpc::core::ArtifactStore& store,
    const std::vector<pulpc::core::SampleConfig>& configs,
    const pulpc::core::BuildOptions& opt, ComposeStats* stats);

/// Emit `<metric>_s` (summed self time) and `<metric>_calls` for one
/// span name; absent spans emit zeros.
void emit_layer(Outcome& out,
                const std::map<std::string, LayerTotals>& layers,
                const char* span, const std::string& metric);

// ---- workloads -------------------------------------------------------------

Outcome run_dataset_cold(const Args& args);
Outcome run_relabel_cv(const Args& args);
Outcome run_serve(const Args& args, bool churn);

}  // namespace pcbench
