#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <unordered_map>

#include "bench.hpp"
#include "core/artifacts.hpp"

namespace pcbench {

// ---- tracing -------------------------------------------------------------

namespace {
thread_local std::vector<std::uint64_t> t_open;  ///< open span ids
}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

double Tracer::now() const { return seconds_between(epoch_, Clock::now()); }

void Tracer::record(const SpanRec& rec) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(rec);
}

void Tracer::record_interval(const char* name, std::int64_t req, double start,
                             double end) {
  if (!on()) return;
  SpanRec rec;
  rec.name = name;
  rec.id = next_id();
  rec.parent = t_open.empty() ? 0 : t_open.back();
  rec.req = req;
  rec.start = start;
  rec.end = end;
  record(rec);
}

std::vector<SpanRec> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, LayerTotals> Tracer::layers() const {
  const std::vector<SpanRec> all = spans();
  std::unordered_map<std::uint64_t, double> child_time;
  for (const SpanRec& s : all) {
    if (s.parent != 0) child_time[s.parent] += s.end - s.start;
  }
  std::map<std::string, LayerTotals> out;
  for (const SpanRec& s : all) {
    LayerTotals& t = out[s.name];
    const double dur = s.end - s.start;
    const auto it = child_time.find(s.id);
    t.self_s += std::max(0.0, dur - (it == child_time.end() ? 0 : it->second));
    t.wall_s += dur;
    ++t.calls;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tparent\treq\tname\tstart_us\tend_us\n";
  char line[256];
  for (const SpanRec& s : spans()) {
    std::snprintf(line, sizeof line, "%llu\t%llu\t%lld\t%s\t%.3f\t%.3f\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<long long>(s.req), s.name, s.start * 1e6,
                  s.end * 1e6);
    out << line;
  }
}

Span::Span(const char* name, std::int64_t req) {
  Tracer& tr = Tracer::get();
  if (!tr.on()) return;
  live_ = true;
  rec_.name = name;
  rec_.id = tr.next_id();
  rec_.parent = t_open.empty() ? 0 : t_open.back();
  rec_.req = req;
  t_open.push_back(rec_.id);
  rec_.start = tr.now();
}

Span::~Span() {
  if (!live_) return;
  Tracer& tr = Tracer::get();
  rec_.end = tr.now();
  t_open.pop_back();
  tr.record(rec_);
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * double(v.size()));
  const std::size_t idx =
      std::min(v.size() - 1, std::size_t(std::max(1.0, rank)) - 1);
  return v[idx];
}

// ---- process probes --------------------------------------------------------

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  in >> cpu;
  for (unsigned long long& x : v) in >> x;
  if (!in || cpu != "cpu") return 0;
  return double(v[7]) / double(sysconf(_SC_CLK_TCK));
}

// ---- pipeline helpers ------------------------------------------------------

std::string fresh_dir(const Args& args, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(args.work_dir) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

pulpc::core::BuildOptions store_options(const std::string& store_dir,
                                        unsigned threads) {
  pulpc::core::BuildOptions opt;
  opt.threads = threads;
  opt.cache_path = std::string{};  // CSV cache off
  opt.artifact_dir = store_dir;
  opt.store_format = "v2";
  return opt;
}

std::string csv_of(const pulpc::ml::Dataset& ds) {
  std::ostringstream out;
  ds.save_csv(out);
  return out.str();
}

std::string digest(const std::string& bytes) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(pulpc::core::fnv1a64(bytes)));
  return hex;
}

namespace {
std::vector<std::string_view> split_lines(const std::string& text) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    lines.emplace_back(text.data() + pos, nl - pos);
    pos = nl + 1;
  }
  return lines;
}
}  // namespace

std::size_t diff_rows(const std::string& want, const std::string& got,
                      const char* what, Outcome& out) {
  const std::vector<std::string_view> a = split_lines(want);
  const std::vector<std::string_view> b = split_lines(got);
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i] && bad++ == 0) {
      out.problem(std::string(what) + ": line " + std::to_string(i + 1) +
                  " differs");
    }
  }
  if (a.size() != b.size()) {
    bad += std::max(a.size(), b.size()) - common;
    out.problem(std::string(what) + ": " + std::to_string(a.size()) +
                " vs " + std::to_string(b.size()) + " lines");
  }
  return bad;
}

void corrupt_one_row(std::string& csv) {
  // The first line is the schema comment, the second the header; alter a
  // digit in the first data row.
  std::size_t pos = 0;
  for (int line = 0; line < 2 && pos != std::string::npos; ++line) {
    pos = csv.find('\n', pos);
    if (pos != std::string::npos) ++pos;
  }
  const std::size_t digit = csv.find_first_of("0123456789", pos);
  if (digit != std::string::npos) {
    csv[digit] = csv[digit] == '9' ? '8' : char(csv[digit] + 1);
  }
}

std::vector<std::size_t> submission_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  if (seed != 0) {
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
  }
  return order;
}

}  // namespace pcbench
