// serve_hot / serve_churn: open-loop v2 predict traffic over loopback TCP
// into an in-process serve::Server built with the `pulpclass serve`
// defaults. One client thread drives at most nproc connections; every
// request is timed from the moment it was due, so a stall also charges
// the requests queued behind it.
//
//  * serve_hot: uniform draws over the 448 paper specs, caches primed —
//    nearly every request is a cache hit.
//  * serve_churn: a seeded Zipf draw over ~16k specs (every kernel/dtype
//    x a size grid), more than the shard LRUs hold, plus a v2 `reload`
//    every 2 s alternating two models with different feature columns,
//    so each reload flushes the caches.
//
// Every reply is checked, after the timed window, against offline
// EnergyClassifier::predict under the model version the reply carries.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/classifier.hpp"
#include "core/parallel.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace pcbench {

namespace {
namespace core = pulpc::core;
namespace serve = pulpc::serve;

constexpr double kLatencyLimitMs = 25;  ///< p99 limit of the rate ladder
constexpr double kReloadEveryS = 2;     ///< serve_churn reload period

// ---- inputs ------------------------------------------------------------

std::vector<core::SampleConfig> hot_specs() { return core::dataset_configs(); }

/// Every paper kernel/dtype pair at 145 sizes, 512..32768 bytes.
std::vector<core::SampleConfig> churn_specs(bool smoke) {
  std::vector<core::SampleConfig> out;
  const std::uint32_t step = smoke ? 8064 : 224;
  for (const core::SampleConfig& cfg : core::dataset_configs()) {
    if (cfg.size_bytes != 512) continue;  // one entry per kernel/dtype
    for (std::uint32_t size = 512; size <= 32768; size += step) {
      out.push_back({cfg.kernel, cfg.dtype, size});
    }
  }
  return out;
}

std::vector<core::SampleConfig> training_configs(bool smoke) {
  std::vector<core::SampleConfig> out;
  const std::vector<core::SampleConfig> all = core::dataset_configs();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].size_bytes > 2048 || (smoke && i % 16 != 0)) continue;
    out.push_back(all[i]);
  }
  return out;
}

std::string predict_line(long long id, const core::SampleConfig& cfg) {
  return "{\"v\":2,\"id\":" + std::to_string(id) +
         ",\"cmd\":\"predict\",\"kernel\":\"" + cfg.kernel +
         "\",\"dtype\":\"" + pulpc::kir::to_string(cfg.dtype) +
         "\",\"bytes\":" + std::to_string(cfg.size_bytes) + "}\n";
}

std::string reload_line(long long id, const std::string& model) {
  return "{\"v\":2,\"id\":" + std::to_string(id) +
         ",\"cmd\":\"reload\",\"model\":\"" + serve::json_escape(model) +
         "\"}\n";
}

/// One scheduled request: a predict for spec `spec`, or a reload of
/// model `model` (spec < 0).
struct Item {
  double due = 0;  ///< seconds from the phase start
  int spec = -1;
  int model = -1;
};

/// Seeded open-loop schedule: Poisson arrivals at `rate`, specs drawn
/// uniformly (hot) or Zipf(1) over a seeded rank order (churn), and, when
/// `next_model` is given, a reload every kReloadEveryS alternating models
/// 1, 0, 1, ...
std::vector<Item> schedule(std::mt19937_64& rng, double rate,
                           double seconds, std::size_t nspecs, bool churn,
                           int* next_model) {
  std::vector<Item> items;
  std::exponential_distribution<double> gap(rate);
  std::discrete_distribution<int> zipf;
  std::vector<int> rank;
  if (churn) {
    std::vector<double> w(nspecs);
    for (std::size_t r = 0; r < nspecs; ++r) w[r] = 1.0 / double(r + 1);
    zipf = std::discrete_distribution<int>(w.begin(), w.end());
    rank.resize(nspecs);
    for (std::size_t i = 0; i < nspecs; ++i) rank[i] = int(i);
    std::shuffle(rank.begin(), rank.end(), rng);
  }
  std::uniform_int_distribution<int> uniform(0, int(nspecs) - 1);
  double next_reload = kReloadEveryS;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    while (next_model != nullptr && next_reload <= t) {
      items.push_back({next_reload, -1, *next_model});
      *next_model ^= 1;
      next_reload += kReloadEveryS;
    }
    items.push_back({t, churn ? rank[std::size_t(zipf(rng))] : uniform(rng), -1});
  }
  return items;
}

// ---- the load generator --------------------------------------------------

struct Rec {
  double done = -1;  ///< reply receipt, seconds from phase start; -1: none
  serve::WireReply reply;
};

/// Open-loop client: one thread, `conns` non-blocking connections,
/// requests sent round robin at their due times, replies matched by id.
class Client {
 public:
  Client(std::uint16_t port, unsigned conns) {
    ep_ = epoll_create1(0);
    for (unsigned i = 0; i < conns; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port);
      if (fd < 0 ||
          ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        if (fd >= 0) ::close(fd);
        close_all();
        throw std::runtime_error("client: cannot connect");
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      const int flags = fcntl(fd, F_GETFL, 0);
      fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = i;
      epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
      conns_.push_back({fd, {}, {}});
    }
  }
  ~Client() { close_all(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send lines[i] at due[i] (seconds from now); wait for every reply
  /// or until `drain_s` after the last due time. Reply ids must equal
  /// the line index.
  std::vector<Rec> run(const std::vector<std::string>& lines,
                       const std::vector<double>& due, double drain_s,
                       double* late_s) {
    std::vector<Rec> recs(lines.size());
    const Clock::time_point start = Clock::now();
    const auto now = [&] { return seconds_between(start, Clock::now()); };
    const double give_up = (due.empty() ? 0 : due.back()) + drain_s;
    std::size_t next = 0, outstanding = 0;
    std::vector<double> late;
    epoll_event evs[16];
    while (true) {
      double t = now();
      for (; next < lines.size() && due[next] <= t; ++next, ++outstanding) {
        Conn& c = conns_[next % conns_.size()];
        c.out += lines[next];
        flush(c);
        late.push_back(t - due[next]);
      }
      for (Conn& c : conns_) flush(c);
      if ((next == lines.size() && outstanding == 0) || t > give_up) break;
      const double wait =
          next < lines.size() ? due[next] - t : std::min(0.01, give_up - t);
      timespec ts{};
      ts.tv_nsec = long(std::clamp(wait, 0.0, 0.5) * 1e9);
      const int n = epoll_pwait2(ep_, evs, 16, &ts, nullptr);
      for (int e = 0; e < n; ++e) {
        Conn& c = conns_[evs[e].data.u32];
        char buf[16384];
        ssize_t got;
        while ((got = ::recv(c.fd, buf, sizeof buf, 0)) > 0) {
          c.in.append(buf, std::size_t(got));
        }
        t = now();
        std::size_t pos = 0, nl;
        while ((nl = c.in.find('\n', pos)) != std::string::npos) {
          serve::WireReply reply;
          const std::string_view line(c.in.data() + pos, nl - pos);
          pos = nl + 1;
          if (!serve::parse_reply(line, &reply).empty() || reply.id < 0 ||
              std::size_t(reply.id) >= recs.size() || recs[std::size_t(reply.id)].done >= 0) {
            continue;
          }
          Rec& r = recs[std::size_t(reply.id)];
          r.done = t;
          r.reply = std::move(reply);
          --outstanding;
        }
        c.in.erase(0, pos);
      }
    }
    *late_s = late.empty() ? 0 : percentile(late, 99);
    return recs;
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
  };
  void close_all() {
    for (Conn& c : conns_) ::close(c.fd);
    conns_.clear();
    if (ep_ >= 0) ::close(ep_);
    ep_ = -1;
  }
  static void flush(Conn& c) {
    while (!c.out.empty()) {
      const ssize_t n =
          ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n <= 0) return;
      c.out.erase(0, std::size_t(n));
    }
  }
  int ep_ = -1;
  std::vector<Conn> conns_;
};

// ---- the deployment -------------------------------------------------------

/// Server + sharded service + registry, as `pulpclass serve` builds them
/// with every knob at its default (only the port is ephemeral).
struct Deployment {
  std::unique_ptr<serve::ShardedService> svc;
  std::unique_ptr<serve::Server> server;
  std::uint16_t port = 0;
  std::string error;  ///< what escaped Server::run, if anything
  std::thread loop;

  explicit Deployment(const std::string& model_path) {
    serve::ServeOptions sopts;
    sopts.port = 0;
    sopts.model_path = model_path;
    const serve::ServeOptions::Resolved r = sopts.resolve();
    svc = std::make_unique<serve::ShardedService>(
        serve::ModelRegistry::from_file(model_path, r.use_flat),
        serve::sharded_options(r));
    server = std::make_unique<serve::Server>(*svc, sopts);
    port = server->start();
    loop = std::thread([this] {
      try {
        server->run();
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
  }
  ~Deployment() {
    server->request_stop();
    if (loop.joinable()) loop.join();
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
};

// ---- one phase of traffic -------------------------------------------------

struct Phase {
  std::vector<Item> items;
  std::vector<Rec> recs;
  double rate = 0;
  double late_s = 0;
  double epoch = 0;  ///< tracer time of the phase start
  double client_cpu_s = 0;
  double process_cpu_s = 0;
  [[nodiscard]] std::vector<double> latencies_ms() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].spec < 0) continue;
      const Rec& r = recs[i];
      // A failed or missing reply misses any latency limit.
      v.push_back(r.done >= 0 && r.reply.ok ? (r.done - items[i].due) * 1e3
                                            : 1e9);
    }
    return v;
  }
  [[nodiscard]] std::size_t predicts() const {
    std::size_t n = 0;
    for (const Item& it : items) n += it.spec >= 0;
    return n;
  }
  [[nodiscard]] std::size_t failures() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      n += items[i].spec >= 0 && !(recs[i].done >= 0 && recs[i].reply.ok);
    }
    return n;
  }
};

Phase drive(std::uint16_t port, unsigned conns, std::mt19937_64& rng,
            double rate, double seconds, std::size_t nspecs, bool churn,
            int* next_model, const std::vector<core::SampleConfig>& specs,
            const std::vector<std::string>& model_paths) {
  Phase p;
  p.rate = rate;
  p.items = schedule(rng, rate, seconds, nspecs, churn, next_model);
  std::vector<std::string> lines;
  std::vector<double> due;
  for (std::size_t i = 0; i < p.items.size(); ++i) {
    const Item& it = p.items[i];
    lines.push_back(it.spec >= 0
                        ? predict_line(long(i), specs[std::size_t(it.spec)])
                        : reload_line(long(i), model_paths[std::size_t(it.model)]));
    due.push_back(it.due);
  }
  Client client(port, conns);
  const double cpu0 = process_cpu_s();
  const double tcpu0 = thread_cpu_s();
  p.epoch = Tracer::get().now();
  p.recs = client.run(lines, due, 3.0, &p.late_s);
  p.client_cpu_s = thread_cpu_s() - tcpu0;
  p.process_cpu_s = process_cpu_s() - cpu0;
  return p;
}

}  // namespace

Outcome run_serve(const Args& args, bool churn) {
  Outcome out;
  const std::vector<core::SampleConfig> specs =
      churn ? churn_specs(args.smoke) : hot_specs();
  const unsigned conns = std::max(1U, std::min(4U, args.threads));
  const double nominal = churn ? 1500 : 3000;

  // Set-up, several times: build a small training store, train the two
  // models (different feature columns), start the server, and for
  // serve_hot prime the caches with every spec. The last one serves.
  std::vector<std::string> model_paths;
  std::unique_ptr<Deployment> dep;
  std::vector<double> setups;
  for (int k = 0; k < 3; ++k) {
    dep.reset();
    const Clock::time_point t0 = Clock::now();
    const std::string dir = fresh_dir(args, "serve-train");
    const pulpc::ml::Dataset ds = core::build_dataset(
        training_configs(args.smoke), store_options(dir, args.threads));
    model_paths.clear();
    for (const pulpc::feat::FeatureSet set :
         {pulpc::feat::FeatureSet::AllStatic, pulpc::feat::FeatureSet::RawAgg}) {
      core::EnergyClassifier::Options o;
      o.features = set;
      core::EnergyClassifier clf(o);
      clf.train(ds);
      model_paths.push_back(
          (std::filesystem::absolute(dir) /
           ("model-" + std::to_string(model_paths.size()) + ".txt"))
              .string());
      clf.save_file(model_paths.back());
    }
    dep = std::make_unique<Deployment>(model_paths[0]);
    // Prime with every spec in flight at once, so set-up time is bound by
    // featurization CPU rather than by one batcher round trip per spec.
    std::vector<std::future<serve::Result>> warm;
    for (std::size_t i = 0; !churn && i < specs.size(); ++i) {
      warm.push_back(dep->svc->submit(
          {specs[i].kernel, specs[i].dtype, specs[i].size_bytes, false, nullptr}));
    }
    for (std::future<serve::Result>& f : warm) {
      if (!f.get().ok) out.problem("priming failed");
    }
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  // Timed: the nominal rate for half the run (all of it when traced:
  // traced runs skip the ladder), then six ladder steps of 8% of the run
  // each, stopping at the first step that misses the limits.
  out.metric("setup_peak_rss_mb", peak_rss_mb(), "MB");
  std::mt19937_64 rng(args.seed * 0x9e3779b97f4a7c15ULL + (churn ? 2 : 1));
  int next_model = 1;
  int* reloads = churn ? &next_model : nullptr;
  const double steal0 = host_steal_s();
  const serve::Metrics::Snapshot m0 = dep->svc->metrics();
  Phase nom = drive(dep->port, conns, rng, nominal,
                    args.trace ? args.seconds : 0.5 * args.seconds,
                    specs.size(), churn, reloads, specs, model_paths);
  const serve::Metrics::Snapshot m1 = dep->svc->metrics();
  // Peak memory of set-up and the nominal phase; the ladder's overload
  // steps queue requests and would make it depend on how far they got.
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  std::vector<Phase> ladder;
  double max_ok_rps = 0;
  if (!args.trace) {
    const std::vector<double> steps =
        churn ? std::vector<double>{1.5, 2, 3, 4, 5, 6}
              : std::vector<double>{2, 4, 6, 8, 10, 12};
    for (const double mult : steps) {
      ladder.push_back(drive(dep->port, conns, rng, nominal * mult,
                             0.08 * args.seconds, specs.size(), churn,
                             nullptr, specs, model_paths));
      const Phase& p = ladder.back();
      const std::vector<double> lat = p.latencies_ms();
      const std::size_t q = lat.size() / 4;
      const bool growing =
          q > 0 && median({lat.end() - long(q), lat.end()}) >
                       2 * median({lat.begin(), lat.begin() + long(q)}) + 1;
      const bool ok = percentile(lat, 99) <= kLatencyLimitMs &&
                      double(p.failures()) <= 0.001 * double(p.predicts()) &&
                      !growing;
      if (!ok) break;
      max_ok_rps = p.rate;
    }
  }
  const double steal_s = host_steal_s() - steal0;
  dep->server->request_stop();
  dep->loop.join();
  if (!dep->error.empty()) out.problem("server: " + dep->error);

  // Checks, outside the timed window: map each model version to its
  // file (v1 = model 0, then one version per successful reload; ladder
  // steps send no reloads), then compare every predict reply with offline
  // EnergyClassifier::predict.
  std::map<std::uint64_t, int> version_model{{1, 0}};
  std::vector<double> reload_ms;
  std::size_t shed = 0;
  for (std::size_t i = 0; i < nom.items.size(); ++i) {
    if (nom.items[i].spec >= 0) continue;
    const Rec& r = nom.recs[i];
    if (r.done < 0 || !r.reply.ok) {
      out.problem("reload failed: " + r.reply.error);
      ++out.failed;
      continue;
    }
    version_model[r.reply.model_version] = nom.items[i].model;
    reload_ms.push_back((r.done - nom.items[i].due) * 1e3);
  }

  std::vector<core::EnergyClassifier> models;
  for (const std::string& path : model_paths) {
    models.push_back(core::EnergyClassifier::load_file(path));
  }
  // expected[spec * 2 + model]; -1 = not needed.
  std::vector<int> expected(specs.size() * 2, -1);
  const auto need = [&](const Phase& p) {
    for (std::size_t i = 0; i < p.items.size(); ++i) {
      const Rec& r = p.recs[i];
      if (p.items[i].spec < 0 || r.done < 0 || !r.reply.ok) continue;
      const auto it = version_model.find(r.reply.model_version);
      if (it != version_model.end()) {
        expected[std::size_t(p.items[i].spec) * 2 + std::size_t(it->second)] = 0;
      }
    }
  };
  need(nom);
  for (const Phase& p : ladder) need(p);
  std::vector<double> feature_row_us(specs.size(), -1);
  {
    core::ThreadPool pool(args.threads);
    pool.parallel_for(specs.size(), [&](std::size_t s) {
      if (expected[s * 2] < 0 && expected[s * 2 + 1] < 0) return;
      const pulpc::kir::Program prog = core::lower_sample(specs[s]);
      for (std::size_t m = 0; m < 2; ++m) {
        if (expected[s * 2 + m] < 0) continue;
        expected[s * 2 + m] = models[m].predict(prog);
      }
      const Clock::time_point t0 = Clock::now();
      (void)models[0].feature_row(prog);
      feature_row_us[s] = seconds_between(t0, Clock::now()) * 1e6;
    });
  }
  bool injected = args.inject != "wrong-reply";
  const auto check = [&](Phase& p, bool counted) {
    for (std::size_t i = 0; i < p.items.size(); ++i) {
      if (p.items[i].spec < 0) continue;
      Rec& r = p.recs[i];
      if (counted) ++out.attempted;
      if (counted && r.done >= 0 &&
          r.reply.error_code == serve::kErrorCodeOverloaded) {
        ++shed;
      }
      if (r.done < 0 || !r.reply.ok) {
        if (counted) {
          ++out.failed;
          out.problem("request failed: " +
                      (r.done < 0 ? std::string("no reply") : r.reply.error));
        }
        continue;
      }
      if (!injected) {
        r.reply.cores = r.reply.cores % 8 + 1;  // a wrong answer
        injected = true;
      }
      const auto it = version_model.find(r.reply.model_version);
      const int want =
          it == version_model.end()
              ? -1
              : expected[std::size_t(p.items[i].spec) * 2 + std::size_t(it->second)];
      if (r.reply.cores != want) {
        ++out.failed;
        out.problem("reply " + std::to_string(i) + ": cores " +
                    std::to_string(r.reply.cores) + ", offline " +
                    std::to_string(want));
      }
    }
  };
  check(nom, true);
  for (Phase& p : ladder) check(p, false);

  const std::vector<double> lat = nom.latencies_ms();
  const double p50 = percentile(lat, 50);
  const double server_cpu_s = nom.process_cpu_s - nom.client_cpu_s;
  const double reqs = double(nom.predicts());
  out.metric("setup_s", median(setups), "s");
  out.metric("p50_ms", p50, "ms");
  out.metric("p99_ms", percentile(lat, 99), "ms");
  out.metric("cpu_ms_per_op", server_cpu_s / reqs * 1e3, "ms");
  out.metric("cpu_us_per_req", server_cpu_s / reqs * 1e6, "us");
  out.metric("requests", reqs, "count");
  if (!args.trace) out.metric("max_ok_rps", max_ok_rps, "rps");

  // Layer metrics of the serving path.
  const double served = double(m1.ok - m0.ok + m1.errors - m0.errors);
  const double batches = double(m1.batches - m0.batches);
  out.metric("serve.mean_batch", batches > 0 ? served / batches : 0,
             "req/batch");
  const double hits = double(m1.cache_hits - m0.cache_hits);
  const double lookups = hits + double(m1.cache_misses - m0.cache_misses);
  out.metric("serve.cache_hit_share", lookups > 0 ? hits / lookups : 0,
             "ratio");
  out.metric("serve.shed", double(shed), "count");
  out.metric("serve.reload_ms", median(reload_ms), "ms");
  std::vector<double> frow;
  for (double us : feature_row_us) {
    if (us >= 0) frow.push_back(us);
  }
  out.metric("feat.feature_row_us", median(frow), "us");
  out.metric("gen.late_ms", nom.late_s * 1e3, "ms");
  out.metric("host.steal_s", steal_s, "s");

  if (args.trace) {
    // Offline replays of the nominal stream, each call inside a span:
    // wire parse and format per line, the in-process service without
    // TCP, and the flat tree walk. The in-process replay runs twice,
    // untraced then traced, for the tracing overhead.
    Tracer& tr = Tracer::get();
    std::vector<std::string> lines;
    std::vector<serve::Result> results;
    for (std::size_t i = 0; i < nom.items.size(); ++i) {
      if (nom.items[i].spec < 0 || nom.recs[i].done < 0) continue;
      lines.push_back(predict_line(long(i), specs[std::size_t(nom.items[i].spec)]));
      const serve::WireReply& w = nom.recs[i].reply;
      serve::Result res;
      res.ok = w.ok;
      res.cores = w.cores;
      res.cached = w.cached;
      res.model_version = w.model_version;
      res.micros = w.micros;
      res.error = w.error;
      results.push_back(res);
    }
    tr.enable(true);
    {
      const Span s("serve.parse");
      serve::WireRequest req;
      for (const std::string& line : lines) {
        if (!serve::parse_request(line, &req).empty()) out.problem("parse");
      }
    }
    std::size_t bytes = 0;
    {
      const Span s("serve.format");
      for (std::size_t i = 0; i < results.size(); ++i) {
        bytes += serve::format_reply_v2(long(i), results[i]).size();
      }
    }
    tr.enable(false);
    const std::size_t n_inproc = std::min<std::size_t>(lines.size(), args.smoke ? 50 : 1500);
    // Pass 0 warms the caches the stream touches, so passes 1 (untraced)
    // and 2 (traced) see the same hits.
    std::vector<double> inproc_wall(3, 0), inproc_us;
    for (int pass = 0; pass < 3; ++pass) {
      tr.enable(pass == 2);
      const Clock::time_point t0 = Clock::now();
      std::size_t k = 0;
      for (std::size_t i = 0; i < nom.items.size() && k < n_inproc; ++i) {
        if (nom.items[i].spec < 0 || nom.recs[i].done < 0) continue;
        const core::SampleConfig& cfg = specs[std::size_t(nom.items[i].spec)];
        const double a = tr.now();
        const Clock::time_point c0 = Clock::now();
        const serve::Result r =
            dep->svc->predict({cfg.kernel, cfg.dtype, cfg.size_bytes, false, nullptr});
        if (pass == 1) inproc_us.push_back(seconds_between(c0, Clock::now()) * 1e6);
        tr.record_interval("serve.inproc", long(k), a, tr.now());
        if (!r.ok) out.problem("in-process predict failed: " + r.error);
        ++k;
      }
      inproc_wall[std::size_t(pass)] = seconds_between(t0, Clock::now());
    }
    // Flat tree walk over the feature rows of (up to) 448 specs.
    pulpc::ml::Matrix x;
    x.cols = models[0].columns().size();
    for (std::size_t s = 0; s < specs.size() && x.rows < 448; ++s) {
      const std::vector<double> row = models[0].feature_row(core::lower_sample(specs[s]));
      x.data.insert(x.data.end(), row.begin(), row.end());
      ++x.rows;
    }
    const int reps = args.smoke ? 5 : 200;
    {
      const Span s("ml.predict_rows");
      for (int r = 0; r < reps; ++r) (void)models[0].predict_rows(x);
    }
    tr.enable(false);
    const auto layers = tr.layers();
    const auto wall = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.wall_s;
    };
    out.metric("serve.parse_ns", wall("serve.parse") / double(lines.size()) * 1e9, "ns");
    out.metric("serve.format_ns",
               wall("serve.format") / double(results.size()) * 1e9, "ns");
    const double inproc_p50 = median(inproc_us);
    out.metric("serve.inproc_p50_us", inproc_p50, "us");
    out.metric("serve.wire_overhead_us", p50 * 1e3 - inproc_p50, "us");
    out.metric("ml.predict_row_ns",
               wall("ml.predict_rows") / double(reps * x.rows) * 1e9, "ns");
    out.metric("trace.overhead_s", inproc_wall[2] - inproc_wall[1], "s");
    if (bytes == 0) out.problem("format produced nothing");
    // The wire requests themselves, as spans from their due time.
    tr.enable(true);
    for (std::size_t i = 0; i < nom.items.size(); ++i) {
      if (nom.items[i].spec < 0 || nom.recs[i].done < 0) continue;
      tr.record_interval("serve.wire", long(i), nom.epoch + nom.items[i].due,
                         nom.epoch + nom.recs[i].done);
    }
    tr.enable(false);
  }
  return out;
}

}  // namespace pcbench
