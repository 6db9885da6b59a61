// dataset_cold: core::build_dataset over the paper's 448 configurations
// into a fresh v2 store, CSV cache off, threads = nproc. Seed 0 submits
// in paper order (what `pulpclass dataset build` does); other seeds
// permute the submission order. The CSV is always digested in paper
// order, so every seed must produce the same bytes.
#include <algorithm>
#include <map>
#include <thread>

#include "bench.hpp"

namespace pcbench {

namespace {
namespace core = pulpc::core;

std::vector<core::SampleConfig> cold_configs(bool smoke) {
  std::vector<core::SampleConfig> all = core::dataset_configs();
  if (!smoke) return all;
  std::vector<core::SampleConfig> few;  // 14 configs, all at 512 bytes
  for (std::size_t i = 0; i < all.size(); i += 32) few.push_back(all[i]);
  return few;
}

/// Rows built in submission order, back in paper order.
pulpc::ml::Dataset paper_order(const pulpc::ml::Dataset& built,
                               const std::vector<std::size_t>& order) {
  std::vector<const pulpc::ml::Sample*> slot(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    slot[order[i]] = &built.samples()[i];
  }
  pulpc::ml::Dataset ds(built.columns());
  for (const pulpc::ml::Sample* s : slot) ds.add(*s);
  return ds;
}

struct Setup {
  std::string dir;
  std::vector<std::uint64_t> hashes;  ///< program hash per paper config
};

/// Set-up: a fresh v2 store, plus the program hash of every config (the
/// manifest the store is checked against after the build).
Setup set_up(const Args& args, const std::vector<core::SampleConfig>& configs) {
  Setup s;
  s.dir = fresh_dir(args, "cold-store");
  const core::ArtifactStore store(s.dir, core::BuildOptions{}.cluster,
                                  core::StoreFormat::v2);
  s.hashes.reserve(configs.size());
  for (const core::SampleConfig& cfg : configs) {
    s.hashes.push_back(core::program_hash(core::lower_sample(cfg)));
  }
  return s;
}

/// Every (config, core count) record must load from the store under the
/// program the config lowers to. Returns the configs with a bad record.
std::vector<bool> check_store(const std::string& dir,
                              const std::vector<core::SampleConfig>& configs,
                              const std::vector<std::uint64_t>& hashes,
                              unsigned max_cores, Outcome& out) {
  const core::ArtifactStore store(dir, core::BuildOptions{}.cluster,
                                  core::StoreFormat::v2);
  std::vector<bool> bad(configs.size(), false);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    for (unsigned c = 1; c <= max_cores; ++c) {
      pulpc::sim::RunStats stats;
      if (store.load(configs[i], c, hashes[i], &stats)) continue;
      if (!bad[i]) out.problem("store: no valid record for " + configs[i].kernel);
      bad[i] = true;
    }
  }
  return bad;
}

}  // namespace

Outcome run_dataset_cold(const Args& args) {
  Outcome out;
  const std::vector<core::SampleConfig> configs = cold_configs(args.smoke);
  const std::vector<std::size_t> order =
      submission_order(configs.size(), args.seed);
  std::vector<core::SampleConfig> submitted;
  for (std::size_t i : order) submitted.push_back(configs[i]);

  std::vector<double> setups;
  Setup setup;
  for (int k = 0; k < 9; ++k) {
    const Clock::time_point t0 = Clock::now();
    setup = set_up(args, configs);
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  // Per-sample wall and CPU time, from the progress callback: it runs on
  // the worker that just finished a sample (serialized by the library),
  // so the gap since that worker's previous callback is one sample.
  // Pool workers start with no CPU time; the calling thread joins in.
  struct Mark {
    double wall = 0;
    double cpu = 0;
  };
  std::map<std::thread::id, Mark> last{{std::this_thread::get_id(), {0, thread_cpu_s()}}};
  std::vector<double> sample_wall, sample_cpu;
  const core::BuildOptions opt = store_options(setup.dir, args.threads);
  const double steal0 = host_steal_s();
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  const pulpc::ml::Dataset built =
      core::build_dataset(submitted, opt, [&](std::size_t, std::size_t) {
        const Mark now{seconds_between(t0, Clock::now()), thread_cpu_s()};
        Mark& prev = last[std::this_thread::get_id()];
        sample_wall.push_back(now.wall - prev.wall);
        sample_cpu.push_back(now.cpu - prev.cpu);
        prev = now;
      });
  const double build_s = seconds_between(t0, Clock::now());
  const double cpu_s = process_cpu_s() - cpu0;
  const double steal_s = host_steal_s() - steal0;
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");

  // Checks, outside the timed window.
  std::string csv = csv_of(paper_order(built, order));
  out.info.push_back("csv_digest " + digest(csv));
  if (args.inject == "csv-row") corrupt_one_row(csv);
  const std::vector<bool> bad =
      check_store(setup.dir, configs, setup.hashes, opt.max_cores, out);
  const core::ArtifactStore replay_store(setup.dir, opt.cluster,
                                         core::StoreFormat::v2);
  const std::string replay = csv_of(core::relabel(replay_store, configs, opt));
  std::size_t mismatched = diff_rows(replay, csv, "relabel replay", out);

  if (args.trace) {
    const std::string dir = fresh_dir(args, "cold-store-traced");
    Tracer::get().enable(true);
    ComposeStats stats;
    const pulpc::ml::Dataset traced = compose_dataset(
        core::ArtifactStore(dir, opt.cluster, core::StoreFormat::v2),
        submitted, store_options(dir, args.threads), &stats);
    Tracer::get().enable(false);
    mismatched += diff_rows(csv, csv_of(paper_order(traced, order)),
                            "traced composition", out);

    const auto layers = Tracer::get().layers();
    const auto self = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.self_s;
    };
    emit_layer(out, layers, "dsl.lower", "dsl.lower");
    emit_layer(out, layers, "kir.verify", "kir.verify");
    emit_layer(out, layers, "energy.label", "energy.label");
    emit_layer(out, layers, "feat.featurize", "feat.featurize");
    emit_layer(out, layers, "core.store_append", "core.store_append");
    double sim_s = self("sim.load");
    std::size_t runs = 0;
    for (unsigned c = 1; c <= opt.max_cores; ++c) {
      const auto it = layers.find("sim.run.c" + std::to_string(c));
      if (it == layers.end()) continue;
      sim_s += it->second.self_s;
      runs += it->second.calls;
    }
    out.metric("sim.simulate_s", sim_s, "s");
    out.metric("sim.runs", double(runs), "count");
    for (unsigned c : {1U, 8U}) {
      const double busy = self(("sim.run.c" + std::to_string(c)).c_str());
      out.metric("sim.cycles_per_busy_s.c" + std::to_string(c),
                 busy > 0 ? double(stats.cycles_at[c]) / busy : 0, "1/s");
    }
    out.metric("sim.ff_share",
               stats.total_cycles > 0
                   ? double(stats.ff_cycles) / double(stats.total_cycles)
                   : 0,
               "ratio");
    // Longest serial simulate chain of one sample, and pool idleness.
    std::vector<double> chain(configs.size(), 0.0);
    double busy = 0;
    for (const SpanRec& s : Tracer::get().spans()) {
      const std::string_view name = s.name;
      if (name == "core.sample") busy += s.end - s.start;
      if ((name == "sim.load" || name.starts_with("sim.run.")) && s.req >= 0) {
        chain[std::size_t(s.req)] += s.end - s.start;
      }
    }
    const auto longest = std::max_element(chain.begin(), chain.end());
    const core::SampleConfig& critical =
        submitted[std::size_t(longest - chain.begin())];
    out.metric("sim.critical_path_s", *longest, "s");
    out.info.push_back("critical_path_sample " + critical.kernel + " " +
                       pulpc::kir::to_string(critical.dtype) + " " +
                       std::to_string(critical.size_bytes));
    out.metric("core.pool_idle_share",
               1.0 - busy / (stats.wall_s * double(args.threads)), "ratio");
    out.metric("trace.overhead_s", stats.wall_s - build_s, "s");
  }
  mismatched += std::size_t(std::count(bad.begin(), bad.end(), true));
  out.attempted = static_cast<long long>(configs.size());
  out.failed = static_cast<long long>(std::min(mismatched, configs.size()));

  out.metric("setup_s", median(setups), "s");
  out.metric("cpu_ms_per_op", cpu_s / double(configs.size()) * 1e3, "ms");
  out.metric("p50_ms", median(sample_wall) * 1e3, "ms");
  out.metric("p99_ms", percentile(sample_wall, 99) * 1e3, "ms");
  out.metric("sample_cpu_p50_ms", median(sample_cpu) * 1e3, "ms");
  out.metric("build_s", build_s, "s");
  out.metric("cpu_s", cpu_s, "s");
  out.metric("host.steal_s", steal_s, "s");
  return out;
}

}  // namespace pcbench
