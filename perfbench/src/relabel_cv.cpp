// relabel_cv: the researcher's loop over a warm store. Set-up cold-builds
// the 336 paper configurations at 512..8192 bytes into a fresh v2 store;
// the timed phase repeats relabel (under a seeded, perturbed Table I
// model) -> train -> the paper's 10-fold x 100 CV. Simulation does no
// work here: store reads, label, featurize and ml dominate.
#include <optional>
#include <random>

#include "bench.hpp"
#include "core/classifier.hpp"
#include "ml/cv.hpp"

namespace pcbench {

namespace {
namespace core = pulpc::core;

std::vector<core::SampleConfig> warm_configs(bool smoke) {
  std::vector<core::SampleConfig> out;
  for (const core::SampleConfig& cfg : core::dataset_configs()) {
    if (cfg.size_bytes <= (smoke ? 512U : 8192U)) out.push_back(cfg);
  }
  return out;
}

/// Table I with every coefficient the dataset's labels are most
/// sensitive to scaled by a seeded factor in [0.9, 1.1].
pulpc::energy::EnergyModel perturbed_model(std::uint64_t seed, int iter) {
  std::mt19937_64 rng(seed * 1000003ULL + std::uint64_t(iter));
  std::uniform_real_distribution<double> f(0.9, 1.1);
  pulpc::energy::EnergyModel m;
  for (double* c : {&m.pe_leakage, &m.pe_nop, &m.pe_alu, &m.pe_fp, &m.pe_l1,
                    &m.pe_l2, &m.l1_read, &m.l1_write, &m.l2_read,
                    &m.l2_write, &m.icache_use, &m.icache_leakage,
                    &m.dma_transfer, &m.other_leakage, &m.other_active}) {
    *c *= f(rng);
  }
  return m;
}

struct Iteration {
  double wall_s = 0;
  bool traced = false;
  std::string csv;  ///< the relabelled dataset, checked after the window
};

}  // namespace

Outcome run_relabel_cv(const Args& args) {
  Outcome out;
  const std::vector<core::SampleConfig> configs = warm_configs(args.smoke);

  std::vector<double> setups;
  std::string dir;
  std::string built_csv;
  for (int k = 0; k < 3; ++k) {
    const Clock::time_point t0 = Clock::now();
    dir = fresh_dir(args, "relabel-store");
    built_csv = csv_of(core::build_dataset(configs, store_options(dir, args.threads)));
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  out.info.push_back("csv_digest " + digest(built_csv));
  if (args.inject == "csv-row") corrupt_one_row(built_csv);

  pulpc::ml::EvalOptions eval;
  eval.folds = 10;
  eval.repeats = args.smoke ? 3 : 100;
  eval.threads = args.threads;

  // The timed loop. Traced runs alternate untraced and traced
  // iterations so the tracing overhead is measured on the same work.
  std::vector<Iteration> iters;
  std::vector<double> cpu_untraced;
  const double steal0 = host_steal_s();
  const Clock::time_point start = Clock::now();
  while (iters.size() < 3 ||
         seconds_between(start, Clock::now()) < args.seconds) {
    const int k = int(iters.size());
    core::BuildOptions opt = store_options(dir, args.threads);
    opt.energy = perturbed_model(args.seed, k);
    Iteration it;
    it.traced = args.trace && k % 2 == 1;
    Tracer::get().enable(it.traced);
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    pulpc::ml::Dataset ds;
    if (it.traced) {
      std::optional<core::ArtifactStore> store;
      {
        const Span s("core.store_open");
        store.emplace(dir, opt.cluster, core::StoreFormat::v2);
      }
      ds = compose_dataset(*store, configs, opt, nullptr);
    } else {
      const core::ArtifactStore store(dir, opt.cluster, core::StoreFormat::v2);
      ds = core::relabel(store, configs, opt);
    }
    core::EnergyClassifier clf;
    {
      const Span s("ml.fit");
      clf.train(ds);
    }
    {
      const Span s("ml.cv");
      const pulpc::ml::EvalResult res =
          pulpc::ml::evaluate(ds, clf.columns(), eval);
      if (res.accuracy.empty()) out.problem("cv returned no accuracy");
    }
    it.wall_s = seconds_between(t0, Clock::now());
    Tracer::get().enable(false);
    if (!it.traced) cpu_untraced.push_back(process_cpu_s() - cpu0);
    it.csv = csv_of(ds);
    iters.push_back(std::move(it));
  }
  const double steal_s = host_steal_s() - steal0;
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");

  // Checks, outside the timed window: the replay under Table I equals
  // the cold build byte for byte, and every iteration's relabel equals
  // the other path (library relabel vs stage composition) under the
  // same perturbed model.
  const core::ArtifactStore store(dir, core::BuildOptions{}.cluster,
                                  core::StoreFormat::v2);
  std::size_t failed = 0;
  const core::BuildOptions base = store_options(dir, args.threads);
  if (diff_rows(csv_of(core::relabel(store, configs, base)), built_csv,
                "relabel replay", out) != 0) {
    ++failed;
  }
  std::vector<double> untraced_walls, traced_walls;
  for (std::size_t k = 0; k < iters.size(); ++k) {
    core::BuildOptions opt = base;
    opt.energy = perturbed_model(args.seed, int(k));
    const std::string other =
        csv_of(iters[k].traced ? core::relabel(store, configs, opt)
                               : compose_dataset(store, configs, opt, nullptr));
    if (diff_rows(other, iters[k].csv, "relabel vs composition", out) != 0) {
      ++failed;
    }
    (iters[k].traced ? traced_walls : untraced_walls).push_back(iters[k].wall_s);
  }
  out.attempted = static_cast<long long>(iters.size() + 1);
  out.failed = static_cast<long long>(failed);

  const double iter_s = median(untraced_walls);
  out.metric("setup_s", median(setups), "s");
  out.metric("p50_ms", iter_s * 1e3, "ms");
  out.metric("p99_ms", percentile(untraced_walls, 99) * 1e3, "ms");
  out.metric("cpu_ms_per_op", median(cpu_untraced) * 1e3, "ms");
  out.metric("iter_s", iter_s, "s");
  out.metric("iterations", double(untraced_walls.size()), "count");
  out.metric("cpu_s", median(cpu_untraced), "s");
  out.metric("host.steal_s", steal_s, "s");

  if (args.trace) {
    // Per-iteration layer totals over the traced iterations.
    const auto layers = Tracer::get().layers();
    const double n = double(traced_walls.size());
    Outcome per;
    for (const auto& [span, metric] :
         std::vector<std::pair<const char*, const char*>>{
             {"core.store_open", "core.store_open"},
             {"core.store_load", "core.store_load"},
             {"dsl.lower", "dsl.lower"},
             {"kir.verify", "kir.verify"},
             {"energy.label", "energy.label"},
             {"feat.featurize", "feat.featurize"},
             {"ml.fit", "ml.fit"},
             {"ml.cv", "ml.cv"}}) {
      emit_layer(per, layers, span, metric);
    }
    for (Metric& m : per.metrics) out.metric(m.name, m.value / n, m.unit);
    out.metric("ml.cv_fits", double(eval.folds) * double(eval.repeats),
               "count");
    out.metric("trace.overhead_s", median(traced_walls) - iter_s, "s");
  }
  return out;
}

}  // namespace pcbench
