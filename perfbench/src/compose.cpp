#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/parallel.hpp"
#include "kernels/registry.hpp"
#include "kir/verify.hpp"
#include "sim/cluster.hpp"

namespace pcbench {

namespace {
const char* const kRunSpan[] = {"sim.run.c0", "sim.run.c1", "sim.run.c2",
                                "sim.run.c3", "sim.run.c4", "sim.run.c5",
                                "sim.run.c6", "sim.run.c7", "sim.run.c8"};
}  // namespace

pulpc::ml::Dataset compose_dataset(
    const pulpc::core::ArtifactStore& store,
    const std::vector<pulpc::core::SampleConfig>& configs,
    const pulpc::core::BuildOptions& opt, ComposeStats* stats) {
  namespace core = pulpc::core;
  if (opt.max_cores > 8) throw std::invalid_argument("max_cores > 8");
  const Clock::time_point t0 = Clock::now();
  std::vector<pulpc::ml::Sample> rows(configs.size());
  std::vector<ComposeStats> per(configs.size());
  core::ThreadPool pool(opt.threads);
  pool.parallel_for(configs.size(), [&](std::size_t i) {
    const auto req = static_cast<std::int64_t>(i);
    const Span task("core.sample", req);
    const core::SampleConfig& cfg = configs[i];
    std::optional<pulpc::kir::Program> prog;
    {
      const Span s("dsl.lower", req);
      prog.emplace(core::lower_sample(cfg));
    }
    {
      const Span s("kir.verify", req);
      const pulpc::kir::VerifyReport vr = pulpc::kir::verify_program(*prog);
      if (!vr.ok()) throw std::runtime_error(vr.to_string());
      store.save_diag(cfg, vr.diags.empty() ? std::string{} : vr.to_string());
    }
    const std::uint64_t phash = core::program_hash(*prog);
    std::vector<pulpc::sim::RunStats> runs;
    std::optional<pulpc::sim::Cluster> cluster;
    for (unsigned c = 1; c <= opt.max_cores; ++c) {
      pulpc::sim::RunStats stored;
      bool hit = false;
      {
        const Span s("core.store_load", req);
        hit = store.load(cfg, c, phash, &stored);
      }
      if (hit) {
        runs.push_back(std::move(stored));
        continue;
      }
      if (!cluster) {
        const Span s("sim.load", req);
        cluster.emplace(opt.cluster, opt.sim);
        cluster->load(*prog);
      }
      pulpc::sim::RunResult run;
      {
        const Span s(kRunSpan[c], req);
        run = cluster->run(c);
      }
      if (!run.ok) throw std::runtime_error(cfg.kernel + ": " + run.error);
      {
        const Span s("core.store_append", req);
        store.save(cfg, c, phash, run.stats);
      }
      per[i].cycles_at[c] += run.stats.total_cycles;
      per[i].total_cycles += run.stats.total_cycles;
      per[i].ff_cycles += run.ff_cycles;
      runs.push_back(run.stats);
    }
    core::SampleLabel label;
    {
      const Span s("energy.label", req);
      label = core::label_sample(runs, opt.energy);
    }
    std::vector<double> features;
    {
      const Span s("feat.featurize", req);
      features = core::featurize_sample(*prog, runs, opt.mca);
    }
    const Span s("core.assemble", req);
    rows[i] = core::assemble_sample(
        cfg, pulpc::kernels::kernel_info(cfg.kernel).suite, label,
        std::move(features));
  });
  {
    const Span s("core.store_flush");
    store.flush();
  }
  pulpc::ml::Dataset ds(core::dataset_columns(opt.max_cores));
  for (pulpc::ml::Sample& row : rows) ds.add(std::move(row));
  if (stats != nullptr) {
    *stats = {};
    for (const ComposeStats& p : per) {
      for (unsigned c = 0; c <= 8; ++c) stats->cycles_at[c] += p.cycles_at[c];
      stats->total_cycles += p.total_cycles;
      stats->ff_cycles += p.ff_cycles;
    }
    stats->wall_s = seconds_between(t0, Clock::now());
  }
  return ds;
}

void emit_layer(Outcome& out, const std::map<std::string, LayerTotals>& layers,
                const char* span, const std::string& metric) {
  const auto it = layers.find(span);
  const LayerTotals t = it == layers.end() ? LayerTotals{} : it->second;
  out.metric(metric + "_s", t.self_s, "s");
  out.metric(metric + "_calls", double(t.calls), "count");
}

}  // namespace pcbench
