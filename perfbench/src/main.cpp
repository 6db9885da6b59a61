// pcbench — the pulpclass benchmark binary. perfbench/run.py builds it
// and runs it as
//
//   pcbench --workload NAME --seed N --seconds S --trace 0|1
//           --work-dir DIR --metrics NAME=UNIT,... [--smoke]
//           [--inject wrong-reply|csv-row]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, where metrics are exactly the --metrics list
// (run.py passes BENCHMARK.json's end-to-end set untraced and its
// per-layer set traced). Earlier lines carry the machine stanza, the
// CSV digest, the workload's own named metrics and any failure detail.
// Exit status: 0 when every output check passed, 1 when one failed, 2
// when the run could not complete (no JSON line then).
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.hpp"

#ifndef PCBENCH_BUILD_TYPE
#define PCBENCH_BUILD_TYPE "unknown"
#endif

namespace pcbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pcbench: %s\nusage: pcbench --workload "
               "dataset_cold|relabel_cv|serve_hot|serve_churn --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --metrics "
               "NAME=UNIT,... [--smoke] [--inject wrong-reply|csv-row] "
               "[--git-sha SHA] [--src-digest HEX]\n",
               why);
  std::exit(2);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string machine_stanza(const std::string& git_sha,
                           const std::string& src_digest) {
  utsname u{};
  uname(&u);
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"compiler\":" + json_str(compiler) +
         ",\"build_type\":" + json_str(PCBENCH_BUILD_TYPE) +
         ",\"git_sha\":" + json_str(git_sha) +
         ",\"src_digest\":" + json_str(src_digest) +
         ",\"kernel\":" + json_str(u.release) + "}";
}

const Metric* find(const Outcome& out, const std::string& name) {
  for (const Metric& m : out.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace
}  // namespace pcbench

int main(int argc, char** argv) {
  using namespace pcbench;
  Args args;
  std::string git_sha = "none", src_digest = "none";
  std::vector<Metric> catalog;  ///< names and units of the JSON metrics
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = true;
    } else if (a == "--trace") {
      args.trace = value() == "1";
      have_trace = true;
    } else if (a == "--work-dir") {
      args.work_dir = value();
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--inject") {
      args.inject = value();
    } else if (a == "--metrics") {
      std::string list = value() + ",";
      for (std::size_t pos = 0, end; (end = list.find(',', pos)) != std::string::npos;
           pos = end + 1) {
        const std::string item = list.substr(pos, end - pos);
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) usage("--metrics takes NAME=UNIT,...");
        catalog.push_back({item.substr(0, eq), 0, item.substr(eq + 1)});
      }
    } else if (a == "--git-sha") {
      git_sha = value();
    } else if (a == "--src-digest") {
      src_digest = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || args.work_dir.empty() ||
      catalog.empty() || !(args.seconds > 0)) {
    usage("--seed, --seconds > 0, --trace, --work-dir and --metrics are "
          "required");
  }
  if (!args.inject.empty() && args.inject != "wrong-reply" &&
      args.inject != "csv-row") {
    usage("--inject takes wrong-reply or csv-row");
  }
  args.threads = unsigned(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));

  Outcome out;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "dataset_cold") {
      out = run_dataset_cold(args);
    } else if (args.workload == "relabel_cv") {
      out = run_relabel_cv(args);
    } else if (args.workload == "serve_hot") {
      out = run_serve(args, false);
    } else if (args.workload == "serve_churn") {
      out = run_serve(args, true);
    } else {
      usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 2;
  }
  if (args.trace) {
    const std::string path = args.work_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".tsv";
    Tracer::get().write(path);
    std::printf("spans %s\n", path.c_str());
  }

  std::printf("machine %s\n", machine_stanza(git_sha, src_digest).c_str());
  std::printf("workload %s seed %llu seconds %s trace %d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              number(args.seconds).c_str(), int(args.trace),
              args.smoke ? " smoke" : "");
  for (const std::string& line : out.info) std::printf("%s\n", line.c_str());
  for (const Metric& m : out.metrics) {
    std::printf("metric %s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  const double share = out.attempted > 0
                           ? double(out.failed) / double(out.attempted)
                           : 1.0;
  std::printf("metric fail_share %s ratio\n", number(share).c_str());
  for (const std::string& p : out.problems) {
    std::printf("failure %s\n", p.c_str());
  }

  const bool correct = out.failed == 0 && out.problems.empty() &&
                       out.attempted > 0;
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(std::max(1LL, out.attempted)) +
                     ",\"failed\":" + std::to_string(out.failed) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    // A metric the workload does not measure (a layer it never calls)
    // reads 0.
    const Metric* m = find(out, catalog[i].name);
    json += std::string(i == 0 ? "" : ",") + json_str(catalog[i].name) +
            ":{\"value\":" + number(m != nullptr ? m->value : 0) +
            ",\"unit\":" + json_str(catalog[i].unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
  return correct ? 0 : 1;
}
