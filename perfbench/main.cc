// perfbench: the repository benchmark. Runs one workload through the
// library's public API, checks its output, prints a human-readable report
// and, as its last line, one JSON object with the run's metrics: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// A failed output check exits non-zero and reports no numbers.
//
//   perfbench --workload <gclr_sync|serve_rpc> --seed <n>
//             --seconds <s> --trace <0|1> [--out_dir <dir>]
//             [--source_digest <hex>]
//
// perfbench/run.py builds this binary and is the documented entry point.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Flags {
  RunConfig config;
  std::string out_dir;
  std::string source_digest = "unknown";
};

bool ParseU64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* f, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      *error = "missing value for " + arg;
      return false;
    }
    ++i;
    uint64_t v = 0;
    if (arg == "--workload") {
      f->config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseU64(value, &v)) {
        *error = "bad --seed";
        return false;
      }
      f->config.seed = v;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      const double s = std::strtod(value, &end);
      if (*end != '\0' || !(s > 0.0) || s > 60.0) {
        *error = "--seconds must be in (0, 60]";
        return false;
      }
      f->config.seconds = s;
    } else if (arg == "--trace") {
      if (!ParseU64(value, &v) || v > 1) {
        *error = "--trace must be 0 or 1";
        return false;
      }
      f->config.trace = v == 1;
    } else if (arg == "--out_dir") {
      f->out_dir = value;
    } else if (arg == "--source_digest") {
      f->source_digest = value;
    } else {
      *error = "unknown flag " + arg;
      return false;
    }
  }
  if (!have_workload) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

std::string Provenance(const Flags& f) {
  std::ostringstream out;
  out << "{\"workload\": \"" << f.config.workload << "\", \"seed\": "
      << f.config.seed << ", \"seconds\": " << f.config.seconds
      << ", \"trace\": " << (f.config.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"git_revision\": \"" << PERFBENCH_GIT_REV
      << "\", \"source_digest\": \"" << f.source_digest << "\"}";
  return out.str();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetric(const Metric& m) {
  std::printf("  %-28s %s %s", m.name.c_str(), Num(m.value).c_str(),
              m.unit.c_str());
  if (m.samples != 0) {
    std::printf("  (n=%llu)", static_cast<unsigned long long>(m.samples));
  }
  if (m.derived) std::printf("  [derived]");
  std::printf("\n");
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Flags flags;
  flags.config.process_start_ns = NowNs();
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const RunConfig& cfg = flags.config;
  Outcome (*run)(const RunConfig&, Trace*) = nullptr;
  if (cfg.workload == "gclr_sync") {
    run = RunGclrSync;
  } else if (cfg.workload == "serve_rpc") {
    run = RunServeRpc;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 cfg.workload.c_str());
    return 2;
  }

  std::unique_ptr<Trace> trace;
  if (cfg.trace) trace = std::make_unique<Trace>();
  const Outcome out = run(cfg, trace.get());
  if (!out.ok()) {
    for (const std::string& why : out.check_failures) {
      std::fprintf(stderr, "perfbench: CHECK FAILED (%s): %s\n",
                   cfg.workload.c_str(), why.c_str());
    }
    return 1;
  }

  const std::string provenance = Provenance(flags);
  const std::vector<Metric>& reported =
      cfg.trace ? out.per_layer : out.end_to_end;
  std::printf("perfbench %s\n", provenance.c_str());
  std::printf("%s metrics (%s):\n", cfg.trace ? "per-layer" : "end-to-end",
              cfg.workload.c_str());
  for (const Metric& m : reported) PrintMetric(m);
  std::printf("also measured:\n");
  for (const Metric& m : out.info) PrintMetric(m);
  for (const std::string& note : out.notes) std::printf("note: %s\n", note.c_str());
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));

  if (!flags.out_dir.empty()) {
    const std::string stem = flags.out_dir + "/" + cfg.workload + "_seed" +
                             std::to_string(cfg.seed) + "_trace" +
                             (cfg.trace ? "1" : "0");
    if (trace != nullptr) {
      if (trace->WriteJson(stem + "_spans.json", provenance, out.per_layer)) {
        std::printf("spans and self times: %s_spans.json\n", stem.c_str());
      }
    }
    std::ofstream result(stem + ".json");
    result << "{\"run\": " << provenance << ", \"attempted\": " << out.attempted
           << ", \"failed\": " << out.failed
           << ", \"metrics\": " << MetricsJson(reported)
           << ", \"also_measured\": " << MetricsJson(out.info)
           << ", \"ops_ms_steps\": [";
    for (size_t i = 0; i < out.ops.size(); ++i) {
      result << (i == 0 ? "" : ", ") << "[" << Num(out.ops[i].first) << ", "
             << Num(out.ops[i].second) << "]";
    }
    result << "]}\n";
  }

  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              MetricsJson(reported).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
