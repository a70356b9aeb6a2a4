// e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--work-dir <dir>] [--plan]
//
// Drives one workload through the serving path and prints a human-readable
// report followed, as the last line, by one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// --plan prints the workload's thread plan and exits.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using ssa::perfbench::Metric;
using ssa::perfbench::RunOptions;
using ssa::perfbench::RunResult;
using ssa::perfbench::Spec;

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] [--plan]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintJson(const RunResult& result,
               const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<long long>(result.ops.attempted()),
              static_cast<long long>(result.ops.failed()));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", first ? "" : ", ",
                JsonString(name).c_str(), m.value, JsonString(m.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir = ".bench_build/work";
  RunOptions opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  bool plan = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--plan") {
      plan = true;
      continue;
    }
    if (value == nullptr) return Usage(("missing value for " + arg).c_str());
    ++i;
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && opts.seconds >= 1 &&
                     opts.seconds <= 60;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      opts.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--work-dir") {
      work_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  const Spec* spec = ssa::perfbench::FindSpec(workload);
  if (spec == nullptr) return Usage("unknown or missing --workload");
  if (plan) {
    std::printf("%s %d %s\n", spec->name.c_str(), spec->RunnableThreads(),
                spec->ThreadPlan().c_str());
    return 0;
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (1..60) and --trace (0|1) are required");
  }

  namespace fs = std::filesystem;
  opts.work_dir = work_dir + "/" + spec->name + "-" + std::to_string(getpid());
  fs::remove_all(opts.work_dir);
  fs::create_directories(opts.work_dir);
  if (opts.trace) {
    fs::create_directories(work_dir + "/spans");
    opts.span_path = work_dir + "/spans/" + spec->name + "-seed" +
                     std::to_string(opts.seed) + ".json";
  }

  RunResult result;
  ssa::perfbench::RunWorkload(*spec, opts, &result);
  std::error_code ignored;
  fs::remove_all(opts.work_dir, ignored);

  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
  for (const std::string& why : result.failures) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  const auto& metrics = opts.trace ? result.per_layer : result.end_to_end;
  for (const auto& [name, m] : metrics) {
    std::printf("%-30s %14.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %lld  failed %lld\n",
              static_cast<long long>(result.ops.attempted()),
              static_cast<long long>(result.ops.failed()));
  PrintJson(result, metrics);
  return 0;
}
