// perfbench: runs one workload of the repository benchmark and prints its
// result as the last line of standard output (see BENCHMARK.json).
//
//   perfbench --workload ingest_neural|serve_poisson
//             --seed N --seconds S --trace 0|1 [--git-sha SHA]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records benchmark
// spans and registry deltas and reports the per-layer metrics. Scratch
// files go to .bench_build/work under the current directory. A failed
// correctness check prints "correct": false and exits with status 1.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest_neural|serve_poisson --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA]\n",
               message);
  return 2;
}

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 18) {
    return false;
  }
  *out = std::stoull(text);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string git_sha = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number >= 1 && number <= 600) {
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  perfbench::RunResult (*run)(const perfbench::RunOptions&) = nullptr;
  if (options.workload == "ingest_neural") {
    run = perfbench::RunIngestNeural;
  } else if (options.workload == "serve_poisson") {
    run = perfbench::RunServePoisson;
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  options.cpus =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  options.work_dir = ".bench_build/work/" + options.workload + "-" +
                     std::to_string(options.seed) + "-" +
                     std::to_string(getpid());
  perfbench::RemoveTree(options.work_dir);
  std::filesystem::create_directories(options.work_dir);

  std::printf(
      "# run: {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %d, \"compiler\": %s, \"flags\": %s, "
      "\"git_sha\": %s}\n",
      perfbench::JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, options.cpus,
      perfbench::JsonString(std::string("g++ ") + __VERSION__).c_str(),
      perfbench::JsonString(PERFBENCH_FLAGS).c_str(),
      perfbench::JsonString(git_sha).c_str());
  std::fflush(stdout);

  perfbench::RunResult result = run(options);
  perfbench::RemoveTree(options.work_dir);

  for (const auto& [name, metric] : result.metrics) {
    result.Check(std::isfinite(metric.value),
                 "metric " + name + " is not a finite number");
  }
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& failure : result.check_failures) {
    std::printf("# CHECK FAILED: %s\n", failure.c_str());
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  const bool correct = result.check_failures.empty();
  std::printf("%s\n", perfbench::ResultJson(correct, result.attempted,
                                            result.failed, result.metrics)
                          .c_str());
  return correct ? 0 : 1;
}
