// perfbench — the buscrypt benchmark binary.
//
//   perfbench --workload <ctx_storm|sealed_stream|update_lifetime>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Runs one workload for about --seconds seconds, checks every output, and
// prints a host line, a summary line and, last, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same work
// through the probes as well and reports the per-layer metrics.

#include "report.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

namespace {

using perfbench::outcome;
using perfbench::run_options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <ctx_storm|sealed_stream|"
               "update_lifetime> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

run_options parse(int argc, char** argv) {
  run_options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("every option takes a value");
    const char* key = argv[i];
    const char* val = argv[++i];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      opt.workload = val;
      have_workload = true;
    } else if (std::strcmp(key, "--seed") == 0) {
      opt.seed = std::strtoull(val, &end, 0);
    } else if (std::strcmp(key, "--seconds") == 0) {
      opt.seconds = std::strtod(val, &end);
      if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
    } else if (std::strcmp(key, "--trace") == 0) {
      opt.trace = std::strcmp(val, "1") == 0;
      if (!opt.trace && std::strcmp(val, "0") != 0) usage("--trace takes 0 or 1");
    } else if (std::strcmp(key, "--trace-dir") == 0) {
      opt.trace_dir = val;
    } else {
      usage("unknown option");
    }
    if (end != nullptr && *end != '\0') usage("malformed number");
  }
  if (!have_workload) usage("--workload is required");
  opt.threads = std::thread::hardware_concurrency();
  if (opt.threads == 0) opt.threads = 1;
  return opt;
}

void print_result(const outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", out.metrics[i].name.c_str(), out.metrics[i].value,
                  out.metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

} // namespace

int main(int argc, char** argv) {
  const run_options opt = parse(argc, argv);
  std::printf("host %s\n", perfbench::host_json(opt).c_str());
  std::fflush(stdout);

  outcome out;
  try {
    if (opt.workload == "ctx_storm") out = perfbench::run_ctx_storm(opt);
    else if (opt.workload == "sealed_stream") out = perfbench::run_sealed_stream(opt);
    else if (opt.workload == "update_lifetime") out = perfbench::run_update_lifetime(opt);
    else usage("unknown workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& f : out.failures)
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  if (opt.trace)
    std::printf("traced: most self time in layer %s; spans in %s\n", out.top_layer.c_str(),
                out.trace_file.empty() ? "(not written)" : out.trace_file.c_str());
  print_result(out);
  return 0;
}
