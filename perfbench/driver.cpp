// perfbench_driver: runs one benchmark workload and prints one JSON document
// of raw samples, checks and per-layer metrics on stdout.  perfbench/run.py
// builds this binary, runs it and turns the samples into the reported
// metrics; see perfbench/README.md.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-file <path>]
//   perfbench_driver --selftest
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n"
               "       perfbench_driver --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  pb::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      return pb::run_selftest() == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) {
      return usage();
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--trace-file") {
      args.trace_file = v;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') {
      return usage();
    }
  }
  const pb::Spec* spec = pb::find_spec(workload);
  if (spec == nullptr || !(args.seconds > 0.0)) {
    return usage();
  }
  smg::obs::JsonValue out;
  const int failed = pb::run_workload(*spec, args, out);
  std::printf("%s\n", smg::obs::json_write(out).c_str());
  return failed == 0 ? 0 : 1;
}
