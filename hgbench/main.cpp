//===- main.cpp - hgbench: one run of one workload -------------------------===//
//
//   hgbench --workload W --seed N --seconds S --trace 0|1
//           --hglift EXE --expected FILE --work-root DIR [--small]
//
// Prints the run's metrics, one per line, then one JSON line with every
// metric measured; hgbench/run.py builds this program and hglift, runs it,
// and keeps the metrics BENCHMARK.json names for the mode. Exits non-zero,
// without the JSON line, when the run could not be carried out.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace hgbench;

int main(int argc, char **argv) {
  Args A;
  for (int I = 1; I < argc; ++I) {
    std::string K = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    if (K == "--small") {
      A.Small = true;
      continue;
    }
    if (!V) {
      std::fprintf(stderr, "missing value for %s\n", K.c_str());
      return 2;
    }
    ++I;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V);
    else if (K == "--trace")
      A.Trace = std::atoi(V) != 0;
    else if (K == "--hglift")
      A.HgliftExe = V;
    else if (K == "--expected")
      A.ExpectedPath = V;
    else if (K == "--work-root")
      A.WorkRoot = V;
    else {
      std::fprintf(stderr, "unknown argument %s\n", K.c_str());
      return 2;
    }
  }
  if (A.Workload.empty() || A.HgliftExe.empty() || A.ExpectedPath.empty() ||
      A.WorkRoot.empty() || A.Seconds <= 0) {
    std::fprintf(stderr, "usage: hgbench --workload W --seed N --seconds S "
                         "--trace 0|1 --hglift EXE --expected FILE "
                         "--work-root DIR [--small]\n");
    return 2;
  }
  // P = min(4, max(1, nproc / 2)).
  unsigned HW = std::thread::hardware_concurrency();
  A.P = std::min(4u, std::max(1u, HW / 2));
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("hgbench %s seed %llu, %.0f s, trace %d, P = %u (nproc %u)\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0, A.P, HW);
  Metrics M;
  uint64_t Attempted = 0, Failed = 0;
  int Rc;
  if (A.Workload == "xen_cold" || A.Workload == "library_fixpoint")
    Rc = runInProcess(A, M, Attempted, Failed);
  else if (A.Workload == "serve_incremental")
    Rc = runServeIncremental(A, M, Attempted, Failed);
  else if (A.Workload == "shard_cold")
    Rc = runShardCold(A, M, Attempted, Failed);
  else {
    std::fprintf(stderr, "unknown workload %s\n", A.Workload.c_str());
    return 2;
  }
  if (Rc != 0 || Attempted == 0) {
    std::fprintf(stderr, "the %s run did not complete\n", A.Workload.c_str());
    return Rc ? Rc : 1;
  }
  M.set("parallelism", A.P, "count");
  M.print(Failed == 0, Attempted, Failed);
  return 0;
}
