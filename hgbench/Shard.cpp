//===- Shard.cpp - shard_cold ----------------------------------------------===//
//
// One op is a cold sharded run over the xen suite: shard::runShards with
// Check on and P worker processes, into a fresh empty cache directory.
// ShardOptions::Library is one flag per run, so an op is two calls: the
// executables, then the shared objects in library mode. Creating and
// removing the cache directories is outside the timing.
//
// The two timeout-class inputs (explodingBinary) are left out: a shard
// run cannot set the vertex fuel, and at the default 50 000 vertices each
// of them takes minutes to exhaust it.
//
// Each merged report must equal the serial in-process run (one shard)
// computed at set-up, and every fragment's verdict its known answer.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "diag/Json.h"
#include "shard/Shard.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sys/wait.h>
#include <unistd.h>

using namespace hglift;

namespace hgbench {

namespace {

struct ShardSet {
  bool Library = false;
  std::vector<std::string> Files;
  std::vector<std::string> Expect;
  std::string Reference; ///< merged report of the serial run
  int RefExit = 0;
};

shard::ShardResult runSet(const Args &A, const ShardSet &S,
                          const std::string &CacheDir, unsigned Shards) {
  shard::ShardOptions O;
  O.Binaries = S.Files;
  O.Shards = Shards;
  O.CacheDir = CacheDir;
  O.Check = true;
  O.Library = S.Library;
  O.MaxSeconds = WallBudgetSeconds;
  O.WorkerExe = A.HgliftExe;
  return shard::runShards(O);
}

/// Why a merged report disagrees with the set's known verdicts, or "".
std::string checkVerdicts(const ShardSet &S, const std::string &Merged) {
  std::optional<diag::JValue> V = diag::parseJson(Merged);
  const diag::JValue *Bins = V ? V->get("binaries") : nullptr;
  if (!Bins || !Bins->isArr() || Bins->Arr.size() != S.Expect.size())
    return "merged report is malformed";
  for (size_t I = 0; I < S.Expect.size(); ++I) {
    std::string Out = Bins->Arr[I].str("outcome");
    if (Out != S.Expect[I])
      return S.Files[I] + ": verdict " + Out + ", expected " + S.Expect[I];
    if (Bins->Arr[I].str("fail_reason").find("wall-clock") !=
        std::string::npos)
      return S.Files[I] + ": a wall-clock budget ended a lift";
  }
  return "";
}

/// Run Argv to completion with stdout discarded; its exit code, or -1.
int runProcess(std::vector<std::string> Argv) {
  std::fflush(stdout);
  pid_t Pid = fork();
  if (Pid == 0) {
    std::vector<char *> V;
    for (std::string &S : Argv)
      V.push_back(S.data());
    V.push_back(nullptr);
    if (!std::freopen("/dev/null", "w", stdout))
      _exit(127);
    execv(V[0], V.data());
    _exit(127);
  }
  int St = 0;
  if (Pid < 0 || waitpid(Pid, &St, 0) != Pid || !WIFEXITED(St))
    return -1;
  return WEXITSTATUS(St);
}

} // namespace

int runShardCold(const Args &A, Metrics &M, uint64_t &Attempted,
                 uint64_t &Failed) {
  TempDir Work(A.WorkRoot);
  if (!Work.ok())
    return 1;
  const std::string Root = std::filesystem::absolute(Work.path());

  // Set-up, repeated: generate the suite; setup_s is the median. The files
  // are written once, outside the timing: writing 68 small files took 2 to
  // 36 ms depending on how much dirty page cache the host was throttling.
  std::vector<Input> Inputs;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    Inputs = xenSuite(A.ExpectedPath);
    SetupS.push_back(msBetween(T0, Clock::now()) / 1e3);
  }
  if (Inputs.empty())
    return 1;
  Inputs.erase(std::remove_if(Inputs.begin(), Inputs.end(),
                              [&](const Input &I) {
                                return I.Expect == "timeout" ||
                                       (A.Small && I.Library);
                              }),
               Inputs.end());
  ShardSet Sets[2];
  Sets[1].Library = true;
  for (const Input &I : Inputs) {
    ShardSet &S = Sets[I.Library ? 1 : 0];
    S.Files.push_back(Root + "/" + I.Name);
    S.Expect.push_back(I.Expect);
    if (!writeFile(S.Files.back(), I.Bytes))
      return 1;
  }

  // The serial reference: one shard, in-process, per set — run as
  // `hglift shard --shards 1` in a child process so that its memory and
  // its address space stay out of the measured parent.
  std::string Bad;
  for (int K = 0; K < 2; ++K) {
    ShardSet &S = Sets[K];
    if (S.Files.empty())
      continue;
    std::string Cache = Root + "/ref" + std::to_string(K);
    std::string Out = Root + "/ref" + std::to_string(K) + ".json";
    std::vector<std::string> Argv = {A.HgliftExe, "shard", "--shards", "1",
                                     "--check", "--cache-dir", Cache,
                                     "--max-seconds",
                                     std::to_string(WallBudgetSeconds),
                                     "--report-json", Out};
    if (S.Library)
      Argv.push_back("--library");
    Argv.insert(Argv.end(), S.Files.begin(), S.Files.end());
    S.RefExit = runProcess(Argv);
    std::filesystem::remove_all(Cache);
    std::ifstream In(Out);
    S.Reference.assign(std::istreambuf_iterator<char>(In), {});
    if (S.RefExit > 1 || S.Reference.empty()) {
      std::fprintf(stderr, "serial shard reference failed (exit %d)\n",
                   S.RefExit);
      return 1;
    }
    if (Bad.empty())
      Bad = checkVerdicts(S, S.Reference);
  }
  if (!Bad.empty())
    std::printf("  standing failure: %s\n", Bad.c_str());

  struct OpStats {
    std::vector<double> Lat;
    double WorkSeconds = 0, WallSeconds = 0;
    double Spawned = 0, Steals = 0, Requeues = 0;
    uint64_t Ops = 0;
  };
  uint64_t NextOp = 0;
  auto Phase = [&](double Seconds, SpanLog &T, OpStats &St) {
    Clock::time_point Start = Clock::now();
    do {
      std::string Why = Bad;
      uint64_t Op = NextOp++;
      double Ms = 0;
      for (int K = 0; K < 2; ++K) {
        const ShardSet &S = Sets[K];
        if (S.Files.empty())
          continue;
        std::string Cache = Root + "/op" + std::to_string(Op) + "_" +
                            std::to_string(K);
        std::filesystem::create_directories(Cache);
        Clock::time_point T0 = Clock::now();
        shard::ShardResult R = runSet(A, S, Cache, A.P);
        Clock::time_point T1 = Clock::now();
        T.add(S.Library ? "shard.run_libraries" : "shard.run_executables",
              Op, -1, T0, T1);
        Ms += msBetween(T0, T1);
        std::filesystem::remove_all(Cache);
        if (!R.Ok)
          Why = "shard run failed: " + R.Error;
        else if (R.MergedReport != S.Reference || R.Exit != S.RefExit)
          Why = "merged report differs from the serial reference";
        St.WorkSeconds += R.Sched.ObservedSeconds;
        St.WallSeconds += msBetween(T0, T1) / 1e3 * R.ShardsResolved;
        St.Spawned += R.WorkersSpawned;
        St.Steals += double(R.Sched.Steals);
        St.Requeues += double(R.Sched.Requeues);
      }
      St.Lat.push_back(Ms);
      ++St.Ops;
      ++Attempted;
      if (!Why.empty() && ++Failed <= 5)
        std::printf("  FAILED shard op: %s\n", Why.c_str());
    } while (msBetween(Start, Clock::now()) < Seconds * 1e3);
    return msBetween(Start, Clock::now()) / 1e3;
  };

  SpanLog Off(false), T(true);
  OpStats Main, Traced;
  double Cpu0 = cpuMsSelf() + cpuMsChildren();
  double WallS = Phase(A.Trace ? A.Seconds / 2 : A.Seconds, Off, Main);
  double Cpu1 = cpuMsSelf() + cpuMsChildren();
  double Verdicts = double(Main.Ops * Inputs.size());
  std::sort(SetupS.begin(), SetupS.end());
  emitEndToEnd(M, Main.Lat, Verdicts, WallS, Cpu1 - Cpu0,
               peakRssMbSelf() + peakRssMbChildren(),
               SetupS[SetupS.size() / 2], Attempted, Failed);
  if (!A.Trace)
    return 0;

  Phase(A.Seconds / 2, T, Traced);
  emitTraceOverhead(M, Main.Lat, Traced.Lat);
  double N = double(Traced.Ops);
  emitShardMetrics(M, ratio(Traced.WorkSeconds, Traced.WallSeconds),
                   ratio(Traced.Spawned, N), ratio(Traced.Steals, N),
                   ratio(Traced.Requeues, N));

  emitInProcessLayers(M, Inputs, T);
  PatchableBinary PB = patchableBinary(0);
  StoreProbe SP =
      storeProbe(PB, Root + "/store", /*Populate=*/true, 5, T);
  emitStoreMetrics(M, SP.Cache, SP.HitMs, SP.PatchMs);
  emitServeMetrics(M, serveProbe(A, Inputs, Work.path(), T));
  writeSpans(A, T);
  return 0;
}

} // namespace hgbench
