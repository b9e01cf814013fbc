//===- Serve.cpp - serve_incremental, and the serve probe ------------------===//
//
// An `hglift serve` daemon with P workers, its own store directory under a
// byte budget and the default 128-entry response memo, driven in an open
// loop over its Unix socket by one load generator: one sender thread that
// sends each request when it is due, and one reader thread per connection
// (P connections). Latency is timed from when a request was due.
//
// The mix: 75% of requests resubmit an unchanged input drawn from a pool
// larger than the memo (the xen suite plus generated executables); 25%
// submit a fresh variant of a generated executable whose _start immediate
// is patched, which changes one function and no verdict. Resubmissions
// that miss the memo read and revalidate through the store; patches lift,
// write and evict.
//
// BENCHMARK.json does not list this workload: on the 4-vCPU VM it was
// defined on, its latency repeated only to within 50-100% (DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "diag/Json.h"
#include "shard/LineProto.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <mutex>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace hglift;

namespace hgbench {

namespace {

/// Offered rate of the fixed-rate phase, requests per second.
constexpr double OfferedRps = 20;
/// Offered rates of the max_rate ladder, requests per second.
constexpr double Ladder[] = {20, 40, 60, 80, 120, 160, 240, 320};
/// A ladder rung passes when its p90 latency stays under this limit.
constexpr double LatencyLimitMs = 250;
/// Store byte budget of the daemon, MiB.
constexpr unsigned StoreBudgetMB = 16;
/// Share of requests that submit a patched variant, percent.
constexpr unsigned PatchPct = 25;
/// Resubmission pool size; larger than the daemon's 128-entry memo.
constexpr unsigned PoolSize = 256;
/// Largest shared object (exported functions) admitted to the pool.
constexpr size_t MaxPoolExports = 16;

int connectSock(const std::string &Path) {
  sockaddr_un SU{};
  SU.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(SU.sun_path))
    return -1;
  std::memcpy(SU.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&SU), sizeof(SU)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// A running `hglift serve`, stopped with SIGTERM (a graceful drain) and
/// waited for on destruction.
class Daemon {
public:
  Daemon(const std::string &Exe, const std::string &Sock,
         std::vector<std::string> Extra)
      : Sock(Sock) {
    std::vector<std::string> Args = {Exe, "serve", "--socket", Sock};
    Args.insert(Args.end(), Extra.begin(), Extra.end());
    std::fflush(stdout);
    std::fflush(stderr);
    Pid = fork();
    if (Pid == 0) {
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      if (!std::freopen("/dev/null", "w", stdout))
        _exit(127);
      execv(Exe.c_str(), Argv.data());
      _exit(127);
    }
    for (int I = 0; Pid > 0 && I < 2000; ++I) {
      int Fd = connectSock(Sock);
      if (Fd >= 0) {
        ::close(Fd);
        Ready = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Daemon() {
    if (Pid > 0) {
      kill(Pid, SIGTERM);
      int St;
      waitpid(Pid, &St, 0);
    }
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  bool ready() const { return Ready; }
  pid_t pid() const { return Pid; }
  const std::string &sock() const { return Sock; }

private:
  std::string Sock;
  pid_t Pid = -1;
  bool Ready = false;
};

/// One request of a schedule and what came back for it.
struct Req {
  size_t Input = 0;     ///< pool index, or variant index when Patch
  bool Patch = false;
  double DueMs = 0;     ///< offset from the phase start
  Clock::time_point DueAt, Sent, Accepted, Done;
  bool HasAccepted = false, Finished = false;
  std::string Event; ///< terminal event
  std::string Outcome, Report;
  int Exit = -1;
};

std::string requestLine(const std::string &Id, const std::string &File,
                        bool Library) {
  return "{\"op\":\"check\",\"id\":\"" + Id + "\",\"file\":\"" +
         diag::jsonEscape(File) + "\"" + (Library ? ",\"library\":true" : "") +
         "}\n";
}

/// Parsed counters of a `metrics` response.
struct DaemonMetrics {
  double Requests = 0, Rejected = 0, MemoHits = 0;
  store::CacheStats Cache;
};

std::optional<DaemonMetrics> fetchMetrics(const std::string &Sock) {
  int Fd = connectSock(Sock);
  if (Fd < 0)
    return std::nullopt;
  std::string Buf;
  std::optional<DaemonMetrics> Out;
  if (shard::writeAll(Fd, "{\"op\":\"metrics\",\"id\":\"m\"}\n"))
    if (std::optional<std::string> L = shard::readLineBlocking(Fd, Buf))
      if (std::optional<diag::JValue> V = diag::parseJson(*L))
        if (const diag::JValue *C = V->get("cache")) {
          DaemonMetrics M;
          M.Requests = V->num("requests_total");
          M.Rejected = V->num("rejected");
          M.MemoHits = V->num("memo_hits");
          M.Cache.Hits = uint64_t(C->num("hits"));
          M.Cache.Misses = uint64_t(C->num("misses"));
          M.Cache.Stored = uint64_t(C->num("stored"));
          M.Cache.Validated = uint64_t(C->num("validated"));
          M.Cache.Evictions = uint64_t(C->num("evictions"));
          Out = M;
        }
  ::close(Fd);
  return Out;
}

/// The open-loop load generator: sends Reqs on schedule over P
/// connections and collects every response.
class LoadGen {
public:
  LoadGen(const std::string &Sock, unsigned Conns) {
    for (unsigned I = 0; I < Conns; ++I)
      Fds.push_back(connectSock(Sock));
  }
  ~LoadGen() {
    for (int Fd : Fds)
      if (Fd >= 0)
        ::close(Fd);
  }
  LoadGen(const LoadGen &) = delete;
  LoadGen &operator=(const LoadGen &) = delete;
  bool ok() const {
    return std::all_of(Fds.begin(), Fds.end(), [](int F) { return F >= 0; });
  }

  /// Send every request of Rs at its due time; return once each has a
  /// terminal event or DrainMs after the last send. Returns the phase's
  /// wall time in seconds.
  double run(std::vector<Req> &Rs,
             const std::function<std::string(const Req &)> &File,
             const std::function<bool(const Req &)> &Library,
             double DrainMs) {
    Cur = &Rs;
    Open = Rs.size();
    std::vector<std::thread> Readers;
    for (size_t C = 0; C < Fds.size(); ++C)
      Readers.emplace_back([this, C] { readLoop(Fds[C]); });
    Clock::time_point Start = Clock::now();
    for (size_t I = 0; I < Rs.size(); ++I) {
      Clock::time_point Due =
          Start + std::chrono::microseconds(int64_t(Rs[I].DueMs * 1e3));
      std::this_thread::sleep_until(Due);
      std::string Line =
          requestLine(std::to_string(I), File(Rs[I]), Library(Rs[I]));
      {
        std::lock_guard<std::mutex> G(Mu);
        Rs[I].DueAt = Due;
        Rs[I].Sent = Clock::now();
      }
      shard::writeAll(Fds[I % Fds.size()], Line);
    }
    {
      std::unique_lock<std::mutex> L(Mu);
      Cv.wait_for(L, std::chrono::microseconds(int64_t(DrainMs * 1e3)),
                  [this] { return Open == 0; });
    }
    double WallS = msBetween(Start, Clock::now()) / 1e3;
    // Stop the readers: a shutdown of the read side wakes a blocked read.
    for (int Fd : Fds)
      ::shutdown(Fd, SHUT_RD);
    for (std::thread &T : Readers)
      T.join();
    for (int &Fd : Fds)
      ::close(Fd);
    Fds.clear();
    return WallS;
  }

private:
  void readLoop(int Fd) {
    std::string Buf;
    while (std::optional<std::string> L = shard::readLineBlocking(Fd, Buf)) {
      Clock::time_point Now = Clock::now();
      std::optional<diag::JValue> V = diag::parseJson(*L);
      if (!V || !V->isObj())
        continue;
      size_t Id = size_t(std::atol(V->str("id").c_str()));
      std::string Ev = V->str("event");
      std::lock_guard<std::mutex> G(Mu);
      if (Id >= Cur->size())
        continue;
      Req &R = (*Cur)[Id];
      if (Ev == "accepted") {
        R.Accepted = Now;
        R.HasAccepted = true;
      } else if (Ev == "result") {
        R.Outcome = V->str("outcome");
        R.Report = V->str("report");
        R.Exit = int(V->num("exit", -1));
      } else if (Ev == "done" || Ev == "rejected" || Ev == "error") {
        R.Event = Ev;
        R.Done = Now;
        R.Finished = true;
        if (--Open == 0)
          Cv.notify_all();
      }
    }
  }

  std::vector<int> Fds;
  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<Req> *Cur = nullptr;
  size_t Open = 0;
};

/// Poisson arrivals at Rps over Seconds, seeded; each request resubmits a
/// pool input or, with PatchPct, a fresh patched variant.
std::vector<Req> schedule(Rng &R, double Rps, double Seconds, size_t Pool,
                          size_t &NextVariant) {
  std::vector<Req> Rs;
  double T = 0;
  for (;;) {
    T += -std::log(1.0 - double(R.below(1u << 30)) / double(1u << 30)) /
         Rps * 1e3;
    if (T >= Seconds * 1e3)
      return Rs;
    Req Q;
    Q.DueMs = T;
    Q.Patch = R.below(100) < PatchPct;
    Q.Input = Q.Patch ? NextVariant++ : R.below(Pool);
    Rs.push_back(std::move(Q));
  }
}

/// Latencies from due time of the requests that finished.
std::vector<double> latencies(const std::vector<Req> &Rs) {
  std::vector<double> L;
  for (const Req &R : Rs)
    if (R.Finished)
      L.push_back(msBetween(R.DueAt, R.Done));
  return L;
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return ratio(S, double(V.size()));
}

/// Closed loop: send one request on Fd, due at Due, and read until its
/// terminal event.
void submitOne(int Fd, std::string &Buf, const std::string &Line, Req &R,
               Clock::time_point Due = Clock::now()) {
  R.DueAt = Due;
  R.Sent = Clock::now();
  if (!shard::writeAll(Fd, Line))
    return;
  while (std::optional<std::string> L = shard::readLineBlocking(Fd, Buf)) {
    std::optional<diag::JValue> V = diag::parseJson(*L);
    if (!V || !V->isObj())
      continue;
    std::string Ev = V->str("event");
    if (Ev == "accepted") {
      R.Accepted = Clock::now();
      R.HasAccepted = true;
    } else if (Ev == "result") {
      R.Outcome = V->str("outcome");
      R.Report = V->str("report");
      R.Exit = int(V->num("exit", -1));
    } else if (Ev == "done" || Ev == "rejected" || Ev == "error") {
      R.Event = Ev;
      R.Done = Clock::now();
      R.Finished = true;
      return;
    }
  }
}

} // namespace

ServeProbe serveProbe(const Args &A, const std::vector<Input> &Inputs,
                      const std::string &Dir, SpanLog &T) {
  ServeProbe P;
  std::string PDir = Dir + "/serve_probe";
  std::filesystem::create_directories(PDir);
  Daemon D(A.HgliftExe, PDir + "/s.sock",
           {"--threads", std::to_string(A.P), "--cache-dir", PDir + "/store",
            "--max-insns", std::to_string(MaxVertices), "--max-seconds",
            std::to_string(WallBudgetSeconds)});
  int Fd = D.ready() ? connectSock(D.sock()) : -1;
  if (Fd < 0)
    return P;
  // Closed loop, one request at a time: each is due when the previous one
  // finished.
  std::vector<double> Admit, Service, Late;
  std::string Buf;
  Clock::time_point Due = Clock::now();
  for (size_t I = 0; I < std::min<size_t>(Inputs.size(), 4); ++I) {
    std::string File = std::filesystem::absolute(PDir + "/" + Inputs[I].Name);
    writeFile(File, Inputs[I].Bytes);
    Req R;
    submitOne(Fd, Buf,
              requestLine(std::to_string(I), File, Inputs[I].Library), R,
              Due);
    Due = R.Done;
    if (!R.Finished || !R.HasAccepted)
      continue;
    T.add("serve.admit", I, -1, R.Sent, R.Accepted);
    T.add("serve.service", I, -1, R.Accepted, R.Done);
    Admit.push_back(msBetween(R.Sent, R.Accepted));
    Service.push_back(msBetween(R.Accepted, R.Done));
    Late.push_back(msBetween(R.DueAt, R.Sent));
  }
  ::close(Fd);
  P.AdmitMs = mean(Admit);
  P.ServiceMs = mean(Service);
  P.LateMs = mean(Late);
  if (std::optional<DaemonMetrics> M = fetchMetrics(D.sock())) {
    P.MemoHitRatio = ratio(M->MemoHits, M->Requests);
    P.Rejected = M->Rejected;
  }
  return P;
}

void emitServeMetrics(Metrics &M, const ServeProbe &S) {
  M.set("serve.admit_ms", S.AdmitMs, "ms");
  M.set("serve.service_ms", S.ServiceMs, "ms");
  M.set("serve.memo_hit_ratio", S.MemoHitRatio, "ratio");
  M.set("serve.rejected", S.Rejected, "count");
  M.set("serve.late_ms", S.LateMs, "ms");
}

int runServeIncremental(const Args &A, Metrics &M, uint64_t &Attempted,
                        uint64_t &Failed) {
  TempDir Work(A.WorkRoot);
  if (!Work.ok())
    return 1;
  const std::string Root = std::filesystem::absolute(Work.path());
  const size_t PoolTarget = A.Small ? 24 : PoolSize;
  const double Seconds = A.Seconds;

  // Requests are scheduled before set-up so that every variant the run
  // will submit is generated and written as part of set-up.
  Rng SchedR(A.Seed * 0x2545f4914f6cdd1dULL + 3);
  size_t NextVariant = 0;
  std::vector<Req> Untraced, Traced;
  std::vector<std::vector<Req>> Rungs;
  const size_t NumLadder = A.Small ? 2 : std::size(Ladder);
  if (!A.Trace) {
    Untraced = schedule(SchedR, OfferedRps, Seconds, PoolTarget, NextVariant);
  } else {
    Untraced =
        schedule(SchedR, OfferedRps, Seconds / 3, PoolTarget, NextVariant);
    Traced = schedule(SchedR, OfferedRps, Seconds / 3, PoolTarget, NextVariant);
    for (size_t I = 0; I < NumLadder; ++I)
      Rungs.push_back(schedule(SchedR, Ladder[I], Seconds / 3 / NumLadder,
                               PoolTarget, NextVariant));
  }

  // Set-up, repeated: generate the pool and the variants, write them, start
  // a daemon over an empty store, and pre-populate the store (and memo)
  // with one pass over the pool. The last daemon is the one measured.
  std::vector<Input> Pool;
  std::vector<PatchableBinary> Extras;
  std::vector<std::string> PoolFiles, VariantFiles;
  std::vector<size_t> VariantBase; ///< pool index each variant patches
  std::vector<bool> PreAnswered;
  std::vector<double> SetupS;
  std::unique_ptr<Daemon> D;
  for (int Rep = 0; Rep < ServeSetupReps; ++Rep) {
    D.reset();
    std::string Dir = Root + "/setup" + std::to_string(Rep);
    std::filesystem::create_directories(Dir + "/in");
    Clock::time_point T0 = Clock::now();
    Pool = xenSuite(A.ExpectedPath);
    if (Pool.empty())
      return 1;
    // The suite's 93-function shared object and its two timeout-class
    // binaries stay out of the pool: a memo miss on one holds a worker for
    // 0.3 to 1.2 s, and how many of those a run drew decided its p90 by
    // itself (44 ms or 1 s between seeds).
    Pool.erase(std::remove_if(Pool.begin(), Pool.end(),
                              [&](const Input &I) {
                                return I.Exports > MaxPoolExports ||
                                       I.Expect == "timeout" ||
                                       (A.Small && I.Library);
                              }),
               Pool.end());
    if (A.Small && Pool.size() > 16)
      Pool.resize(16);
    Extras.clear();
    for (unsigned I = 0; Pool.size() < PoolTarget || Extras.size() < 8; ++I) {
      Extras.push_back(patchableBinary(I));
      if (Extras.back().In.Bytes.empty())
        return 1;
      Pool.push_back(Extras.back().In);
    }
    PoolFiles.clear();
    for (const Input &I : Pool) {
      PoolFiles.push_back(Dir + "/in/" + I.Name);
      writeFile(PoolFiles.back(), I.Bytes);
    }
    VariantFiles.clear();
    VariantBase.clear();
    Rng PatchR(A.Seed ^ 0x9a7c4);
    for (size_t V = 0; V < NextVariant; ++V) {
      size_t E = PatchR.below(Extras.size());
      VariantBase.push_back(Pool.size() - Extras.size() + E);
      char Name[40];
      std::snprintf(Name, sizeof(Name), "patch%05zu_", V);
      Input In = patchedVariant(Extras[E], uint32_t(PatchR.next()),
                                Name + Extras[E].In.Name);
      VariantFiles.push_back(Dir + "/in/" + In.Name);
      writeFile(VariantFiles.back(), In.Bytes);
    }
    D = std::make_unique<Daemon>(
        A.HgliftExe, Work.path() + "/s" + std::to_string(Rep),
        std::vector<std::string>{
            "--threads", std::to_string(A.P), "--cache-dir", Dir + "/store",
            "--cache-max-mb", std::to_string(StoreBudgetMB), "--max-insns",
            std::to_string(MaxVertices), "--max-seconds",
            std::to_string(WallBudgetSeconds)});
    if (!D->ready()) {
      std::fprintf(stderr, "serve daemon did not start\n");
      return 1;
    }
    // Pre-population: every pool input once, one closed loop per
    // connection, P connections.
    std::vector<Req> Pre(Pool.size());
    std::vector<std::thread> Ts;
    for (unsigned K = 0; K < A.P; ++K)
      Ts.emplace_back([&, K] {
        int Fd = connectSock(D->sock());
        std::string Buf;
        for (size_t I = K; Fd >= 0 && I < Pre.size(); I += A.P)
          submitOne(Fd, Buf,
                    requestLine(std::to_string(I), PoolFiles[I],
                                Pool[I].Library),
                    Pre[I]);
        if (Fd >= 0)
          ::close(Fd);
      });
    for (std::thread &Th : Ts)
      Th.join();
    SetupS.push_back(msBetween(T0, Clock::now()) / 1e3);
    PreAnswered.assign(Pool.size(), false);
    for (size_t I = 0; I < Pre.size(); ++I)
      PreAnswered[I] = Pre[I].Event == "done";
  }
  // Reference reports: a cold in-process Session per pool file with the
  // daemon's options, outside the timed window. Served reports must equal
  // them byte for byte, warm or cold, memo or store.
  std::vector<std::string> RefReport(Pool.size()), RefOutcome(Pool.size());
  {
    OpConfig C;
    SpanLog Off(false);
    std::vector<std::thread> Ts;
    for (unsigned K = 0; K < A.P; ++K)
      Ts.emplace_back([&, K] {
        for (size_t I = K; I < Pool.size(); I += A.P) {
          OpResult R = runOp(Pool[I], C, Off, I);
          RefReport[I] = R.Report;
          RefOutcome[I] = R.Outcome;
        }
      });
    for (std::thread &Th : Ts)
      Th.join();
  }
  std::vector<std::string> Bad(Pool.size());
  for (size_t I = 0; I < Pool.size(); ++I) {
    if (!PreAnswered[I])
      Bad[I] = "no answer to the pre-population request";
    else if (!Pool[I].Expect.empty() && RefOutcome[I] != Pool[I].Expect)
      Bad[I] = "verdict " + RefOutcome[I] + ", expected " + Pool[I].Expect;
    else if (RefReport[I].find("wall-clock budget") != std::string::npos)
      Bad[I] = "a wall-clock budget ended a lift";
    if (!Bad[I].empty())
      std::printf("  standing failure on %s: %s\n", Pool[I].Name.c_str(),
                  Bad[I].c_str());
  }

  auto File = [&](const Req &R) {
    return R.Patch ? VariantFiles[R.Input] : PoolFiles[R.Input];
  };
  auto Library = [&](const Req &R) {
    return !R.Patch && Pool[R.Input].Library;
  };
  // Why a request failed, or "".
  auto Check = [&](const Req &R) -> std::string {
    if (!R.Finished)
      return "no terminal event";
    if (R.Event != "done")
      return "serve answered " + R.Event;
    // A patch changes no verdict: it must match its base input's.
    size_t Base = R.Patch ? VariantBase[R.Input] : R.Input;
    if (!Bad[Base].empty())
      return Bad[Base];
    if (R.Outcome != RefOutcome[Base])
      return "verdict " + R.Outcome + ", expected " + RefOutcome[Base];
    if (R.Report.find("wall-clock budget") != std::string::npos)
      return "a wall-clock budget ended a lift";
    if (R.Outcome == "lifted" && R.Exit != 0)
      return "Step 2 left an edge unproven in a lifted function";
    if (R.Patch)
      return "";
    if (R.Report != RefReport[R.Input])
      return "report bytes differ from the reference";
    return "";
  };
  auto Tally = [&](const std::vector<Req> &Rs) {
    for (const Req &R : Rs) {
      ++Attempted;
      std::string Why = Check(R);
      if (!Why.empty() && ++Failed <= 5)
        std::printf("  FAILED request for %s: %s\n", File(R).c_str(),
                    Why.c_str());
    }
  };

  // Measured phase at the fixed offered rate.
  std::optional<DaemonMetrics> M0 = fetchMetrics(D->sock());
  double Cpu0 = cpuMsOfPid(D->pid());
  double WallS;
  {
    LoadGen G(D->sock(), A.P);
    if (!G.ok() || !M0)
      return 1;
    WallS = G.run(Untraced, File, Library, 60e3);
  }
  double Cpu1 = cpuMsOfPid(D->pid());
  std::optional<DaemonMetrics> M1 = fetchMetrics(D->sock());
  Tally(Untraced);
  std::vector<double> Lat = latencies(Untraced);
  size_t Done = 0;
  for (const Req &R : Untraced)
    Done += R.Finished && R.Event == "done";
  std::sort(SetupS.begin(), SetupS.end());
  emitEndToEnd(M, Lat, double(Done), WallS, Cpu1 - Cpu0,
               peakRssMbOfPid(D->pid()), SetupS[SetupS.size() / 2],
               Attempted, Failed);
  if (M0 && M1) {
    double Requests = M1->Requests - M0->Requests;
    double StoreLookups = double(M1->Cache.Hits + M1->Cache.Misses -
                                 M0->Cache.Hits - M0->Cache.Misses);
    std::printf("  mix: %.3f memo hits, store: %.3f of function lookups hit, "
                "%.0f of %.0f requests were patches\n",
                ratio(M1->MemoHits - M0->MemoHits, Requests),
                ratio(double(M1->Cache.Hits - M0->Cache.Hits), StoreLookups),
                double(std::count_if(Untraced.begin(), Untraced.end(),
                                     [](const Req &R) { return R.Patch; })),
                Requests);
  }
  if (!A.Trace)
    return 0;

  // Traced phase: the same mix and rate, recording client-side spans.
  SpanLog T(true);
  std::optional<DaemonMetrics> T0M = fetchMetrics(D->sock());
  {
    LoadGen G(D->sock(), A.P);
    if (!G.ok())
      return 1;
    G.run(Traced, File, Library, 60e3);
  }
  std::optional<DaemonMetrics> T1M = fetchMetrics(D->sock());
  Tally(Traced);
  ServeProbe SP;
  std::vector<double> Admit, Service, Late;
  for (size_t I = 0; I < Traced.size(); ++I) {
    const Req &R = Traced[I];
    if (!R.Finished || !R.HasAccepted)
      continue;
    T.add("serve.admit", I, -1, R.Sent, R.Accepted);
    T.add("serve.service", I, -1, R.Accepted, R.Done);
    Admit.push_back(msBetween(R.Sent, R.Accepted));
    Service.push_back(msBetween(R.Accepted, R.Done));
  }
  for (const Req &R : Traced)
    Late.push_back(msBetween(R.DueAt, R.Sent));
  SP.AdmitMs = mean(Admit);
  SP.ServiceMs = mean(Service);
  SP.LateMs = mean(Late);
  store::CacheStats CS;
  if (T0M && T1M) {
    SP.MemoHitRatio = ratio(T1M->MemoHits - T0M->MemoHits,
                            T1M->Requests - T0M->Requests);
    SP.Rejected = T1M->Rejected - T0M->Rejected;
    CS.Hits = T1M->Cache.Hits - T0M->Cache.Hits;
    CS.Misses = T1M->Cache.Misses - T0M->Cache.Misses;
    CS.Stored = T1M->Cache.Stored - T0M->Cache.Stored;
    CS.Validated = T1M->Cache.Validated - T0M->Cache.Validated;
    CS.Evictions = T1M->Cache.Evictions - T0M->Cache.Evictions;
  }

  // The max_rate ladder: each rung must keep p90 under the limit and
  // finish its requests within one rung length of its last send.
  double MaxRateRps = 0;
  for (size_t I = 0; I < Rungs.size(); ++I) {
    double RungS = Seconds / 3 / double(Rungs.size());
    {
      LoadGen G(D->sock(), A.P);
      if (!G.ok())
        return 1;
      G.run(Rungs[I], File, Library, RungS * 1e3);
    }
    Tally(Rungs[I]);
    bool Drained = std::all_of(Rungs[I].begin(), Rungs[I].end(),
                               [](const Req &R) { return R.Finished; });
    double P90 = percentile(latencies(Rungs[I]), 0.9);
    std::printf("  ladder %6.0f req/s: p90 %8.2f ms%s\n", Ladder[I], P90,
                Drained ? "" : ", backlog");
    if (!Drained || P90 > LatencyLimitMs)
      break;
    MaxRateRps = Ladder[I];
  }
  emitServeMetrics(M, SP);
  M.set("serve.max_rate_rps", MaxRateRps, "1/s");
  emitTraceOverhead(M, Lat, latencies(Traced));

  // The store layer replayed in-process over a copy of the daemon's store.
  std::string Copy = Root + "/store_copy";
  std::filesystem::copy(Root + "/setup" + std::to_string(ServeSetupReps - 1) +
                            "/store",
                        Copy, std::filesystem::copy_options::recursive);
  StoreProbe STP = storeProbe(Extras[0], Copy, /*Populate=*/false, 5, T);
  emitStoreMetrics(M, CS, STP.HitMs, STP.PatchMs);
  D.reset();

  // The in-process layers on a seeded sample of the pool.
  Rng Pick(A.Seed ^ 0x5e7e);
  std::vector<Input> Sample;
  for (const Input &In : Pool)
    if (Pick.below(8) == 0)
      Sample.push_back(In);
  emitInProcessLayers(M, Sample, T);
  emitShardMetrics(M, 0, 0, 0, 0);
  writeSpans(A, T);
  return 0;
}

} // namespace hgbench
