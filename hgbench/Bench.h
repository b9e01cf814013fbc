//===- Bench.h - Shared plumbing of the hglift benchmark -------*- C++ -*-===//
//
// The benchmark drives hglift only through its public entry points
// (elf::readElf, hglift::Session, witness::attachWitnesses, the `hglift
// serve` socket and shard::runShards) and times every call from outside.
// This header holds what the four workloads share: the run arguments, the
// in-memory span log of the traced run, the metric sink, percentiles,
// process CPU and memory readings, the per-run work directory and the
// seeded corpora.
//
//===----------------------------------------------------------------------===//

#ifndef HGBENCH_BENCH_H
#define HGBENCH_BENCH_H

#include "store/Store.h"
#include "support/LiftStats.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace hgbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Command-line arguments of one benchmark run.
struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Small inputs and short phases, for the self-test.
  bool Small = false;
  /// Hand-written expected verdicts of the xen suite.
  std::string ExpectedPath;
  /// The built `hglift` executable (serve daemon and shard workers).
  std::string HgliftExe;
  /// Directory that receives per-run work directories and span files.
  std::string WorkRoot;
  /// Parallelism: threads, daemon workers or shard workers.
  unsigned P = 1;
};

/// One timed interval of the traced run. Spans of one op share Op; Parent
/// is the index of the enclosing span, or -1 for an op's root span.
struct Span {
  std::string Name;
  uint64_t Op = 0;
  long Parent = -1;
  double StartMs = 0, EndMs = 0;
};

/// In-memory span recorder. When off, begin/end do nothing, so the
/// untraced run pays one branch per call site.
class SpanLog {
public:
  explicit SpanLog(bool On) : On(On), Epoch(Clock::now()) {}
  bool on() const { return On; }
  long begin(const char *Name, uint64_t Op, long Parent = -1);
  void end(long Idx);
  /// Record an interval measured elsewhere.
  void add(const char *Name, uint64_t Op, long Parent, Clock::time_point A,
           Clock::time_point B);
  /// Sum and count of span durations per name.
  std::map<std::string, std::pair<double, size_t>> totals() const;
  /// Write every span as one JSON object per line.
  bool write(const std::string &Path) const;

private:
  bool On;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// Opens a span on construction and closes it on destruction.
class SpanScope {
public:
  SpanScope(SpanLog &L, const char *Name, uint64_t Op, long Parent = -1)
      : L(L), Idx(L.begin(Name, Op, Parent)) {}
  ~SpanScope() { L.end(Idx); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanLog &L;
  long Idx;
};

/// Every metric a run measured, in insertion order; the wrapper script
/// picks the ones BENCHMARK.json names for the run's mode.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  /// Human-readable lines followed by one JSON line.
  void print(bool Correct, uint64_t Attempted, uint64_t Failed) const;

private:
  struct M {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<M> Ms;
};

/// Linear-interpolated percentile (Q in [0, 1]) of V; 0 when V is empty.
double percentile(std::vector<double> V, double Q);
/// Ratio with an explicit value for an empty denominator.
inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// User plus system CPU of this process, and of its waited-for children.
double cpuMsSelf();
double cpuMsChildren();
/// Peak resident set of this process, and of its largest waited-for child.
double peakRssMbSelf();
double peakRssMbChildren();
/// The same readings for a live child process, from /proc.
double cpuMsOfPid(pid_t Pid);
double peakRssMbOfPid(pid_t Pid);

/// A fresh mkdtemp directory under Root, removed with its contents on
/// destruction.
class TempDir {
public:
  explicit TempDir(const std::string &Root);
  ~TempDir();
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;
  const std::string &path() const { return Path; }
  bool ok() const { return !Path.empty(); }

private:
  std::string Path;
};

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes);

/// One benchmark input: ELF bytes plus what the benchmark knows about them.
struct Input {
  std::string Name; ///< file base name; also the report's "binary" field
  std::vector<uint8_t> Bytes;
  bool Library = false; ///< lift exported symbols, not the entry point
  size_t Exports = 0;   ///< exported function symbols
  /// Known verdict (hg::liftOutcomeName spelling); empty when the input
  /// has no designed verdict and is judged by the concrete oracle instead.
  std::string Expect;
};

/// The Table-1 xen suite at its canonical seed (corpus::SuiteOptions
/// defaults, as bench_table1_xen builds it), with each input's expected
/// verdict read from the hand-written file (one class per input,
/// construction order). Empty on a malformed or mismatched file.
///
/// The suite is not re-seeded per run: about 16 of its 70 inputs are
/// random programs that carry most of the latency tail, so a seeded suite
/// moved verdict_p90_ms by more than 100% between seeds. The run seed
/// orders the ops instead.
std::vector<Input> xenSuite(const std::string &ExpectedPath);

/// Shared objects for library_fixpoint, generated from one fixed seed:
/// Count libraries of 8 exported functions, total size log-spread from 200
/// to 2000 instructions, the last function a 4x straggler.
///
/// Like the xen suite, the population is not re-seeded per run: lift cost
/// per library is heavy-tailed (one exploding function can take longer than
/// the rest of a pass), so whether a seeded population drew such a library
/// moved verdicts_per_s by about 2x between seeds. The run seed orders the
/// ops and picks the oracle sample.
std::vector<Input> fixpointLibraries(unsigned Count);

/// A small generated executable whose _start loads a marker immediate into
/// rdi before calling main. Patching that immediate changes one function's
/// bytes and cannot change any verdict: functions are lifted context-free,
/// so the value never reaches another function's proof. PatchOffset is the
/// immediate's file offset.
struct PatchableBinary {
  Input In;
  size_t PatchOffset = 0;
};
/// The generated executables of the serve pool are fixed like the suite;
/// --seed draws the serve schedule and the patch values.
PatchableBinary patchableBinary(unsigned Index);
/// A copy of B with the patched immediate set to Value.
Input patchedVariant(const PatchableBinary &B, uint32_t Value,
                     const std::string &Name);

/// LiftStats fields that must repeat exactly for the same input bytes.
bool sameCounters(const hglift::LiftStats &A, const hglift::LiftStats &B);

/// Vertex fuel of every lift: the Table-1 setting, so timeouts come from
/// fuel alone.
constexpr size_t MaxVertices = 4000;
/// Wall-clock budget per function, far above any op, so that it never
/// decides a verdict.
constexpr double WallBudgetSeconds = 3600;
/// Set-ups per run; setup_s is their median. Serve set-up lifts its whole
/// pool through the daemon, so it repeats fewer times.
constexpr int SetupReps = 9;
constexpr int ServeSetupReps = 3;
/// Concrete oracle walks per function on library_fixpoint.
constexpr int OracleRunsPerFunction = 4;

/// How an in-process op drives the Session.
struct OpConfig {
  unsigned Threads = 1;
  bool Witness = false;   ///< witness search is part of the op
  std::string WitnessDir; ///< sidecars of the witness search
};

/// What one op produced, and the counters the program published for it.
struct OpResult {
  bool Parsed = false;
  std::string Why; ///< why the op could not run
  double Ms = 0;   ///< input bytes to verified report
  std::string Outcome;
  std::string FailReason; ///< the binary's, when not lifted
  std::string Report;
  hglift::LiftStats Stats;
  size_t Functions = 0, Theorems = 0, Proven = 0;
  size_t RejectedFns = 0; ///< functions Step 1 did not lift
  double FnMsSum = 0;     ///< sum of FunctionResult::Seconds
  bool UnprovenLifted = false;
  bool WallClock = false;
  size_t WitSites = 0, WitConfirmed = 0;
};

/// One op: readElf, Session, lift, check, optional witness search, report.
/// With T on, each call is a span, and the witness layer and one bare
/// LiftArena are probed after the op's timing.
OpResult runOp(const Input &In, const OpConfig &C, SpanLog &T, uint64_t Op);
/// Why the op failed against its known answer and reference (null: none
/// yet), or "" when it passed.
std::string checkOp(const Input &In, const OpResult &R, const OpResult *Ref);

/// Counters of one pass over a workload's inputs.
struct LayerCounts {
  uint64_t Ops = 0, Functions = 0, RejectedFns = 0, Theorems = 0,
           WitSites = 0, WitConfirmed = 0;
  hglift::LiftStats S;
  void add(const OpResult &R);
};
/// Sums over the traced ops that the spans do not carry.
struct LayerTimes {
  uint64_t Ops = 0;
  double FnMsSum = 0;
  uint64_t Theorems = 0;
};
void emitLayerMetrics(Metrics &M, const LayerCounts &Pass, const SpanLog &T,
                      const LayerTimes &LT, unsigned Threads);
/// The per-layer metrics of a workload whose op is not in-process: one
/// traced pass of runOp over Inputs on one thread.
void emitInProcessLayers(Metrics &M, const std::vector<Input> &Inputs,
                         SpanLog &T);
/// trace.overhead_*: traced minus untraced p50 of the same ops.
void emitTraceOverhead(Metrics &M, const std::vector<double> &Untraced,
                       const std::vector<double> &Traced);
/// Write the traced run's spans under the work root.
void writeSpans(const Args &A, const SpanLog &T);

/// Store layer replayed in-process: lifts of an unchanged input (hits)
/// and of patched variants (one changed function) through a Session over
/// the store in Dir.
struct StoreProbe {
  double HitMs = 0, PatchMs = 0;
  hglift::store::CacheStats Cache;
};
StoreProbe storeProbe(const PatchableBinary &B, const std::string &Dir,
                      bool Populate, unsigned Reps, SpanLog &T);
void emitStoreMetrics(Metrics &M, const hglift::store::CacheStats &CS,
                      double HitMs, double PatchMs);
void emitShardMetrics(Metrics &M, double WorkFrac, double Spawned,
                      double Steals, double Requeues);
void emitEndToEnd(Metrics &M, const std::vector<double> &Lat,
                  double Verdicts, double WallS, double CpuMs, double RssMb,
                  double SetupS, uint64_t Attempted, uint64_t Failed);

/// Serve layer measured on a workload that does not otherwise use it: a
/// short daemon run over the workload's first inputs, one request at a
/// time.
struct ServeProbe {
  double AdmitMs = 0, ServiceMs = 0, LateMs = 0, MemoHitRatio = 0;
  double Rejected = 0;
};
ServeProbe serveProbe(const Args &A, const std::vector<Input> &Inputs,
                      const std::string &Dir, SpanLog &T);
void emitServeMetrics(Metrics &M, const ServeProbe &S);

int runInProcess(const Args &A, Metrics &M, uint64_t &Attempted,
                 uint64_t &Failed);
int runServeIncremental(const Args &A, Metrics &M, uint64_t &Attempted,
                        uint64_t &Failed);
int runShardCold(const Args &A, Metrics &M, uint64_t &Attempted,
                 uint64_t &Failed);

} // namespace hgbench

#endif // HGBENCH_BENCH_H
