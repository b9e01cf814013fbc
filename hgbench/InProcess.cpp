//===- InProcess.cpp - xen_cold and library_fixpoint -----------------------===//
//
// Both workloads take one input per op, in this process, from ELF bytes to
// a verified report, in a closed loop with one caller:
//
//   xen_cold          the Table-1 suite, Lift.Threads = 1, plus witness
//                     search: fixed per-binary and per-function cost;
//   library_fixpoint  generated shared objects, Lift.Threads = P: the
//                     fixpoint, the solver tiers and Step 2 over many edges.
//
// Ops run in whole passes over the inputs, each pass in a fresh seeded
// order, until the measured time reaches --seconds; every run therefore
// measures whole passes of the same inputs. BENCHMARK.json lists xen_cold
// only: library_fixpoint's two-thread lifts did not repeat on the 4-vCPU VM
// the benchmark was defined on (DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "api/Hglift.h"
#include "elf/ElfReader.h"
#include "fuzz/Oracle.h"
#include "support/Rng.h"
#include "witness/Witness.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>

using namespace hglift;

namespace hgbench {

OpResult runOp(const Input &In, const OpConfig &C, SpanLog &T, uint64_t Op) {
  OpResult R;
  std::optional<elf::BinaryImage> Img;
  std::optional<Session> S;
  Clock::time_point T0 = Clock::now();
  long Root = T.begin("op", Op);
  {
    SpanScope Sp(T, "elf.parse", Op, Root);
    Img = elf::readElf(In.Bytes, In.Name);
  }
  if (!Img) {
    T.end(Root);
    R.Why = "ELF did not parse";
    return R;
  }
  Options O;
  O.Library = In.Library;
  O.Lift.Threads = C.Threads;
  O.Lift.MaxVertices = MaxVertices;
  O.Lift.MaxSeconds = WallBudgetSeconds;
  O.Witness.Dir = C.WitnessDir;
  {
    SpanScope Sp(T, "api.session", Op, Root);
    S.emplace(*Img, O);
  }
  const hg::BinaryResult *BR;
  {
    SpanScope Sp(T, "hg.lift", Op, Root);
    BR = &S->lift();
  }
  const exporter::CheckResult *CR;
  {
    SpanScope Sp(T, "export.check", Op, Root);
    CR = &S->check();
  }
  if (C.Witness) {
    SpanScope Sp(T, "witness.search", Op, Root);
    witness::attachWitnesses(*S, &In.Bytes);
  }
  {
    SpanScope Sp(T, "api.report", Op, Root);
    std::ostringstream OS;
    S->writeReportJson(OS);
    R.Report = OS.str();
  }
  T.end(Root);
  R.Ms = msBetween(T0, Clock::now());

  R.Parsed = true;
  R.Outcome = hg::liftOutcomeName(BR->Outcome);
  R.FailReason = BR->FailReason;
  R.Stats = BR->Total;
  R.Functions = BR->Functions.size();
  R.Theorems = CR->Theorems;
  R.Proven = CR->Proven;
  for (const hg::FunctionResult &F : BR->Functions) {
    R.FnMsSum += F.Seconds * 1e3;
    if (F.FailReason.find("wall-clock") != std::string::npos)
      R.WallClock = true;
    if (F.Outcome != hg::LiftOutcome::Lifted) {
      ++R.RejectedFns;
      continue;
    }
    for (const diag::Diagnostic &D : CR->Diags)
      if (D.Prov.FunctionEntry == F.Entry)
        R.UnprovenLifted = true;
  }
  if (const diag::WitnessSummary *W = S->witnesses()) {
    R.WitSites = W->Searched;
    R.WitConfirmed = W->Confirmed;
  }

  if (T.on()) {
    // Probes outside the op's timing: the witness layer on workloads whose
    // op does not search, and one bare arena for the op's image.
    if (!C.Witness) {
      SpanScope Sp(T, "witness.search", Op);
      const diag::WitnessSummary &W = witness::attachWitnesses(*S, &In.Bytes);
      R.WitSites = W.Searched;
      R.WitConfirmed = W.Confirmed;
    }
    SpanScope Sp(T, "hg.arena", Op);
    hg::LiftArena A(*Img, S->options().Lift);
  }
  {
    SpanScope Sp(T, "api.teardown", Op);
    S.reset();
  }
  return R;
}

std::string checkOp(const Input &In, const OpResult &R, const OpResult *Ref) {
  if (!R.Parsed)
    return R.Why;
  if (!In.Expect.empty() && R.Outcome != In.Expect)
    return "verdict " + R.Outcome + " (" + R.FailReason + "), expected " +
           In.Expect;
  if (R.UnprovenLifted)
    return "Step 2 left an edge unproven in a lifted function";
  if (R.WallClock)
    return "a wall-clock budget ended a lift";
  if (Ref) {
    if (R.Report != Ref->Report)
      return "report bytes differ from the reference";
    if (!sameCounters(R.Stats, Ref->Stats) || R.Theorems != Ref->Theorems ||
        R.Proven != Ref->Proven)
      return "non-time counters differ from the reference";
  }
  return "";
}

void LayerCounts::add(const OpResult &R) {
  ++Ops;
  Functions += R.Functions;
  RejectedFns += R.RejectedFns;
  Theorems += R.Theorems;
  WitSites += R.WitSites;
  WitConfirmed += R.WitConfirmed;
  S.merge(R.Stats);
}

void emitLayerMetrics(Metrics &M, const LayerCounts &Pass,
                      const SpanLog &T, const LayerTimes &LT,
                      unsigned Threads) {
  std::map<std::string, std::pair<double, size_t>> Tot = T.totals();
  auto Mean = [&](const char *Name) {
    auto It = Tot.find(Name);
    return It == Tot.end() || !It->second.second
               ? 0.0
               : It->second.first / double(It->second.second);
  };
  auto Sum = [&](const char *Name) {
    auto It = Tot.find(Name);
    return It == Tot.end() ? 0.0 : It->second.first;
  };
  const LiftStats &S = Pass.S;
  M.set("elf.parse_ms", Mean("elf.parse"), "ms");
  M.set("api.session_ms", Mean("api.session"), "ms");
  M.set("api.report_ms", Mean("api.report"), "ms");
  M.set("api.teardown_ms", Mean("api.teardown"), "ms");
  M.set("hg.lift_ms", Mean("hg.lift"), "ms");
  M.set("hg.fn_ms_sum", ratio(LT.FnMsSum, double(LT.Ops)), "ms");
  M.set("hg.unattributed_frac", 1.0 - ratio(LT.FnMsSum, Sum("hg.lift")),
        "ratio");
  M.set("hg.arena_ms", Mean("hg.arena"), "ms");
  M.set("hg.parallel_eff", ratio(LT.FnMsSum, Sum("hg.lift") * Threads),
        "ratio");
  M.set("hg.functions", double(Pass.Functions), "count");
  M.set("hg.rejected_functions", double(Pass.RejectedFns), "count");
  M.set("hg.vertices", double(S.Vertices), "count");
  M.set("hg.joins", double(S.Joins), "count");
  M.set("hg.widenings", double(S.Widenings), "count");
  M.set("hg.joins_per_vertex", ratio(double(S.Joins), double(S.Vertices)),
        "ratio");
  M.set("hg.leq_hit_ratio",
        ratio(double(S.LeqHits), double(S.LeqHits + S.LeqMisses)), "ratio");
  M.set("semantics.steps", double(S.Steps), "count");
  M.set("semantics.forks", double(S.Forks), "count");
  M.set("smt.queries", double(S.SolverQueries), "count");
  M.set("smt.ms", ratio(S.SolverSeconds * 1e3, double(Pass.Ops)), "ms");
  M.set("smt.tier0_hits", double(S.SolverTier0Hits), "count");
  M.set("smt.tier1_hits", double(S.SolverTier1Hits), "count");
  M.set("smt.class_hits", double(S.SolverClassHits), "count");
  M.set("smt.tier2_hits", double(S.SolverTier2Hits), "count");
  M.set("smt.tier2_skipped", double(S.SolverTier2Skipped), "count");
  M.set("smt.fallthroughs", double(S.SolverFallthroughs), "count");
  M.set("smt.z3_queries", double(S.Z3Queries), "count");
  M.set("smt.rel_cache_hit_ratio",
        ratio(double(S.RelCacheHits),
              double(S.RelCacheHits + S.RelCacheMisses)),
        "ratio");
  M.set("vsa.queries", double(S.VsaQueries), "count");
  M.set("vsa.resolved_ratio",
        ratio(double(S.VsaResolved), double(S.VsaQueries)), "ratio");
  M.set("vsa.restarts", double(S.VsaRestarts), "count");
  M.set("export.check_ms", Mean("export.check"), "ms");
  M.set("export.theorems", double(Pass.Theorems), "count");
  M.set("export.us_per_theorem",
        ratio(Sum("export.check") * 1e3, double(LT.Theorems)), "us");
  M.set("witness.search_ms", Mean("witness.search"), "ms");
  M.set("witness.sites", double(Pass.WitSites), "count");
  M.set("witness.confirmed_ratio",
        ratio(double(Pass.WitConfirmed), double(Pass.WitSites)), "ratio");
}

void emitInProcessLayers(Metrics &M, const std::vector<Input> &Inputs,
                         SpanLog &T) {
  OpConfig C;
  LayerCounts Pass;
  LayerTimes LT;
  uint64_t Op = 1u << 20; // apart from the workload's own op ids
  for (const Input &In : Inputs) {
    OpResult R = runOp(In, C, T, Op++);
    Pass.add(R);
    ++LT.Ops;
    LT.FnMsSum += R.FnMsSum;
    LT.Theorems += R.Theorems;
  }
  emitLayerMetrics(M, Pass, T, LT, C.Threads);
}

void emitTraceOverhead(Metrics &M, const std::vector<double> &Untraced,
                       const std::vector<double> &Traced) {
  double P50 = percentile(Untraced, 0.5);
  M.set("trace.overhead_ms", percentile(Traced, 0.5) - P50, "ms");
  M.set("trace.overhead_frac", ratio(percentile(Traced, 0.5) - P50, P50),
        "ratio");
}

void writeSpans(const Args &A, const SpanLog &T) {
  T.write(A.WorkRoot + "/spans_" + A.Workload + "_" + std::to_string(A.Seed) +
          ".jsonl");
}

StoreProbe storeProbe(const PatchableBinary &B, const std::string &Dir,
                      bool Populate, unsigned Reps, SpanLog &T) {
  StoreProbe P;
  auto Lift = [&](const Input &In, const char *Span) {
    std::optional<elf::BinaryImage> Img = elf::readElf(In.Bytes, In.Name);
    if (!Img)
      return 0.0;
    Options O;
    O.Lift.MaxVertices = MaxVertices;
    O.Lift.MaxSeconds = WallBudgetSeconds;
    O.Cache.Dir = Dir;
    Session S(*Img, O);
    Clock::time_point T0 = Clock::now();
    S.lift();
    Clock::time_point T1 = Clock::now();
    T.add(Span, 0, -1, T0, T1);
    if (std::optional<store::CacheStats> CS = S.cacheStats())
      P.Cache += *CS;
    return msBetween(T0, T1);
  };
  if (Populate)
    Lift(B.In, "store.populate");
  std::vector<double> Hit, Patch;
  for (unsigned I = 0; I < Reps; ++I) {
    Hit.push_back(Lift(B.In, "store.hit_lift"));
    Patch.push_back(Lift(patchedVariant(B, 0x51ed0000u + I, B.In.Name),
                         "store.patch_lift"));
  }
  P.HitMs = percentile(Hit, 0.5);
  P.PatchMs = percentile(Patch, 0.5);
  return P;
}

void emitStoreMetrics(Metrics &M, const store::CacheStats &CS, double HitMs,
                      double PatchMs) {
  M.set("store.hit_ratio", ratio(double(CS.Hits), double(CS.Hits + CS.Misses)),
        "ratio");
  M.set("store.stored", double(CS.Stored), "count");
  M.set("store.validated", double(CS.Validated), "count");
  M.set("store.evictions", double(CS.Evictions), "count");
  M.set("store.hit_lift_ms", HitMs, "ms");
  M.set("store.patch_lift_ms", PatchMs, "ms");
}

void emitShardMetrics(Metrics &M, double WorkFrac, double Spawned,
                      double Steals, double Requeues) {
  M.set("shard.work_frac", WorkFrac, "ratio");
  M.set("shard.workers_spawned", Spawned, "count");
  M.set("shard.steals", Steals, "count");
  M.set("shard.requeues", Requeues, "count");
}

void emitEndToEnd(Metrics &M, const std::vector<double> &Lat, double Verdicts,
                  double WallS, double CpuMs, double RssMb, double SetupS,
                  uint64_t Attempted, uint64_t Failed) {
  M.set("verdict_p50_ms", percentile(Lat, 0.5), "ms");
  M.set("verdict_p90_ms", percentile(Lat, 0.9), "ms");
  M.set("verdicts_per_s", ratio(Verdicts, WallS), "1/s");
  M.set("cpu_ms_per_verdict", ratio(CpuMs, Verdicts), "ms");
  M.set("peak_rss_mb", RssMb, "MiB");
  M.set("failed_frac", ratio(double(Failed), double(Attempted)), "ratio");
  M.set("setup_s", SetupS, "s");
  M.set("samples", double(Lat.size()), "count");
}

namespace {

/// Run whole passes over Inputs until Seconds have been measured. Each op
/// is checked against its input's reference; Lat receives op latencies.
struct Loop {
  Loop(const std::vector<Input> &Inputs, const std::vector<OpResult> &Refs,
       const std::vector<std::string> &Bad, const OpConfig &C, Rng &Order,
       uint64_t &NextOp)
      : Inputs(Inputs), Refs(Refs), Bad(Bad), C(C), Order(Order),
        NextOp(NextOp) {}
  const std::vector<Input> &Inputs;
  const std::vector<OpResult> &Refs;
  const std::vector<std::string> &Bad; ///< standing failure per input, or ""
  const OpConfig &C;
  Rng &Order;
  uint64_t &NextOp;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<double> Lat;
  double WallS = 0;
  LayerTimes LT;

  void run(double Seconds, SpanLog &T) {
    Clock::time_point Start = Clock::now();
    std::vector<size_t> Idx(Inputs.size());
    do {
      for (size_t I = 0; I < Idx.size(); ++I)
        Idx[I] = I;
      for (size_t I = Idx.size(); I > 1; --I)
        std::swap(Idx[I - 1], Idx[Order.below(I)]);
      for (size_t I : Idx) {
        OpResult R = runOp(Inputs[I], C, T, NextOp++);
        ++Attempted;
        std::string Why = Bad[I].empty() ? checkOp(Inputs[I], R, &Refs[I])
                                         : Bad[I];
        if (!Why.empty()) {
          ++Failed;
          if (Failed <= 5)
            std::printf("  FAILED op on %s: %s\n", Inputs[I].Name.c_str(),
                        Why.c_str());
        }
        Lat.push_back(R.Ms);
        LT.Ops++;
        LT.FnMsSum += R.FnMsSum;
        LT.Theorems += R.Theorems;
      }
    } while (msBetween(Start, Clock::now()) < Seconds * 1e3);
    WallS = msBetween(Start, Clock::now()) / 1e3;
  }
};

} // namespace

int runInProcess(const Args &A, Metrics &M, uint64_t &Attempted,
                 uint64_t &Failed) {
  const bool Xen = A.Workload == "xen_cold";
  const unsigned LibCount = A.Small ? 4 : 48;

  // Set-up: corpus generation, repeated; the median is setup_s.
  std::vector<Input> Inputs;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    Inputs = Xen ? xenSuite(A.ExpectedPath)
                 : fixpointLibraries(LibCount);
    SetupS.push_back(msBetween(T0, Clock::now()) / 1e3);
  }
  if (Inputs.empty()) {
    std::fprintf(stderr, "input generation failed\n");
    return 1;
  }
  if (A.Small && Xen) {
    // Keep every outcome class but drop the large shared objects.
    std::vector<Input> Small;
    for (Input &I : Inputs)
      if (!I.Library && (I.Expect != "lifted" || Small.size() < 6))
        Small.push_back(std::move(I));
    Inputs = std::move(Small);
  }

  TempDir Work(A.WorkRoot);
  if (!Work.ok())
    return 1;
  OpConfig C;
  C.Threads = Xen ? 1 : A.P;
  C.Witness = Xen;
  if (Xen)
    C.WitnessDir = Work.path() + "/witness";

  // Reference pass, outside the timed window: reference report bytes and
  // counters per input, and the check of every verdict against its known
  // answer. It also lets lazy set-up in the program finish before timing.
  SpanLog Off(false);
  uint64_t NextOp = 0;
  std::vector<OpResult> Refs;
  std::vector<std::string> Bad(Inputs.size());
  LayerCounts Pass;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    Refs.push_back(runOp(Inputs[I], C, Off, NextOp++));
    Bad[I] = checkOp(Inputs[I], Refs.back(), nullptr);
    Pass.add(Refs.back());
  }
  if (!Xen) {
    // The concrete oracle (sem::Machine, independent of SymExec) over a
    // seeded sample of the libraries: every reached state must be admitted
    // by the lifted Hoare Graph.
    Rng Pick(A.Seed ^ 0x0c4ac1e);
    for (size_t I = 0; I < Inputs.size(); ++I) {
      if (!Bad[I].empty() || Pick.below(4) != 0)
        continue;
      std::optional<elf::BinaryImage> Img =
          elf::readElf(Inputs[I].Bytes, Inputs[I].Name);
      Options O;
      O.Library = true;
      O.Lift.MaxVertices = MaxVertices;
      O.Lift.MaxSeconds = WallBudgetSeconds;
      Session S(*Img, O);
      fuzz::OracleResult OR =
          fuzz::runOracle(*Img, S.lift(), A.Seed + I, OracleRunsPerFunction);
      if (!OR.clean())
        Bad[I] = "concrete oracle: " + OR.Violations[0].Message;
    }
  }
  for (size_t I = 0; I < Inputs.size(); ++I)
    if (!Bad[I].empty())
      std::printf("  standing failure on %s: %s\n", Inputs[I].Name.c_str(),
                  Bad[I].c_str());

  Rng Order(A.Seed * 31 + 7);
  Loop Main{Inputs, Refs, Bad, C, Order, NextOp};
  Loop Traced{Inputs, Refs, Bad, C, Order, NextOp};
  SpanLog T(true);
  // With --trace 1 the same inputs run untraced, then traced, for half the
  // time each; the difference of the two is the tracing overhead.
  double Cpu0 = cpuMsSelf();
  Main.run(A.Trace ? A.Seconds / 2 : A.Seconds, Off);
  double Cpu1 = cpuMsSelf();
  if (A.Trace)
    Traced.run(A.Seconds / 2, T);
  Attempted = Main.Attempted + Traced.Attempted;
  Failed = Main.Failed + Traced.Failed;

  std::sort(SetupS.begin(), SetupS.end());
  emitEndToEnd(M, Main.Lat, double(Main.Attempted), Main.WallS,
               Cpu1 - Cpu0, peakRssMbSelf(),
               SetupS[SetupS.size() / 2], Attempted, Failed);
  if (!A.Trace)
    return 0;

  emitLayerMetrics(M, Pass, T, Traced.LT, C.Threads);
  PatchableBinary PB = patchableBinary(0);
  StoreProbe SP =
      storeProbe(PB, Work.path() + "/store", /*Populate=*/true, 5, T);
  emitStoreMetrics(M, SP.Cache, SP.HitMs, SP.PatchMs);
  ServeProbe SV = serveProbe(A, Inputs, Work.path(), T);
  emitServeMetrics(M, SV);
  emitShardMetrics(M, 0, 0, 0, 0);
  emitTraceOverhead(M, Main.Lat, Traced.Lat);
  writeSpans(A, T);
  return 0;
}

} // namespace hgbench
