//===- witness_test.cpp - Incorrectness-witness synthesis ----------------===//
//
// Locks the witness subsystem's contract (src/witness/Witness.h): every
// verification failure ships a replayable counterexample, or a recorded
// reason why not.
//
//   * The two historical Pred::leq bug shapes — an unsigned-boundary
//     claim and a stale loop-join bound — planted on a clean lift must
//     yield confirmed, replayable, reduced witnesses, and the stale-bound
//     shape must be found by the clause-endpoints tier (the boundary
//     values are derived from the violated predicate, not luck).
//   * Sound binaries produce zero witnesses at full budget.
//   * Sidecar and report bytes are identical across --threads values and
//     across reruns (the fixtures route through the shipped binary).
//   * Mutation check: every mutant the fuzz oracle kills also yields a
//     confirmed witness when the search is pointed at the kill site.
//   * The sidecar and report `witnesses` schemas are golden-locked under
//     diag::WitnessSchemaVersion (regen: HGLIFT_REGEN_GOLDEN=1).
//   * WitnessSoak (tier-2, gated by HGLIFT_WITNESS_SOAK): across the full
//     mutant registry, every Step-2 error is either confirmed or carries
//     an unconfirmed reason — never silence.
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "corpus/Suites.h"
#include "diag/Json.h"
#include "driver/Report.h"
#include "export/HoareChecker.h"
#include "fuzz/Campaign.h"
#include "fuzz/Mutants.h"
#include "support/ScratchDir.h"
#include "witness/Witness.h"
#include "x86/Reg.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#ifndef HGLIFT_BIN
#error "HGLIFT_BIN must point at the hglift executable"
#endif
#ifndef HGLIFT_GOLDEN_DIR
#error "HGLIFT_GOLDEN_DIR must point at tests/golden"
#endif

using namespace hglift;

namespace {

std::string freshDir(const std::string &Name) {
  static const ScratchDir Dir("hglift_witness");
  std::string D = Dir.file(Name);
  std::filesystem::remove_all(D);
  std::filesystem::create_directories(D);
  return D;
}

std::string readFileStr(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void writeBinary(const corpus::BuiltBinary &BB, const std::string &Path) {
  std::ofstream Out(Path, std::ios::binary);
  Out.write(reinterpret_cast<const char *>(BB.ElfBytes.data()),
            static_cast<std::streamsize>(BB.ElfBytes.size()));
}

struct RunResult {
  int ExitCode;
  std::string Output;
};

RunResult runCli(const std::string &Args) {
  std::string Cmd = std::string(HGLIFT_BIN) + " " + Args + " 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr);
  std::string Out;
  char Buf[4096];
  while (P && fgets(Buf, sizeof(Buf), P))
    Out += Buf;
  int RC = P ? pclose(P) : -1;
  return RunResult{WEXITSTATUS(RC), Out};
}

/// A clean lift of the straightline binary with one predicate clause
/// planted on every symbolic state at one instruction — the in-process
/// mirror of what an unsound Pred::leq once let slip through. The planted
/// clause makes Step 2 fail (the clean re-derivation cannot entail it)
/// and gives the witness search a concretely falsifiable target.
struct TamperedFixture {
  corpus::BuiltBinary BB;
  hg::BinaryResult R;
  exporter::CheckResult C;
  uint64_t TamperRip = 0; ///< instruction whose invariant gained the clause
};

std::optional<TamperedFixture> tamperStraightline(const std::string &RegVar,
                                                  pred::RelOp Op,
                                                  uint64_t Bound) {
  auto BB = corpus::straightlineBinary();
  if (!BB)
    return std::nullopt;
  Session S(BB->Img, Options());
  TamperedFixture T{*BB, S.lift(), {}, 0};

  // Tamper inside the called function (not _start): the last explored
  // instruction, so straight-line flow guarantees the walk reaches it and
  // the blamed predecessor is unique.
  for (hg::FunctionResult &F : T.R.Functions) {
    if (F.Outcome != hg::LiftOutcome::Lifted || F.Entry == BB->Img.Entry)
      continue;
    uint64_t Target = 0;
    for (const auto &[K, V] : F.Graph.Vertices)
      if (V.Explored && K.Rip != F.Entry && K.Rip > Target &&
          K.Rip < hg::UnresolvedTargetRip)
        Target = K.Rip;
    if (!Target)
      continue;
    const expr::Expr *Var =
        F.ctx().mkVar(expr::VarClass::InitReg, RegVar, 64);
    for (auto &[K, V] : F.Graph.Vertices)
      if (V.Explored && K.Rip == Target)
        V.State.P.addRange(Var, Op, Bound);
    T.TamperRip = Target;
    break;
  }
  if (!T.TamperRip)
    return std::nullopt;

  exporter::CheckContext CC{BB->Img, sem::SymConfig()};
  T.C = exporter::checkBinary(CC, T.R);
  return T;
}

const diag::WitnessRecord *confirmedRecord(const diag::WitnessSummary &W) {
  for (const diag::WitnessRecord &R : W.Records)
    if (R.Verdict == "confirmed")
      return &R;
  return nullptr;
}

// ------------------------------------------------- historical bug shapes

TEST(WitnessUnsignedBoundary, ConfirmedReplayableReduced) {
  // Shape of the historical unsigned-boundary Pred::leq bug: an invariant
  // asserting rdi0 >=u 2^64-256, decided by a signed comparison. Any small
  // entry value refutes it, so the very first ("base") candidate confirms.
  auto T = tamperStraightline("rdi0", pred::RelOp::UGe,
                              0xffffffffffffff00ull);
  ASSERT_TRUE(T.has_value());
  ASSERT_LT(T->C.Proven, T->C.Theorems) << "tamper must fail Step 2";

  witness::WitnessOptions WO;
  WO.Dir = freshDir("unsigned_boundary");
  diag::WitnessSummary W = witness::searchBinary(T->BB.Img, T->R, &T->C, WO,
                                                 &T->BB.ElfBytes);
  EXPECT_EQ(W.Searched, 1u);
  ASSERT_EQ(W.Confirmed, 1u);
  const diag::WitnessRecord *R = confirmedRecord(W);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Source, "base");
  EXPECT_EQ(R->DiagKindName, "verification-error");
  EXPECT_EQ(R->Claim.Type, "range");
  EXPECT_EQ(R->Claim.RangeOp, ">=u");
  EXPECT_EQ(R->Claim.RangeBound, 0xffffffffffffff00ull);
  EXPECT_LT(R->Claim.RangeValue, R->Claim.RangeBound)
      << "the concrete value must actually violate the claim";
  EXPECT_EQ(R->Regs.size(), size_t(x86::NumGPRs));
  EXPECT_GT(R->TraceLen, 0u);

  // Replayable: probeSite already replayed the written sidecar from disk,
  // and an independent replay must agree.
  ASSERT_FALSE(R->SidecarJson.empty());
  EXPECT_TRUE(R->Replayed);
  std::ostringstream Log;
  EXPECT_EQ(witness::replayWitness(WO.Dir + "/" + R->SidecarJson, Log), 0)
      << Log.str();

  // Reduced: the sidecar ELF is a shrunk binary that still reproduces.
  EXPECT_GT(R->Instructions, 0u);
  EXPECT_LE(R->Instructions, T->R.Functions.front().numInstructions() +
                                 T->R.Functions.back().numInstructions());
  EXPECT_TRUE(
      std::filesystem::exists(WO.Dir + "/" + R->SidecarElf));
}

TEST(WitnessStaleLoopBound, ClauseEndpointsFindTheBoundary) {
  // Shape of the historical stale-loop-join-bound bug: a loop-carried
  // upper bound that survived a join it should have widened. Every small
  // entry value satisfies rsi0 <=u 2^56-1, so random small states cannot
  // refute it — only the clause-endpoints tier, which solves the violated
  // predicate for its boundary (K-1, K, K+1), lands on K+1.
  constexpr uint64_t K = 0x00ffffffffffffffull;
  auto T = tamperStraightline("rsi0", pred::RelOp::ULe, K);
  ASSERT_TRUE(T.has_value());
  ASSERT_LT(T->C.Proven, T->C.Theorems) << "tamper must fail Step 2";

  witness::WitnessOptions WO;
  WO.Dir = freshDir("stale_loop_bound");
  diag::WitnessSummary W = witness::searchBinary(T->BB.Img, T->R, &T->C, WO,
                                                 &T->BB.ElfBytes);
  ASSERT_EQ(W.Confirmed, 1u);
  const diag::WitnessRecord *R = confirmedRecord(W);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Source, "clause-endpoints")
      << "the boundary value must come from the violated predicate, not "
         "from random search";
  EXPECT_EQ(R->Claim.Type, "range");
  EXPECT_EQ(R->Claim.RangeValue, K + 1)
      << "the endpoint tier probes Bound-1, Bound, Bound+1; only K+1 "
         "violates <=u K";
  EXPECT_TRUE(R->Replayed);
  EXPECT_FALSE(R->SidecarElf.empty());
}

// --------------------------------------------------------- sound binaries

TEST(WitnessSoundBinaries, FullBudgetZeroWitnesses) {
  struct Case {
    const char *Name;
    std::optional<corpus::BuiltBinary> BB;
  } Cases[] = {
      {"straightline", corpus::straightlineBinary()},
      {"branchloop", corpus::branchLoopBinary()},
      {"callchain", corpus::callChainBinary()},
      {"ret2win", corpus::ret2winBinary()},
  };
  for (Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    ASSERT_TRUE(C.BB.has_value());
    Session S(C.BB->Img, Options());
    const hg::BinaryResult &R = S.lift();
    const exporter::CheckResult &Chk = S.check();
    EXPECT_EQ(Chk.Proven, Chk.Theorems);
    witness::WitnessOptions WO; // full default budget, no sidecar dir
    diag::WitnessSummary W =
        witness::searchBinary(C.BB->Img, R, &Chk, WO, &C.BB->ElfBytes);
    EXPECT_EQ(W.Searched, 0u) << "a sound, fully-proven binary has no "
                                 "diagnostic sites to search";
    EXPECT_EQ(W.Confirmed, 0u);
  }
}

TEST(WitnessAnnotationReach, WeirdEdgeGetsReachWitness) {
  // Unsoundness annotations are not verification errors, but they are
  // promises the lifter could not keep; their witness demonstrates the
  // annotated site is actually reachable (phase "reach" — no predicate
  // violation claimed, just a concrete trace arriving there).
  auto BB = corpus::weirdEdgeBinary();
  ASSERT_TRUE(BB.has_value());
  Session S(BB->Img, Options());
  const hg::BinaryResult &R = S.lift();
  const exporter::CheckResult &Chk = S.check();
  EXPECT_EQ(Chk.Proven, Chk.Theorems) << "weird edge is sound, annotated";

  witness::WitnessOptions WO;
  WO.Dir = freshDir("weird_reach");
  diag::WitnessSummary W =
      witness::searchBinary(BB->Img, R, &Chk, WO, &BB->ElfBytes);
  ASSERT_EQ(W.Searched, 1u);
  ASSERT_EQ(W.Confirmed, 1u);
  const diag::WitnessRecord *Rec = confirmedRecord(W);
  ASSERT_NE(Rec, nullptr);
  EXPECT_EQ(Rec->DiagKindName, "unsoundness-annotation");
  EXPECT_EQ(Rec->Phase, "reach");
  EXPECT_EQ(Rec->Claim.Type, "none");
  EXPECT_TRUE(Rec->Replayed);
  EXPECT_NE(Rec->SidecarJson.find("_reach"), std::string::npos);
}

TEST(WitnessReduction, SearchNearTopOfAddressSpaceDoesNotWrap) {
  // Regression: input 4 of the xen suite built with seed 11. Witness
  // reduction probes an address near UINT64_MAX, where the segment bounds
  // check used to compute Addr + Size, wrap, and accept the read.
  corpus::SuiteOptions SO;
  SO.Seed = 11;
  std::vector<corpus::SuiteRow> Rows = corpus::buildXenSuite(SO);
  const corpus::SuiteRow *Row = nullptr;
  const corpus::BuiltBinary *BB = nullptr;
  size_t Idx = 0;
  for (const corpus::SuiteRow &R : Rows)
    for (const corpus::BuiltBinary &B : R.Binaries)
      if (Idx++ == 4) {
        Row = &R;
        BB = &B;
      }
  ASSERT_NE(BB, nullptr);
  Options O;
  O.Library = Row->IsLibrary && !BB->Img.Functions.empty();
  O.Witness.Dir = freshDir("near_top");
  Session S(BB->Img, O);
  S.lift();
  S.check();
  const diag::WitnessSummary &W = witness::attachWitnesses(S, &BB->ElfBytes);
  EXPECT_GT(W.Searched, 0u);
  EXPECT_EQ(W.Searched, W.Confirmed + W.Unconfirmed);
}

// ------------------------------------------------------------ determinism

TEST(WitnessDeterminism, BytesIdenticalAcrossThreadsAndReruns) {
  // The regression-fixture path through the shipped binary: plant the
  // vacuous-unsigned mutant during Step 1, then demand byte-identical
  // sidecars and report across reruns and --threads values.
  auto BB = corpus::straightlineBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Elf = freshDir("det") + "/straightline.elf";
  writeBinary(*BB, Elf);

  struct Run {
    std::string Dir, Report;
  } Runs[3];
  const char *Threads[3] = {"1", "1", "2"};
  for (int I = 0; I < 3; ++I) {
    Runs[I].Dir = freshDir("det_run" + std::to_string(I));
    Runs[I].Report = Runs[I].Dir + "/report.json";
    RunResult R = runCli("check " + Elf +
                         " --mutant range-vacuous-unsigned --threads " +
                         Threads[I] + " --witness-dir " + Runs[I].Dir +
                         " --report-json " + Runs[I].Report);
    EXPECT_EQ(R.ExitCode, 1) << R.Output; // check fails: that's the point
    EXPECT_NE(R.Output.find("witnesses: 1 confirmed"), std::string::npos)
        << R.Output;
  }

  // Same sidecar basenames everywhere, and every artifact byte-identical.
  std::set<std::string> Names;
  for (const auto &E : std::filesystem::directory_iterator(Runs[0].Dir))
    if (E.path().filename() != "report.json" &&
        E.path().filename() != "straightline.elf")
      Names.insert(E.path().filename().string());
  EXPECT_EQ(Names.size(), 2u) << "one .elf + one .json sidecar";
  for (int I = 1; I < 3; ++I) {
    SCOPED_TRACE(std::string("run ") + std::to_string(I) + " (threads " +
                 Threads[I] + ")");
    for (const std::string &N : Names)
      EXPECT_EQ(readFileStr(Runs[0].Dir + "/" + N),
                readFileStr(Runs[I].Dir + "/" + N))
          << "sidecar " << N << " differs";
    EXPECT_EQ(readFileStr(Runs[0].Report), readFileStr(Runs[I].Report));
  }

  // And the sidecar replays through the shipped binary's dispatcher.
  for (const std::string &N : Names)
    if (N.size() > 5 && N.substr(N.size() - 5) == ".json") {
      RunResult R = runCli("fuzz --replay " + Runs[0].Dir + "/" + N);
      EXPECT_EQ(R.ExitCode, 0) << R.Output;
      EXPECT_NE(R.Output.find("witness reproduced"), std::string::npos)
          << R.Output;
    }
}

// --------------------------------------------------------- mutation check

TEST(WitnessMutationCheck, KilledMutantsYieldConfirmedWitnesses) {
  // The witness search must be at least as strong as the fuzz campaign's
  // kill verdicts: re-create each killed mutant's killing subject and
  // point probeSite at the recorded kill site. Oracle kills (a concrete
  // walk found the violation) must re-confirm; Step-2 kills must confirm
  // or record a reason — never silence.
  fuzz::FuzzOptions O;
  O.Seed = 1;
  O.Runs = 0;
  O.MutateSemantics = true;
  std::ostringstream Log;
  fuzz::CampaignResult CR = fuzz::runCampaign(O, Log);
  ASSERT_TRUE(CR.Error.empty()) << CR.Error;

  size_t Confirmed = 0, Checked = 0;
  for (const fuzz::MutantOutcome &MO : CR.Mutants) {
    if (!MO.Killed || MO.KillFn == 0)
      continue;
    SCOPED_TRACE(MO.Name + " (killed by " + MO.KilledBy + ")");
    fuzz::Subject Sub = fuzz::regenerateSubject(MO.KillIndex, MO.KillSeed, O);
    ASSERT_TRUE(Sub.BB.has_value());

    // Reconstruct the killing pipeline's mutated lift (Campaign.cpp
    // runPipeline): the mutant corrupts Step 1; the witness search judges
    // with clean semantics.
    const fuzz::Mutant *M = fuzz::findMutant(MO.Name);
    ASSERT_NE(M, nullptr);
    Options SO;
    SO.Library = Sub.Library;
    Session S(Sub.BB->Img, SO);
    {
      fuzz::MutantInstall MI(*M);
      S.lift();
    }
    const hg::BinaryResult &R = S.lift();
    const hg::FunctionResult *F = nullptr;
    for (const hg::FunctionResult &Fn : R.Functions)
      if (Fn.Entry == MO.KillFn)
        F = &Fn;
    ASSERT_NE(F, nullptr) << "kill function vanished on regeneration";

    witness::WitnessOptions WO;
    WO.Budget = 128;
    fuzz::WalkCache Cache(*F);
    diag::WitnessRecord Rec =
        witness::probeSite(Sub.BB->Img, R, *F, Cache, MO.KillAddr,
                           diag::DiagKind::VerificationError, WO,
                           &Sub.BB->ElfBytes);
    ++Checked;
    if (MO.KilledBy == "oracle")
      EXPECT_EQ(Rec.Verdict, "confirmed")
          << "the oracle found a violating state at this site; the "
             "witness search must re-find one (reason: " +
                 Rec.Reason + ")";
    else
      EXPECT_TRUE(Rec.Verdict == "confirmed" || !Rec.Reason.empty());
    if (Rec.Verdict == "confirmed")
      ++Confirmed;
  }
  EXPECT_GT(Checked, 0u) << "campaign killed no mutants — fixture rotted";
  EXPECT_GT(Confirmed, 0u);
}

// ----------------------------------------------------- golden schema lock

const char *typeName(const diag::JValue &V) {
  switch (V.K) {
  case diag::JValue::Kind::Null:
    return "null";
  case diag::JValue::Kind::Bool:
    return "bool";
  case diag::JValue::Kind::Num:
    return "num";
  case diag::JValue::Kind::Str:
    return "str";
  case diag::JValue::Kind::Arr:
    return "arr";
  case diag::JValue::Kind::Obj:
    return "obj";
  }
  return "?";
}

void collectPaths(const diag::JValue &V, const std::string &Path,
                  std::set<std::string> &Out) {
  Out.insert((Path.empty() ? "." : Path) + ": " + typeName(V));
  if (V.isObj())
    for (const auto &[K, Child] : V.Obj)
      collectPaths(Child, Path + "." + K, Out);
  if (V.isArr())
    for (const diag::JValue &Child : V.Arr)
      collectPaths(Child, Path + "[]", Out);
}

void checkGolden(const std::string &File, const std::set<std::string> &Lines) {
  std::string Path = std::string(HGLIFT_GOLDEN_DIR) + "/" + File;
  if (std::getenv("HGLIFT_REGEN_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    for (const std::string &L : Lines)
      Out << L << "\n";
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good())
      << Path << " is missing. If you changed the witness artifact shape, "
      << "bump diag::WitnessSchemaVersion, update docs/WITNESSES.md, and "
      << "regenerate with HGLIFT_REGEN_GOLDEN=1 ctest -R witness_test.";
  std::set<std::string> Golden;
  std::string L;
  while (std::getline(In, L))
    if (!L.empty())
      Golden.insert(L);
  const char *Bump =
      "Changing the shape of the witness sidecar or the report `witnesses` "
      "section requires bumping diag::WitnessSchemaVersion, updating "
      "docs/WITNESSES.md, and regenerating tests/golden "
      "(HGLIFT_REGEN_GOLDEN=1). Consumers key on witness_schema_version.";
  for (const std::string &Have : Lines)
    EXPECT_TRUE(Golden.count(Have))
        << "new key path not in " << File << ": `" << Have << "`\n" << Bump;
  for (const std::string &Want : Golden)
    EXPECT_TRUE(Lines.count(Want))
        << "key path vanished from the artifact: `" << Want << "`\n" << Bump;
}

TEST(WitnessSchema, MatchesGolden) {
  std::set<std::string> Paths;

  // Maximal report `witnesses` section: a confirmed record with sidecars
  // (tamper fixture) plus an unconfirmed one (overflow's function-level
  // error has no lifted graph to search).
  std::string Dir = freshDir("schema");
  auto T = tamperStraightline("rdi0", pred::RelOp::UGe,
                              0xffffffffffffff00ull);
  ASSERT_TRUE(T.has_value());
  witness::WitnessOptions WO;
  WO.Dir = Dir;
  diag::WitnessSummary W =
      witness::searchBinary(T->BB.Img, T->R, &T->C, WO, &T->BB.ElfBytes);
  ASSERT_EQ(W.Confirmed, 1u);
  {
    auto BB = corpus::overflowBinary();
    ASSERT_TRUE(BB.has_value());
    Session S(BB->Img, Options());
    const hg::BinaryResult &R = S.lift();
    const exporter::CheckResult &C = S.check();
    diag::WitnessSummary W2 =
        witness::searchBinary(BB->Img, R, &C, WO, &BB->ElfBytes);
    EXPECT_GT(W2.Unconfirmed, 0u);
    std::ostringstream OS;
    driver::writeReportJson(OS, R, &C, &W2);
    auto V = diag::parseJson(OS.str());
    ASSERT_TRUE(V.has_value()) << OS.str();
    ASSERT_TRUE(V->get("witnesses"));
    collectPaths(*V->get("witnesses"), ".witnesses", Paths);
  }
  {
    std::ostringstream OS;
    driver::writeReportJson(OS, T->R, &T->C, &W);
    auto V = diag::parseJson(OS.str());
    ASSERT_TRUE(V.has_value()) << OS.str();
    const diag::JValue *Wit = V->get("witnesses");
    ASSERT_TRUE(Wit);
    EXPECT_EQ(Wit->num("witness_schema_version"),
              double(diag::WitnessSchemaVersion));
    collectPaths(*Wit, ".witnesses", Paths);
  }

  // The sidecar JSON the confirmed record wrote.
  const diag::WitnessRecord *R = confirmedRecord(W);
  ASSERT_NE(R, nullptr);
  auto Side = diag::parseJson(readFileStr(Dir + "/" + R->SidecarJson));
  ASSERT_TRUE(Side.has_value());
  EXPECT_EQ(Side->num("witness_schema_version"),
            double(diag::WitnessSchemaVersion));
  collectPaths(*Side, ".sidecar", Paths);

  checkGolden("witness_schema_v" +
                  std::to_string(diag::WitnessSchemaVersion) + ".txt",
              Paths);
}

// ------------------------------------------------------------------- soak

TEST(WitnessSoak, EveryErrorConfirmedOrReasoned) {
  // Tier-2: across the full mutant registry and several corpus programs,
  // every Step-2 verification error must either gain a confirmed witness
  // or record why it could not — an empty reason on an unconfirmed record
  // is the one forbidden outcome.
  if (!std::getenv("HGLIFT_WITNESS_SOAK"))
    GTEST_SKIP() << "set HGLIFT_WITNESS_SOAK=1 (tier-2 witness_soak) to run";

  struct Case {
    std::string Name;
    std::optional<corpus::BuiltBinary> BB;
  };
  std::vector<Case> Cases = {
      {"straightline", corpus::straightlineBinary()},
      {"branchloop", corpus::branchLoopBinary()},
      {"callchain", corpus::callChainBinary()},
      {"weirdedge", corpus::weirdEdgeBinary()},
  };
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    corpus::GenOptions G;
    G.Seed = Seed;
    Cases.push_back({"random" + std::to_string(Seed),
                     corpus::randomBinary(G)});
  }
  size_t Errors = 0, Confirmed = 0;
  for (const fuzz::Mutant &M : fuzz::mutantRegistry()) {
    for (Case &C : Cases) {
      SCOPED_TRACE(M.Name + " on " + C.Name);
      ASSERT_TRUE(C.BB.has_value());
      Session S(C.BB->Img, Options());
      {
        fuzz::MutantInstall MI(M);
        S.lift();
        if (M.Scope == fuzz::MutantScope::Both)
          S.check();
      }
      const hg::BinaryResult &R = S.lift();
      const exporter::CheckResult &Chk = S.check();
      if (Chk.Proven == Chk.Theorems)
        continue; // this mutant does not fire on this program
      witness::WitnessOptions WO;
      diag::WitnessSummary W =
          witness::searchBinary(C.BB->Img, R, &Chk, WO, &C.BB->ElfBytes);
      EXPECT_GT(W.Searched, 0u);
      for (const diag::WitnessRecord &Rec : W.Records) {
        ++Errors;
        if (Rec.Verdict == "confirmed") {
          ++Confirmed;
          EXPECT_TRUE(Rec.Reason.empty());
        } else {
          EXPECT_FALSE(Rec.Reason.empty())
              << "unconfirmed witness with no recorded reason (site "
              << std::hex << Rec.Addr << ")";
        }
      }
    }
  }
  EXPECT_GT(Errors, 0u) << "no mutant produced a Step-2 error — soak rotted";
  EXPECT_GT(Confirmed, 0u);
}

} // namespace
