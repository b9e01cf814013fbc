//===- fuzz_oracle_test.cpp - Unit tests for the oracle's admission check -===//
//
// stateSatisfies(Pred, OracleCtx, Machine) is the judge the whole fuzzing
// campaign rests on: a wrong "satisfied" hides soundness bugs, a wrong
// "violated" makes every campaign red. These tests pin its behavior on
// handcrafted predicates against handcrafted machine states — register
// clauses, the four flag-abstraction kinds, memory cells, range clauses,
// fresh-leaf havoc, and bottom — including negative cases for each.
//
// The walk cache (fuzz::WalkCache) must be invisible: walks sharing one
// cache per function return exactly what walks with a fresh cache each
// return, and SymExec::step runs at most once per explored vertex per
// cache.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "api/Hglift.h"
#include "corpus/Suites.h"
#include "fuzz/Mutants.h"

#include <gtest/gtest.h>

using namespace hglift;
using expr::Expr;
using expr::ExprContext;
using expr::Opcode;
using expr::VarClass;
using fuzz::OracleCtx;
using fuzz::stateSatisfies;
using pred::FlagState;
using pred::Pred;
using pred::RelOp;
using sem::Machine;
using x86::Reg;
using x86::regFromNum;
using x86::regNum;

namespace {

/// Shared fixture: an empty image (all loads fall back to zero), an
/// expression context with the usual init-register variables, and an
/// OracleCtx whose Init file is a recognizable pattern.
class StateSatisfiesTest : public ::testing::Test {
protected:
  StateSatisfiesTest() : CC(Img), M(Img) {
    CC.Ctx = &Ctx;
    for (unsigned RI = 0; RI < x86::NumGPRs; ++RI) {
      CC.Init[RI] = 0x1000 + RI;
      InitVar[RI] = Ctx.mkVar(VarClass::InitReg,
                              x86::regName(regFromNum(RI)) + "0");
      M.Regs[RI] = CC.Init[RI]; // machine starts agreeing with Init
    }
    CC.RetAddr = kRetAddr;
  }
  static constexpr uint64_t kRetAddr = 0x7fffbeef;

  elf::BinaryImage Img;
  ExprContext Ctx;
  OracleCtx CC;
  Machine M;
  std::array<const Expr *, x86::NumGPRs> InitVar;
};

TEST_F(StateSatisfiesTest, EmptyPredAdmitsAnything) {
  Pred P;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.Regs[0] = 0xdead;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, BottomAdmitsNothing) {
  Pred P;
  P.setBottom();
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, RegClauseConst) {
  Pred P;
  P.setReg64(Reg::RAX, Ctx.mkConst(42));
  M.setReg(Reg::RAX, 42);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.setReg(Reg::RAX, 43);
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, RegClauseInitVar) {
  // rbx == rdi0 + 5
  Pred P;
  P.setReg64(Reg::RBX, Ctx.mkAddK(InitVar[regNum(Reg::RDI)], 5));
  M.setReg(Reg::RBX, CC.Init[regNum(Reg::RDI)] + 5);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.setReg(Reg::RBX, CC.Init[regNum(Reg::RDI)] + 6);
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, RegClauseFreshIsHavoc) {
  // A claim mentioning a Fresh variable admits any machine value; the
  // same goes for External-class variables (results of external calls).
  Pred P;
  P.setReg64(Reg::RCX, Ctx.mkFresh("join"));
  M.setReg(Reg::RCX, 0x1234567812345678ull);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  P.setReg64(Reg::RCX, Ctx.mkAddK(Ctx.mkVar(VarClass::External, "malloc_ret"),
                                  8));
  EXPECT_TRUE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, RetAddrVariableGrounded) {
  Pred P;
  P.setReg64(Reg::R8, Ctx.mkVar(VarClass::RetAddr, "a_r"));
  M.setReg(Reg::R8, kRetAddr);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.setReg(Reg::R8, kRetAddr + 1);
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsCmp) {
  // Flags claimed as cmp(7, 5): ZF=0 SF=0 CF=0 OF=0.
  Pred P;
  P.setFlagsCmp(Ctx.mkConst(7), Ctx.mkConst(5), 64);
  M.ZF = false, M.SF = false, M.CF = false, M.OF = false;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.CF = true; // cmp pins all four flags
  EXPECT_FALSE(stateSatisfies(P, CC, M));
  M.CF = false, M.ZF = true;
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsCmpBorrow) {
  // cmp(5, 7): borrow sets CF, result is negative in 64-bit.
  Pred P;
  P.setFlagsCmp(Ctx.mkConst(5), Ctx.mkConst(7), 64);
  M.ZF = false, M.SF = true, M.CF = true, M.OF = false;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.SF = false;
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsCmpWidth32) {
  // cmp32(0x80000000, 1): 0x80000000 - 1 = 0x7fffffff → SF=0, OF=1.
  Pred P;
  P.setFlagsCmp(Ctx.mkConst(0x80000000ull), Ctx.mkConst(1), 32);
  M.ZF = false, M.SF = false, M.CF = false, M.OF = true;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.OF = false;
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsTest) {
  // test(6, 2): result 2 → ZF=0 SF=0, and test always clears CF/OF.
  Pred P;
  P.setFlagsTest(Ctx.mkConst(6), Ctx.mkConst(2), 64);
  M.ZF = false, M.SF = false, M.CF = false, M.OF = false;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.OF = true; // test pins CF=OF=0
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsResPinsOnlyZfSf) {
  // Res claims only ZF/SF of the result; CF/OF are unconstrained.
  Pred P;
  P.setFlagsRes(Ctx.mkConst(0), 64);
  M.ZF = true, M.SF = false, M.CF = true, M.OF = true; // CF/OF: don't care
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.ZF = false;
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsZeroOfPinsOnlyZf) {
  Pred P;
  P.setFlagsZeroOf(Ctx.mkConst(3), 64);
  M.ZF = false, M.SF = true, M.CF = true, M.OF = true;
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.ZF = true;
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, FlagsFreshOperandSkipped) {
  Pred P;
  P.setFlagsCmp(Ctx.mkFresh("f"), Ctx.mkConst(5), 64);
  M.ZF = true, M.SF = true, M.CF = true, M.OF = true;
  EXPECT_TRUE(stateSatisfies(P, CC, M)); // havoc operand: skip the clause
}

TEST_F(StateSatisfiesTest, MemCell) {
  Pred P;
  P.setCell(Ctx.mkConst(0x5000), 8, Ctx.mkConst(0xabcdef));
  M.store(0x5000, 8, 0xabcdef);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.store(0x5000, 8, 0xabcdee);
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, MemCellNarrowIsMasked) {
  // A 4-byte cell only constrains 4 bytes; the claimed value is compared
  // after masking to the cell width.
  Pred P;
  P.setCell(Ctx.mkConst(0x6000), 4, Ctx.mkConst(0xffffffff11223344ull));
  M.store(0x6000, 4, 0x11223344);
  M.store(0x6004, 4, 0x55667788); // adjacent bytes are unconstrained
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.store(0x6000, 1, 0x45);
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, MemCellVarAddress) {
  // *[rdi0 + 0x10] == rsi0 — both sides grounded through the Init file.
  Pred P;
  unsigned RDI = regNum(Reg::RDI), RSI = regNum(Reg::RSI);
  P.setCell(Ctx.mkAddK(InitVar[RDI], 0x10), 8, InitVar[RSI]);
  M.store(CC.Init[RDI] + 0x10, 8, CC.Init[RSI]);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.store(CC.Init[RDI] + 0x10, 8, CC.Init[RSI] ^ 1);
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, MemCellFreshSkipped) {
  Pred P;
  P.setCell(Ctx.mkConst(0x7000), 8, Ctx.mkFresh("havoc"));
  M.store(0x7000, 8, 0x1234);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
}

TEST_F(StateSatisfiesTest, RangeClauses) {
  unsigned RDX = regNum(Reg::RDX);
  {
    Pred P;
    P.addRange(InitVar[RDX], RelOp::ULt, 0x2000);
    EXPECT_TRUE(stateSatisfies(P, CC, M)); // Init[RDX] = 0x1000 + rdx
  }
  {
    Pred P;
    P.addRange(InitVar[RDX], RelOp::UGt, 0x2000);
    EXPECT_FALSE(stateSatisfies(P, CC, M));
  }
  {
    // Signed comparison: -1 < 0 signed but not unsigned. (Constant
    // expressions are dropped by addRange, so ground through an init
    // variable instead.)
    unsigned R9 = regNum(Reg::R9);
    CC.Init[R9] = 0xffffffffffffffffull;
    Pred P;
    P.addRange(InitVar[R9], RelOp::SLt, 0);
    EXPECT_TRUE(stateSatisfies(P, CC, M));
    Pred Q;
    Q.addRange(InitVar[R9], RelOp::ULt, 0);
    EXPECT_FALSE(stateSatisfies(Q, CC, M));
  }
}

TEST_F(StateSatisfiesTest, ConjunctionFailsOnAnyClause) {
  Pred P;
  P.setReg64(Reg::RAX, Ctx.mkConst(1));
  P.setCell(Ctx.mkConst(0x8000), 8, Ctx.mkConst(2));
  M.setReg(Reg::RAX, 1);
  M.store(0x8000, 8, 2);
  EXPECT_TRUE(stateSatisfies(P, CC, M));
  M.store(0x8000, 8, 3); // one violated clause sinks the conjunction
  EXPECT_FALSE(stateSatisfies(P, CC, M));
}

/// Walk from the entry state seed Seed draws (walkOnce's distribution).
fuzz::WalkResult seededWalk(const elf::BinaryImage &Img,
                            const hg::FunctionResult &F,
                            fuzz::WalkCache &Cache, uint64_t Seed) {
  Rng R(Seed);
  uint64_t MachineSeed = R.next();
  std::array<uint64_t, x86::NumGPRs> Init{};
  for (unsigned RI = 0; RI < x86::NumGPRs; ++RI)
    Init[RI] = R.chance(1, 3) ? R.below(1000) : R.next();
  return fuzz::walkFrom(Img, F, Cache, Init, MachineSeed);
}

void expectSameWalk(const fuzz::WalkResult &A, const fuzz::WalkResult &B) {
  EXPECT_EQ(A.Trace, B.Trace);
  EXPECT_EQ(A.States, B.States);
  ASSERT_EQ(A.Violated, B.Violated);
  if (!A.Violated)
    return;
  EXPECT_EQ(A.V.K, B.V.K);
  EXPECT_EQ(A.V.Addr, B.V.Addr);
  EXPECT_EQ(A.V.PrevRip, B.V.PrevRip);
  EXPECT_EQ(A.V.NextRip, B.V.NextRip);
  EXPECT_EQ(A.V.Message, B.V.Message);
  ASSERT_EQ(A.V.HasFail, B.V.HasFail);
  EXPECT_EQ(A.V.Fail.Clause, B.V.Fail.Clause);
}

/// Lift BB (under Mutant, if given), then for every lifted function: 16
/// seeded walks sharing one cache against the same walks with a fresh
/// cache each. Returns the number of violated walks.
size_t checkWalkCache(const corpus::BuiltBinary &BB,
                      const char *Mutant = nullptr) {
  constexpr uint64_t Seeds = 16;
  const elf::BinaryImage &Img = BB.Img;
  Options O;
  O.Lift.Threads = 1;
  Session S(Img, O);
  if (Mutant) {
    fuzz::MutantInstall MI(*fuzz::findMutant(Mutant));
    S.lift();
  }
  const hg::BinaryResult &R = S.lift();
  size_t Violated = 0, Lifted = 0;
  for (const hg::FunctionResult &F : R.Functions) {
    if (F.Outcome != hg::LiftOutcome::Lifted)
      continue;
    ++Lifted;
    size_t Explored = 0;
    for (const auto &KV : F.Graph.Vertices)
      Explored += KV.second.Explored;
    sem::SymExec &Exec = F.Arena->exec();
    LiftStats Stats;
    Exec.setStats(&Stats);

    fuzz::WalkCache Shared(F);
    std::vector<fuzz::WalkResult> SharedRuns;
    for (uint64_t Seed = 1; Seed <= Seeds; ++Seed)
      SharedRuns.push_back(seededWalk(Img, F, Shared, Seed));
    EXPECT_EQ(Stats.Steps, Shared.size());
    EXPECT_LE(Stats.Steps, Explored) << "function " << F.Entry;

    for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
      SCOPED_TRACE("function " + std::to_string(F.Entry) + " seed " +
                   std::to_string(Seed));
      Stats = LiftStats();
      fuzz::WalkCache Fresh(F);
      fuzz::WalkResult W = seededWalk(Img, F, Fresh, Seed);
      EXPECT_EQ(Stats.Steps, Fresh.size());
      EXPECT_LE(Stats.Steps, Explored);
      expectSameWalk(SharedRuns[Seed - 1], W);
      Violated += W.Violated;
    }
    Exec.setStats(nullptr);
  }
  EXPECT_GT(Lifted, 0u);
  return Violated;
}

const corpus::BuiltBinary &table2Du() {
  static const std::vector<corpus::Table2Entry> Suite =
      corpus::buildCoreutilsSuite();
  for (const corpus::Table2Entry &E : Suite)
    if (E.Name == "du")
      return E.Binary;
  ADD_FAILURE() << "no du in the Table-2 suite";
  return Suite.front().Binary;
}

TEST(WalkCache, SharedCacheMatchesFreshCacheOnTable2Du) {
  const corpus::BuiltBinary &BB = table2Du();
  checkWalkCache(BB);
}

TEST(WalkCache, SharedCacheMatchesFreshCacheOnXen49) {
  std::vector<corpus::SuiteRow> Rows =
      corpus::buildXenSuite(corpus::SuiteOptions());
  size_t Idx = 0;
  for (corpus::SuiteRow &Row : Rows)
    for (corpus::BuiltBinary &BB : Row.Binaries)
      if (Idx++ == 49) {
        ASSERT_FALSE(Row.IsLibrary);
        checkWalkCache(BB);
        return;
      }
  FAIL() << "the xen suite has fewer than 50 inputs";
}

TEST(WalkCache, SharedCacheMatchesFreshCacheOnViolatingWalks) {
  // A lift under a semantics mutant the oracle kills: the walks stop at
  // violations, so the failing clause the cache's successors yield is
  // compared too.
  const corpus::BuiltBinary &BB = table2Du();
  EXPECT_GT(checkWalkCache(BB, "add-imm-off-by-one"), 0u);
}

} // namespace
