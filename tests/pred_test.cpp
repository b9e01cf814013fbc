//===- pred_test.cpp - Predicates: clauses, flags, join, order -----------===//
//
// Property tests for the §3.1 machinery:
//   * join soundness (Definition 3.3):  s ⊢ P ∨ Q  ⟹  s ⊢ P ⊔ Q
//   * ⊑ laws: reflexivity, and P ⊑ P⊔Q / Q ⊑ P⊔Q (upper bound)
//   * Example 3.4: equality clauses widen to ranges
//   * condition-code derivation against concrete flag semantics
//
//===----------------------------------------------------------------------===//

#include "pred/Pred.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace hglift;
using expr::Expr;
using expr::ExprContext;
using expr::Opcode;
using expr::VarClass;
using pred::Pred;
using pred::RelOp;
using x86::Cond;
using x86::Reg;

namespace {

TEST(Pred, RelHoldsTruthTable) {
  // Unsigned relations read the 64-bit patterns, signed ones their
  // int64_t readings: -1 is the largest unsigned value and below 0 signed.
  const uint64_t Neg1 = ~uint64_t(0), Min = uint64_t(1) << 63;
  struct Row {
    RelOp Op;
    uint64_t V, B;
    bool Holds;
  } Rows[] = {
      {RelOp::Eq, 5, 5, true},        {RelOp::Eq, 5, 6, false},
      {RelOp::Ne, 5, 6, true},        {RelOp::Ne, Neg1, Neg1, false},
      {RelOp::ULt, 4, 5, true},       {RelOp::ULt, 5, 5, false},
      {RelOp::ULt, Neg1, 0, false},   {RelOp::ULe, 5, 5, true},
      {RelOp::ULe, 6, 5, false},      {RelOp::UGe, 5, 5, true},
      {RelOp::UGe, 0, Neg1, false},   {RelOp::UGt, Neg1, 0, true},
      {RelOp::UGt, 5, 5, false},      {RelOp::SLt, Neg1, 0, true},
      {RelOp::SLt, Min, Neg1, true},  {RelOp::SLt, 0, Neg1, false},
      {RelOp::SLe, Neg1, Neg1, true}, {RelOp::SLe, 0, Min, false},
      {RelOp::SGe, 0, Neg1, true},    {RelOp::SGe, Min, 0, false},
      {RelOp::SGt, 1, 0, true},       {RelOp::SGt, Neg1, 0, false},
  };
  for (const Row &R : Rows)
    EXPECT_EQ(pred::relHolds(R.Op, R.V, R.B), R.Holds)
        << R.V << " " << pred::relOpName(R.Op) << " " << R.B;
}

TEST(Pred, EntryState) {
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx);
  const Expr *Rsp = P.reg64(Reg::RSP);
  ASSERT_TRUE(Rsp->isVar());
  EXPECT_EQ(Ctx.varInfo(Rsp->varId()).Cls, VarClass::StackBase);
  const pred::MemCell *C = P.findCell(Rsp, 8);
  ASSERT_NE(C, nullptr) << "*[rsp0,8] == a_r must be present";
  EXPECT_EQ(Ctx.varInfo(C->Val->varId()).Cls, VarClass::RetAddr);
}

TEST(Pred, SubRegisterReadWrite) {
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx);
  // 32-bit write zero-extends.
  P.writeReg(Ctx, Reg::RAX, 4, false, Ctx.mkConst(0xdeadbeef, 32));
  EXPECT_EQ(P.reg64(Reg::RAX), Ctx.mkConst(0xdeadbeef, 64));
  // 16-bit write merges.
  P.writeReg(Ctx, Reg::RAX, 2, false, Ctx.mkConst(0x1234, 16));
  EXPECT_EQ(P.reg64(Reg::RAX), Ctx.mkConst(0xdead1234, 64));
  // 8-bit high write merges into bits 8..15.
  P.writeReg(Ctx, Reg::RAX, 1, true, Ctx.mkConst(0xcc, 8));
  EXPECT_EQ(P.reg64(Reg::RAX), Ctx.mkConst(0xdeadcc34, 64));
  // Reads extract.
  EXPECT_EQ(P.readReg(Ctx, Reg::RAX, 1, false), Ctx.mkConst(0x34, 8));
  EXPECT_EQ(P.readReg(Ctx, Reg::RAX, 1, true), Ctx.mkConst(0xcc, 8));
  EXPECT_EQ(P.readReg(Ctx, Reg::RAX, 2), Ctx.mkConst(0xcc34, 16));
  EXPECT_EQ(P.readReg(Ctx, Reg::RAX, 4), Ctx.mkConst(0xdeadcc34, 32));
}

TEST(Pred, Example34_RangeAbstraction) {
  // P = {a = 3}, Q = {a = 4}  ⟹  P ⊔ Q = {a ≥ 3, a ≤ 4} (Example 3.4).
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx), Q = Pred::entry(Ctx);
  P.setReg64(Reg::RAX, Ctx.mkConst(3, 64));
  Q.setReg64(Reg::RAX, Ctx.mkConst(4, 64));
  Pred J = Pred::join(Ctx, P, Q);
  const Expr *A = J.reg64(Reg::RAX);
  EXPECT_TRUE(A->isVar()) << "joined value is a fresh variable";
  Interval I = J.intervalOf(A);
  EXPECT_EQ(I, Interval(3, 4));
}

TEST(Pred, JoinKeepsAgreementDropsDisagreement) {
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx), Q = Pred::entry(Ctx);
  const Expr *Rdi0 = P.reg64(Reg::RDI);
  P.setReg64(Reg::RAX, Ctx.mkAddK(Rdi0, 8));
  Q.setReg64(Reg::RAX, Ctx.mkAddK(Rdi0, 8)); // agree
  P.setReg64(Reg::RBX, Ctx.mkAddK(Rdi0, 1));
  Q.setReg64(Reg::RBX, Ctx.mkAddK(Rdi0, 2)); // disagree, non-const
  Pred J = Pred::join(Ctx, P, Q);
  EXPECT_EQ(J.reg64(Reg::RAX), Ctx.mkAddK(Rdi0, 8));
  EXPECT_TRUE(J.reg64(Reg::RBX)->isVar());
  EXPECT_TRUE(J.reg64(Reg::RBX)->hasFreshLeaf());
}

TEST(Pred, JoinWidening) {
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx), Q = Pred::entry(Ctx);
  P.setReg64(Reg::RAX, Ctx.mkConst(3, 64));
  Q.setReg64(Reg::RAX, Ctx.mkConst(4, 64));
  Pred J = Pred::join(Ctx, P, Q, /*Widen=*/true);
  EXPECT_TRUE(J.intervalOf(J.reg64(Reg::RAX)).isTop())
      << "widening drops the range";
}

TEST(Pred, LeqReflexiveAndBottom) {
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx);
  P.setReg64(Reg::RAX, Ctx.mkConst(7, 64));
  P.addRange(P.reg64(Reg::RDI), RelOp::ULe, 100);
  EXPECT_TRUE(Pred::leq(P, P));
  Pred Bot;
  Bot.setBottom();
  EXPECT_TRUE(Pred::leq(Bot, P));
  EXPECT_FALSE(Pred::leq(P, Bot));
}

TEST(Pred, LeqRangeEntailment) {
  ExprContext Ctx;
  Pred A = Pred::entry(Ctx), B = Pred::entry(Ctx);
  const Expr *X = A.reg64(Reg::RDI);
  A.addRange(X, RelOp::ULe, 10);
  B.addRange(X, RelOp::ULe, 20);
  EXPECT_TRUE(Pred::leq(A, B)) << "x<=10 implies x<=20";
  EXPECT_FALSE(Pred::leq(B, A)) << "x<=20 does not imply x<=10";
}

TEST(Pred, LeqMatchesFreshVariables) {
  ExprContext Ctx;
  Pred A = Pred::entry(Ctx), B = Pred::entry(Ctx);
  const Expr *Rdi0 = A.reg64(Reg::RDI);
  A.setReg64(Reg::RAX, Ctx.mkAddK(Rdi0, 42));
  const Expr *F = Ctx.mkFresh("j");
  B.setReg64(Reg::RAX, F);
  EXPECT_TRUE(Pred::leq(A, B)) << "fresh var matches any value";
  // But the same fresh var must match consistently.
  Pred B2 = B;
  B2.setReg64(Reg::RBX, F);
  Pred A2 = A; // rbx == rbx0 != rax's value
  EXPECT_FALSE(Pred::leq(A2, B2))
      << "one variable cannot stand for two different values";
}

TEST(Pred, IntervalFromClauses) {
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx);
  const Expr *X = Ctx.mkTrunc(P.reg64(Reg::RDI), 32);
  P.addRange(X, RelOp::ULe, 0xc3);
  EXPECT_EQ(P.intervalOf(X), Interval(0, 0xc3));
  auto B = P.unsignedUpperBound(X);
  ASSERT_TRUE(B.has_value());
  EXPECT_EQ(*B, 0xc3u);
  // Through a zext (the jump-table index shape).
  const Expr *Z = Ctx.mkZExt(X, 64);
  auto BZ = P.unsignedUpperBound(Z);
  ASSERT_TRUE(BZ.has_value());
  EXPECT_EQ(*BZ, 0xc3u);
  // Linear combination: 0x4000 + 8*zext(x) in [0x4000, 0x4000+8*0xc3].
  const Expr *Addr = Ctx.mkAddK(
      Ctx.mkBin(Opcode::Mul, Z, Ctx.mkConst(8, 64)), 0x4000);
  EXPECT_EQ(P.intervalOf(Addr), Interval(0x4000, 0x4000 + 8 * 0xc3));
}

TEST(Pred, BottomByContradiction) {
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx);
  const Expr *X = P.reg64(Reg::RDI);
  P.addRange(X, RelOp::ULe, 5);
  P.addRange(X, RelOp::SGe, 10);
  EXPECT_TRUE(P.intervalOf(X).isEmpty());
}

// --- condition codes against concrete flag semantics ----------------------

TEST(PredProperty, CondExprMatchesConcreteCmp) {
  ExprContext Ctx;
  Rng R(0xcc);
  const Cond Conds[] = {Cond::E,  Cond::NE, Cond::B, Cond::AE, Cond::BE,
                        Cond::A,  Cond::L,  Cond::GE, Cond::LE, Cond::G,
                        Cond::S,  Cond::NS};
  for (int Iter = 0; Iter < 4000; ++Iter) {
    unsigned W = R.chance(1, 2) ? 64 : 32;
    uint64_t LV = R.next(), RV = R.chance(1, 3) ? LV : R.next();
    LV = expr::maskToWidth(LV, W);
    RV = expr::maskToWidth(RV, W);

    Pred P = Pred::entry(Ctx);
    P.setFlagsCmp(Ctx.mkConst(LV, W), Ctx.mkConst(RV, W), W);

    // Concrete flags of L - R.
    uint64_t Res = expr::maskToWidth(LV - RV, W);
    bool ZF = Res == 0;
    bool SF = expr::signExtend(Res, W) < 0;
    bool CF = LV < RV;
    bool SL = expr::signExtend(LV, W) < expr::signExtend(RV, W);
    bool OF = SL != SF;

    for (Cond CC : Conds) {
      const Expr *E = P.condExpr(Ctx, CC);
      ASSERT_NE(E, nullptr);
      ASSERT_TRUE(E->isConst()) << "constant operands must fold";
      bool Expected;
      switch (CC) {
      case Cond::E:
        Expected = ZF;
        break;
      case Cond::NE:
        Expected = !ZF;
        break;
      case Cond::B:
        Expected = CF;
        break;
      case Cond::AE:
        Expected = !CF;
        break;
      case Cond::BE:
        Expected = CF || ZF;
        break;
      case Cond::A:
        Expected = !CF && !ZF;
        break;
      case Cond::L:
        Expected = SF != OF;
        break;
      case Cond::GE:
        Expected = SF == OF;
        break;
      case Cond::LE:
        Expected = ZF || (SF != OF);
        break;
      case Cond::G:
        Expected = !ZF && (SF == OF);
        break;
      case Cond::S:
        Expected = SF;
        break;
      case Cond::NS:
        Expected = !SF;
        break;
      default:
        Expected = false;
      }
      EXPECT_EQ(E->constVal() != 0, Expected)
          << condName(CC) << " L=" << LV << " R=" << RV << " W=" << W;
    }
  }
}

// --- join soundness property (Definition 3.3) ------------------------------

struct Scenario {
  ExprContext &Ctx;
  Rng &R;
  std::array<uint64_t, x86::NumGPRs> InitVals;
  uint64_t RetAddrVal = 0xdead0000;

  uint64_t valueOfVar(uint32_t Id) const {
    const expr::VarInfo &VI = Ctx.varInfo(Id);
    if (VI.Cls == VarClass::RetAddr)
      return RetAddrVal;
    for (unsigned I = 0; I < x86::NumGPRs; ++I)
      if (VI.Name == x86::regName(x86::regFromNum(I)) + "0")
        return InitVals[I];
    // Fresh variables: a fixed arbitrary value derived from the id.
    return 0x1111111111111111ull * (Id + 1);
  }

  /// Apply a random sequence of register updates to P; return the concrete
  /// register state they produce under this scenario.
  std::array<uint64_t, x86::NumGPRs> randomize(Pred &P) {
    auto Vars = [this](uint32_t Id) { return valueOfVar(Id); };
    for (int I = 0; I < 6; ++I) {
      Reg D = x86::regFromNum(static_cast<unsigned>(R.below(14)));
      if (D == Reg::RSP)
        continue;
      const Expr *Src = P.reg64(x86::regFromNum(
          static_cast<unsigned>(R.below(x86::NumGPRs))));
      const Expr *V;
      switch (R.below(3)) {
      case 0:
        V = Ctx.mkConst(R.next() & 0xffff, 64);
        break;
      case 1:
        V = Ctx.mkAddK(Src, R.range(-64, 64));
        break;
      default:
        V = Ctx.mkBin(Opcode::Xor, Src, Ctx.mkConst(R.next() & 0xff, 64));
        break;
      }
      P.setReg64(D, V);
    }
    std::array<uint64_t, x86::NumGPRs> Out;
    for (unsigned I = 0; I < x86::NumGPRs; ++I)
      Out[I] = *expr::evalExpr(P.reg64(x86::regFromNum(I)), Vars);
    return Out;
  }
};

TEST(PredProperty, JoinSoundnessAndUpperBound) {
  ExprContext Ctx;
  Rng R(0x10f);
  for (int Iter = 0; Iter < 400; ++Iter) {
    Scenario Sc{Ctx, R, {}, 0xdead0000};
    for (auto &V : Sc.InitVals)
      V = R.next();

    Pred P = Pred::entry(Ctx), Q = Pred::entry(Ctx);
    auto SP = Sc.randomize(P);
    auto SQ = Sc.randomize(Q);

    // Add a satisfied range clause to each.
    auto AddTrueClause = [&](Pred &X) {
      const Expr *E = X.reg64(x86::regFromNum(
          static_cast<unsigned>(R.below(x86::NumGPRs))));
      auto Vars = [&](uint32_t Id) { return Sc.valueOfVar(Id); };
      uint64_t V = *expr::evalExpr(E, Vars);
      if (static_cast<int64_t>(V) >= 0)
        X.addRange(E, RelOp::ULe, V + R.below(100));
      else
        X.addRange(E, RelOp::SLe, V + R.below(100));
    };
    AddTrueClause(P);
    AddTrueClause(Q);

    auto Vars = [&](uint32_t Id) { return Sc.valueOfVar(Id); };
    auto InitMem = [&](uint64_t, uint32_t) -> uint64_t { return 0; };
    auto CurMem = [&](uint64_t Addr, uint32_t) -> uint64_t {
      return Addr == Sc.InitVals[x86::regNum(Reg::RSP)] ? Sc.RetAddrVal : 0;
    };

    ASSERT_TRUE(P.holds(Vars, InitMem, SP, CurMem));
    ASSERT_TRUE(Q.holds(Vars, InitMem, SQ, CurMem));

    Pred J = Pred::join(Ctx, P, Q);
    // Soundness: both concrete states satisfy the join. Fresh variables
    // introduced by the join are unconstrained; instantiate them with the
    // state's own values by re-deriving a valuation per side.
    auto HoldsWithFresh =
        [&](const std::array<uint64_t, x86::NumGPRs> &S) {
          auto VarsJ = [&](uint32_t Id) -> uint64_t {
            const expr::VarInfo &VI = Ctx.varInfo(Id);
            if (VI.Cls == VarClass::Fresh) {
              // Join variables are named j_<reg>#n: bind to the concrete
              // register value of this side.
              for (unsigned I = 0; I < x86::NumGPRs; ++I) {
                std::string Prefix =
                    "j_" + x86::regName(x86::regFromNum(I)) + "#";
                if (VI.Name.rfind(Prefix, 0) == 0)
                  return S[I];
              }
            }
            return Sc.valueOfVar(Id);
          };
          return J.holds(VarsJ, InitMem, S, CurMem);
        };
    EXPECT_TRUE(HoldsWithFresh(SP)) << "s ⊢ P ⟹ s ⊢ P⊔Q";
    EXPECT_TRUE(HoldsWithFresh(SQ)) << "s ⊢ Q ⟹ s ⊢ P⊔Q";

    // Order-theoretic upper bound.
    EXPECT_TRUE(Pred::leq(P, J)) << "P ⊑ P⊔Q";
    EXPECT_TRUE(Pred::leq(Q, J)) << "Q ⊑ P⊔Q";
    // Idempotence via the order.
    EXPECT_TRUE(Pred::leq(Pred::join(Ctx, P, P), P));
  }
}

} // namespace
