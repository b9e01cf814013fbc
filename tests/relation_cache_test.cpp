//===- relation_cache_test.cpp - Hot-path caching correctness ------------===//
//
// The caching layer must be invisible: every answer a cached solver gives
// is the answer the uncached solver gives, mutating a predicate can never
// resurrect a stale entry, and the whole lifting pipeline produces
// bit-identical results with the caches on — serially and in parallel.
// The two worklist orders must agree on graph structure (vertices, edges,
// outcomes); their invariants may differ because join order matters in a
// non-distributive domain. These tests pin each of those properties
// directly; bench_step1_hotpath measures what the caches buy.
//
//===----------------------------------------------------------------------===//

#include "api/Hglift.h"
#include "corpus/Programs.h"
#include "hg/Lifter.h"
#include "hg/StateMemo.h"
#include "smt/RelationSolver.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace hglift;
using expr::Expr;
using expr::ExprContext;
using expr::VarClass;
using pred::Pred;
using pred::RelOp;
using smt::MemRel;
using smt::Region;
using smt::RelationSolver;

namespace {

// --- version stamps -------------------------------------------------------

TEST(PredVersion, EveryMutatorBumps) {
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx);
  uint64_t V = P.version();
  auto Bumped = [&](const char *What) {
    EXPECT_NE(P.version(), V) << What << " did not re-stamp";
    V = P.version();
  };

  P.setReg64(x86::Reg::RAX, Ctx.mkConst(1, 64));
  Bumped("setReg64");
  P.writeReg(Ctx, x86::Reg::RBX, 4, false, Ctx.mkConst(2, 32));
  Bumped("writeReg");
  P.setFlagsCmp(Ctx.mkConst(1, 64), Ctx.mkConst(2, 64), 64);
  Bumped("setFlagsCmp");
  P.setFlagsTest(Ctx.mkConst(1, 64), Ctx.mkConst(1, 64), 64);
  Bumped("setFlagsTest");
  P.setFlagsRes(Ctx.mkConst(3, 64), 64);
  Bumped("setFlagsRes");
  P.setFlagsZeroOf(Ctx.mkConst(3, 64), 64);
  Bumped("setFlagsZeroOf");
  P.clearFlags();
  Bumped("clearFlags");

  const Expr *A = Ctx.mkAddK(P.reg64(x86::Reg::RSP), -8);
  P.setCell(A, 8, Ctx.mkConst(7, 64));
  Bumped("setCell");
  P.removeCell(A, 8);
  Bumped("removeCell");
  P.setCell(A, 8, Ctx.mkConst(7, 64));
  Bumped("setCell (re-add)");
  P.filterCells([](const pred::MemCell &) { return false; });
  Bumped("filterCells");

  const Expr *E = Ctx.mkVar(VarClass::InitReg, "rdi0");
  P.addRange(E, RelOp::ULe, 100);
  Bumped("addRange");
  P.clearRangesFor(E);
  Bumped("clearRangesFor");
  P.setBottom();
  Bumped("setBottom");
}

TEST(PredVersion, NoOpMutationsKeepStamp) {
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx);
  const Expr *A = Ctx.mkAddK(P.reg64(x86::Reg::RSP), -8);
  const Expr *V7 = Ctx.mkConst(7, 64);
  P.setCell(A, 8, V7);
  uint64_t V = P.version();
  P.setCell(A, 8, V7); // same value: content unchanged
  EXPECT_EQ(P.version(), V);
  P.removeCell(A, 16); // no such cell
  EXPECT_EQ(P.version(), V);
  P.clearRangesFor(A); // no ranges on A
  EXPECT_EQ(P.version(), V);
}

TEST(PredVersion, CopiesShareStampUntilMutated) {
  ExprContext Ctx;
  Pred P = Pred::entry(Ctx);
  Pred Q = P;
  EXPECT_EQ(P.version(), Q.version());
  EXPECT_TRUE(P == Q);
  EXPECT_EQ(P.digest(), Q.digest());
  Q.setReg64(x86::Reg::RAX, Ctx.mkConst(5, 64));
  EXPECT_NE(P.version(), Q.version());
  EXPECT_FALSE(P == Q);
}

TEST(PredVersion, DigestFollowsContent) {
  // Two predicates built independently but identically have equal digests;
  // the digest memo keyed on the version stamp does not leak stale values
  // across mutations.
  ExprContext Ctx;
  Pred A = Pred::entry(Ctx), B = Pred::entry(Ctx);
  EXPECT_EQ(A.digest(), B.digest());
  A.setReg64(x86::Reg::RAX, Ctx.mkConst(1, 64));
  uint64_t DMut = A.digest();
  EXPECT_NE(DMut, B.digest());
  B.setReg64(x86::Reg::RAX, Ctx.mkConst(1, 64));
  EXPECT_EQ(A.digest(), B.digest());
}

// --- the relation cache ---------------------------------------------------

/// A pool of addresses exercising every solver layer: stack offsets,
/// argument-pointer offsets, globals, scaled indices.
std::vector<const Expr *> addrPool(ExprContext &Ctx, const Pred &P) {
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);
  const Expr *Rdi0 = Ctx.mkVar(VarClass::InitReg, "rdi0");
  const Expr *Idx = Ctx.mkZExt(Ctx.mkTrunc(Rdi0, 32), 64);
  std::vector<const Expr *> Pool;
  for (int64_t K : {0, -8, -16, -24, 4})
    Pool.push_back(Ctx.mkAddK(Rsp0, K));
  for (int64_t K : {0, 8, 12})
    Pool.push_back(Ctx.mkAddK(Rdi0, K));
  Pool.push_back(Ctx.mkConst(0x404000, 64));
  Pool.push_back(Ctx.mkConst(0x404010, 64));
  Pool.push_back(Ctx.mkAddK(
      Ctx.mkAdd(Rsp0, Ctx.mkBin(expr::Opcode::Mul, Idx, Ctx.mkConst(8, 64))),
      -0x20));
  return Pool;
}

TEST(RelationCache, CachedMatchesUncachedRandomized) {
  // The exactness property: for a randomized workload of relate() and
  // mustEqual() queries — with repeats, so the cache actually hits — the
  // cached solver and the uncached solver agree on every single answer.
  // Z3 is off so both solvers are pure functions of their inputs.
  ExprContext Ctx;
  RelationSolver::Config On, Off;
  On.UseZ3 = Off.UseZ3 = false;
  On.EnableCache = true;
  Off.EnableCache = false;
  RelationSolver Cached(Ctx, On), Uncached(Ctx, Off);

  Pred P = Pred::entry(Ctx);
  std::vector<const Expr *> Pool = addrPool(Ctx, P);
  Rng R(0xcac4e);
  const uint32_t Sizes[] = {1, 4, 8, 16};

  for (int Round = 0; Round < 4; ++Round) {
    for (int I = 0; I < 400; ++I) {
      Region R0{Pool[R.next() % Pool.size()],
                Sizes[R.next() % std::size(Sizes)]};
      Region R1{Pool[R.next() % Pool.size()],
                Sizes[R.next() % std::size(Sizes)]};
      ASSERT_EQ(Cached.relate(R0, R1, P), Uncached.relate(R0, R1, P))
          << "round " << Round << " query " << I << ": " << R0.str(Ctx)
          << " vs " << R1.str(Ctx);
      ASSERT_EQ(Cached.mustEqual(R0.Addr, R1.Addr, P),
                Uncached.mustEqual(R0.Addr, R1.Addr, P));
    }
    // Evolve the predicate between rounds; old entries must never leak.
    const Expr *Idx = Ctx.mkTrunc(Pool[5], 32);
    P.addRange(Idx, RelOp::ULe, 2 + static_cast<uint64_t>(Round));
  }
  EXPECT_GT(Cached.stats().CacheHits, 0u) << "workload never hit the cache";
  EXPECT_GT(Cached.stats().CacheMisses, 0u);
  EXPECT_EQ(Uncached.stats().CacheHits, 0u);
  EXPECT_EQ(Uncached.stats().CacheMisses, 0u);
}

TEST(RelationCache, RepeatQueryHitsMutationMisses) {
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.UseZ3 = false;
  RelationSolver S(Ctx, Cfg);
  Pred P = Pred::entry(Ctx);
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);
  Region R0{Ctx.mkAddK(Rsp0, -8), 8}, R1{Rsp0, 8};

  EXPECT_EQ(S.relate(R0, R1, P), MemRel::MustSep);
  uint64_t Misses = S.stats().CacheMisses;
  EXPECT_EQ(S.stats().CacheHits, 0u);
  EXPECT_EQ(S.relate(R0, R1, P), MemRel::MustSep);
  EXPECT_EQ(S.stats().CacheHits, 1u) << "identical re-query must hit";
  EXPECT_EQ(S.stats().CacheMisses, Misses);

  // Any mutation re-stamps P: same regions, fresh version, cache miss.
  uint64_t OldVer = P.version();
  P.setReg64(x86::Reg::RAX, Ctx.mkConst(1, 64));
  EXPECT_NE(P.version(), OldVer);
  EXPECT_EQ(S.relate(R0, R1, P), MemRel::MustSep);
  EXPECT_EQ(S.stats().CacheHits, 1u);
  EXPECT_EQ(S.stats().CacheMisses, Misses + 1)
      << "mutated predicate must not hit entries of its old version";
}

TEST(RelationCache, MutationNeverResurrectsStaleAnswer) {
  // The sharp version of invalidation: a mutation that *changes the
  // answer* for the same (regions) pair. A bounded index makes the access
  // separate from the return-address slot; the bound arriving after the
  // unbounded query was cached must not be shadowed by the stale entry,
  // and dropping the bound again must not leak the bounded answer.
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.UseZ3 = false;
  RelationSolver S(Ctx, Cfg);
  Pred P = Pred::entry(Ctx);
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);
  const Expr *Rdi0 = Ctx.mkVar(VarClass::InitReg, "rdi0");
  const Expr *I32 = Ctx.mkTrunc(Rdi0, 32);
  const Expr *Idx = Ctx.mkZExt(I32, 64);
  const Expr *A = Ctx.mkAddK(
      Ctx.mkAdd(Rsp0, Ctx.mkBin(expr::Opcode::Mul, Idx, Ctx.mkConst(8, 64))),
      -0x20);
  Region RA{A, 8}, RRet{Rsp0, 8};

  EXPECT_EQ(S.relate(RA, RRet, P), MemRel::Unknown);
  EXPECT_EQ(S.relate(RA, RRet, P), MemRel::Unknown); // cached
  P.addRange(I32, RelOp::ULe, 2);
  EXPECT_EQ(S.relate(RA, RRet, P), MemRel::MustSep)
      << "stale Unknown survived the mutation";
  P.clearRangesFor(I32);
  EXPECT_EQ(S.relate(RA, RRet, P), MemRel::Unknown)
      << "stale MustSep survived the mutation";
}

TEST(RelationCache, CapSweepsStaleVersions) {
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.UseZ3 = false;
  Cfg.CacheCap = 8;
  RelationSolver S(Ctx, Cfg);
  Pred P = Pred::entry(Ctx);
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);

  // Far more distinct (query, version) pairs than the cap can hold.
  for (int Round = 0; Round < 16; ++Round) {
    for (int64_t K = 0; K < 8; ++K)
      S.relate(Region{Ctx.mkAddK(Rsp0, -8 * K), 8}, Region{Rsp0, 8}, P);
    P.setReg64(x86::Reg::RAX, Ctx.mkConst(Round, 64));
  }
  EXPECT_GT(S.stats().CacheInvalidated, 0u)
      << "cap never triggered the stale sweep";
  // Exactness survives the churn.
  EXPECT_EQ(S.relate(Region{Ctx.mkAddK(Rsp0, -8), 8}, Region{Rsp0, 8}, P),
            MemRel::MustSep);
}

TEST(RelationCache, CapEvictsLiveEntriesWhenSweepFreesNothing) {
  // One hot predicate, never mutated: when the maps hit the cap there is
  // nothing stale to sweep, so the still-hittable entries are cleared.
  // That MUST be counted as eviction, not invalidation — the two have
  // opposite performance meanings (stale sweeps are free wins, live
  // evictions are capacity misses).
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.UseZ3 = false;
  Cfg.CacheCap = 8;
  RelationSolver S(Ctx, Cfg);
  Pred P = Pred::entry(Ctx);
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);

  for (int64_t K = 0; K < 64; ++K)
    S.relate(Region{Ctx.mkAddK(Rsp0, -8 * K), 8}, Region{Rsp0, 8}, P);
  EXPECT_GT(S.stats().CacheEvicted, 0u)
      << "cap under a single live version never cleared";
  EXPECT_EQ(S.stats().CacheInvalidated, 0u)
      << "live-entry clears must not masquerade as stale sweeps";
  EXPECT_EQ(S.relate(Region{Ctx.mkAddK(Rsp0, -8), 8}, Region{Rsp0, 8}, P),
            MemRel::MustSep);
}

TEST(RelationCache, NoSweepCountersBelowCap) {
  // The healthy steady state — and the reason `rel_cache_invalidated: 0`
  // in --stats-json is not a dead counter: version-keyed entries make
  // mutation itself the invalidation (stale keys just stop being
  // queried), so the sweep counters only move when the cap forces a
  // cleanup. Below the cap both stay zero no matter how often the
  // predicate mutates.
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.UseZ3 = false; // default CacheCap (1 << 16), far above this traffic
  RelationSolver S(Ctx, Cfg);
  Pred P = Pred::entry(Ctx);
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);
  for (int Round = 0; Round < 8; ++Round) {
    for (int64_t K = 0; K < 8; ++K)
      S.relate(Region{Ctx.mkAddK(Rsp0, -8 * K), 8}, Region{Rsp0, 8}, P);
    P.setReg64(x86::Reg::RAX, Ctx.mkConst(Round, 64));
  }
  EXPECT_EQ(S.stats().CacheInvalidated, 0u);
  EXPECT_EQ(S.stats().CacheEvicted, 0u);
  EXPECT_GT(S.stats().CacheMisses, 0u);
}

TEST(RelationCache, LiftStatsMirrorsSweepAndEvictionCounters) {
  // --stats-json reads the LiftStats mirror, not RelationSolver::Stats;
  // the two must agree for every counter the report exposes.
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.UseZ3 = false;
  Cfg.CacheCap = 8;
  RelationSolver S(Ctx, Cfg);
  hglift::LiftStats LS;
  S.setLiftStats(&LS);
  Pred P = Pred::entry(Ctx);
  const Expr *Rsp0 = P.reg64(x86::Reg::RSP);

  // Phase 1: churn versions so the cap triggers stale sweeps.
  for (int Round = 0; Round < 16; ++Round) {
    for (int64_t K = 0; K < 8; ++K)
      S.relate(Region{Ctx.mkAddK(Rsp0, -8 * K), 8}, Region{Rsp0, 8}, P);
    P.setReg64(x86::Reg::RAX, Ctx.mkConst(Round, 64));
  }
  // Phase 2: hammer one version so the cap forces live evictions.
  for (int64_t K = 0; K < 64; ++K)
    S.relate(Region{Ctx.mkAddK(Rsp0, -8 * K), 8}, Region{Rsp0, 8}, P);

  EXPECT_GT(S.stats().CacheInvalidated, 0u);
  EXPECT_GT(S.stats().CacheEvicted, 0u);
  EXPECT_EQ(LS.RelCacheInvalidated, S.stats().CacheInvalidated);
  EXPECT_EQ(LS.RelCacheEvicted, S.stats().CacheEvicted);
  EXPECT_EQ(LS.RelCacheHits, S.stats().CacheHits);
  EXPECT_EQ(LS.RelCacheMisses, S.stats().CacheMisses);
  EXPECT_EQ(LS.SolverQueries, S.stats().Queries);
}

// --- lazy Z3 context ------------------------------------------------------

TEST(LazyZ3, LiftAndCheckOfCallChainBuildNoContext) {
  // Every query of this corpus binary resolves in tiers 0/1 or the
  // allocation-class layer, so no arena — lift or Step-2 check — may pay
  // for a Z3 context.
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  Session Sess(BB->Img, Options());
  const hg::BinaryResult &R = Sess.lift();
  ASSERT_EQ(R.Outcome, hg::LiftOutcome::Lifted) << R.FailReason;
  EXPECT_TRUE(Sess.check().allProven());
  ASSERT_GT(R.Functions.size(), 1u);
  uint64_t Queries = 0;
  for (const hg::FunctionResult &F : R.Functions) {
    ASSERT_TRUE(F.Arena);
    Queries += F.Arena->solver().stats().Queries;
    EXPECT_FALSE(F.Arena->solver().hasZ3Context()) << hexStr(F.Entry);
  }
  EXPECT_GT(Queries, 0u) << "the solver was never consulted";
}

#ifdef HGLIFT_WITH_Z3
TEST(LazyZ3, FirstAdmittedQueryBuildsOnePersistentContext) {
  // An unsigned lower bound only the bit-vector theory sees: tier 2
  // admits the query (the range clause mentions the address's leaf).
  ExprContext Ctx;
  RelationSolver S(Ctx);
  Pred P = Pred::entry(Ctx);
  const Expr *Rdi0 = Ctx.mkVar(VarClass::InitReg, "rdi0");
  P.addRange(Rdi0, RelOp::UGe, 0x600000);
  EXPECT_FALSE(S.hasZ3Context()) << "constructor built a context";

  // A tier-0 query does not build one.
  EXPECT_EQ(S.relate(Region{Rdi0, 8}, Region{Ctx.mkAddK(Rdi0, 8), 8}, P),
            MemRel::MustSep);
  EXPECT_FALSE(S.hasZ3Context());

  EXPECT_EQ(S.relate(Region{Rdi0, 8}, Region{Ctx.mkConst(0x500000, 64), 8},
                     P),
            MemRel::MustSep);
  EXPECT_TRUE(S.hasZ3Context());
  EXPECT_EQ(S.stats().Z3Queries, 1u);

  // The second admitted query under the same predicate reuses the base
  // assertions of the first: same backend, same context.
  EXPECT_EQ(S.relate(Region{Rdi0, 8}, Region{Ctx.mkConst(0x400000, 64), 8},
                     P),
            MemRel::MustSep);
  EXPECT_TRUE(S.hasZ3Context());
  EXPECT_EQ(S.stats().Z3Queries, 2u);
  EXPECT_EQ(S.stats().Z3CtxReuses, 1u);
}
#endif

TEST(LazyZ3, UseZ3OffNeverBuildsContext) {
  ExprContext Ctx;
  RelationSolver::Config Cfg;
  Cfg.UseZ3 = false;
  for (bool Portfolio : {true, false}) {
    Cfg.Portfolio = Portfolio;
    RelationSolver S(Ctx, Cfg);
    Pred P = Pred::entry(Ctx);
    const Expr *Rdi0 = Ctx.mkVar(VarClass::InitReg, "rdi0");
    P.addRange(Rdi0, RelOp::UGe, 0x600000);
    Region R0{Rdi0, 8}, R1{Ctx.mkConst(0x500000, 64), 8};
    EXPECT_EQ(S.relate(R0, R1, P), MemRel::Unknown);
    EXPECT_EQ(S.decideWithTierOnly(R0, R1, P, smt::Tier::Z3).Rel,
              MemRel::Unknown);
    EXPECT_FALSE(S.mustEqual(Rdi0, R1.Addr, P));
    EXPECT_EQ(S.stats().Z3Queries, 0u);
    EXPECT_FALSE(S.hasZ3Context()) << "portfolio=" << Portfolio;
  }
}

// --- the leq memo ---------------------------------------------------------

TEST(StateLeqMemo, MatchesDirectLeq) {
  // Randomized agreement between the memoized and the direct abstraction
  // order, with repeated probes so hits occur, plus counter plumbing.
  ExprContext Ctx;
  Rng R(0x1e9);
  std::vector<Pred> Preds;
  for (int I = 0; I < 8; ++I) {
    Pred P = Pred::entry(Ctx);
    if (R.next() % 2)
      P.setReg64(x86::Reg::RAX, Ctx.mkConst(R.next() % 3, 64));
    if (R.next() % 2)
      P.setCell(Ctx.mkAddK(P.reg64(x86::Reg::RSP), -8), 8,
                Ctx.mkConst(R.next() % 3, 64));
    if (R.next() % 2)
      P.addRange(Ctx.mkVar(VarClass::InitReg, "rdi0"), RelOp::ULe,
                 R.next() % 5);
    Preds.push_back(std::move(P));
  }
  std::vector<mem::MemModel> Mems;
  for (int I = 0; I < 4; ++I) {
    mem::MemModel M;
    const Expr *Rsp0 = Preds[0].reg64(x86::Reg::RSP);
    M.Forest.push_back(mem::MemTree{{Region{Rsp0, 8}}, {}});
    if (I % 2)
      M.Forest.push_back(
          mem::MemTree{{Region{Ctx.mkAddK(Rsp0, -16), 8}}, {}});
    if (I >= 2)
      M.noteWrite(Region{Ctx.mkAddK(Rsp0, -16), 8});
    Mems.push_back(std::move(M));
  }

  LiftStats Stats;
  hg::StateLeqMemo Memo;
  Memo.setLiftStats(&Stats);
  for (int Pass = 0; Pass < 3; ++Pass) {
    for (const Pred &A : Preds)
      for (const Pred &B : Preds)
        ASSERT_EQ(Memo.predLeq(A, B), Pred::leq(A, B));
    for (const mem::MemModel &A : Mems)
      for (const mem::MemModel &B : Mems)
        ASSERT_EQ(Memo.memLeq(A, B), mem::MemModel::leq(A, B));
  }
  EXPECT_GT(Stats.LeqHits, 0u) << "repeated probes never hit the memo";
  EXPECT_GT(Stats.LeqMisses, 0u);

  // Disabled memo forwards and stops counting hits.
  uint64_t Hits = Stats.LeqHits;
  Memo.setEnabled(false);
  for (const Pred &A : Preds)
    ASSERT_EQ(Memo.predLeq(A, Preds[0]), Pred::leq(A, Preds[0]));
  EXPECT_EQ(Stats.LeqHits, Hits);
}

// --- whole-pipeline identity ----------------------------------------------

std::string liftFingerprint(const corpus::BuiltBinary &BB,
                            const hg::LiftConfig &Cfg, bool Library) {
  hg::Lifter L(BB.Img, Cfg);
  hg::BinaryResult R = Library ? L.liftLibrary() : L.liftBinary();
  std::string S;
  S += std::string(hg::liftOutcomeName(R.Outcome)) + " " + R.FailReason + "\n";
  for (const hg::FunctionResult &F : R.Functions) {
    S += "fn " + hexStr(F.Entry) + " " + hg::liftOutcomeName(F.Outcome) +
         " ret " + std::to_string(F.MayReturn) + " v " +
         std::to_string(F.Graph.Vertices.size()) + " j " +
         std::to_string(F.Stats.Joins) + "\n";
    for (const auto &[Key, V] : F.Graph.Vertices)
      S += "  v " + hexStr(Key.Rip) + "/" + hexStr(Key.CtrlHash) + " P " +
           V.State.P.str(F.ctx()) + " M " + V.State.M.str(F.ctx()) + "\n";
    for (const hg::Edge &E : F.Graph.Edges)
      S += "  e " + hexStr(E.From.Rip) + "->" + hexStr(E.To.Rip) + "\n";
    for (const std::string &O : F.Obligations)
      S += "  o " + O + "\n";
  }
  return S;
}

TEST(HotPath, CachingOnByDefaultAndInvisibleToResults) {
  // The config defaults are the optimized mode...
  hg::LiftConfig Def;
  EXPECT_TRUE(Def.Solver.EnableCache);
  EXPECT_TRUE(Def.LeqMemo);
  EXPECT_TRUE(Def.OrderedWorklist);
  // ...and turning every hot-path optimization off changes nothing
  // observable (same worklist order, so even fresh names align).
  hg::LiftConfig Plain;
  Plain.Solver.EnableCache = false;
  Plain.LeqMemo = false;
  for (auto Make : {corpus::branchLoopBinary, corpus::weirdEdgeBinary,
                    corpus::callChainBinary}) {
    auto BB = Make();
    ASSERT_TRUE(BB.has_value());
    EXPECT_EQ(liftFingerprint(*BB, Def, false),
              liftFingerprint(*BB, Plain, false));
  }
}

TEST(HotPath, SerialAndParallelIdenticalWithCachesOn) {
  // Version stamps are handed out from one process-wide atomic counter, so
  // concurrent lifts interleave stamp *values* — hit/miss behaviour (and
  // with it every result) must still be schedule-independent, because only
  // stamp equality within one function's lift can matter.
  corpus::GenOptions G;
  G.Seed = 0xca11;
  G.NumFuncs = 6;
  G.TargetInstrs = 35;
  auto BB = corpus::randomLibrary(G);
  ASSERT_TRUE(BB.has_value());
  hg::LiftConfig Cfg; // caches on by default
  Cfg.Threads = 1;
  std::string Serial = liftFingerprint(*BB, Cfg, true);
  for (unsigned T : {2u, 4u, 8u}) {
    Cfg.Threads = T;
    EXPECT_EQ(Serial, liftFingerprint(*BB, Cfg, true)) << "threads=" << T;
  }
}

/// The order-independent structure of a lift: per-function outcome class
/// and the set of explored instruction addresses. Exploration order
/// legitimately changes everything finer — joins are order-sensitive in a
/// non-distributive domain, so LIFO and ordered exploration can stabilize
/// on different (equally sound) invariants, obligation sets, edges (which
/// derive from invariant precision at indirect jumps and returns), and
/// failure messages. What every exhaustive order must agree on is which
/// instructions are reachable and whether the function lifts.
std::string shapeFingerprint(const corpus::BuiltBinary &BB,
                             const hg::LiftConfig &Cfg) {
  hg::Lifter L(BB.Img, Cfg);
  hg::BinaryResult R = L.liftBinary();
  std::string S = std::string(hg::liftOutcomeName(R.Outcome)) + "\n";
  for (const hg::FunctionResult &F : R.Functions) {
    S += "fn " + hexStr(F.Entry) + " " + hg::liftOutcomeName(F.Outcome);
    if (F.Outcome != hg::LiftOutcome::Lifted) {
      // Everything else about a failed lift — the partial graph, how far
      // exploration got, even MayReturn — is order-dependent state.
      S += "\n";
      continue;
    }
    S += " ret " + std::to_string(F.MayReturn) + "\n";
    std::vector<uint64_t> Rips;
    for (const auto &[Key, V] : F.Graph.Vertices)
      if (Key.Rip < 0xfffffffffffffff0ull) // skip synthetic sinks
        Rips.push_back(Key.Rip);
    std::sort(Rips.begin(), Rips.end());
    Rips.erase(std::unique(Rips.begin(), Rips.end()), Rips.end());
    for (uint64_t Rip : Rips)
      S += "  i " + hexStr(Rip) + "\n";
  }
  return S;
}

TEST(HotPath, OrderedAndLifoWorklistsAgree) {
  // Both exploration orders are exhaustive, so they must agree on the
  // structure: same per-function outcomes, same instructions explored.
  // (Finer identity across orders is NOT expected — see shapeFingerprint.
  // Cache on/off identity at a fixed order is the strict test above.)
  hg::LiftConfig Ord, Lifo;
  Lifo.OrderedWorklist = false;
  for (auto Make : {corpus::straightlineBinary, corpus::branchLoopBinary,
                    corpus::callChainBinary, corpus::weirdEdgeBinary,
                    corpus::stackProbeBinary}) {
    auto BB = Make();
    ASSERT_TRUE(BB.has_value());
    EXPECT_EQ(shapeFingerprint(*BB, Ord), shapeFingerprint(*BB, Lifo));
  }
  // And at the LIFO order too, caching stays bit-invisible.
  hg::LiftConfig LifoPlain = Lifo;
  LifoPlain.Solver.EnableCache = false;
  LifoPlain.LeqMemo = false;
  auto BB = corpus::branchLoopBinary();
  ASSERT_TRUE(BB.has_value());
  EXPECT_EQ(liftFingerprint(*BB, Lifo, false),
            liftFingerprint(*BB, LifoPlain, false));
}

} // namespace
