//===- cost_ledger_test.cpp - Persisted lift-cost ledger ------------------===//
//
// The cost ledger orders the shard scheduler's queue and must never do
// anything else: records serialize deterministically, anything that is
// not an exact canonical record is a miss (validate-don't-trust, the
// artifact store's posture), and observations fold in as a bounded EWMA.
// The end-to-end half of the contract — a trashed ledger cannot perturb a
// single merged-report byte — is pinned in shard_test.cpp.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "elf/ElfReader.h"
#include "store/CostLedger.h"
#include "support/ScratchDir.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

using namespace hglift;
namespace fs = std::filesystem;

namespace {

std::string tmpPath(const std::string &Name) {
  static const ScratchDir Dir("hglift_cost_ledger");
  return Dir.file(Name);
}

std::string freshDir(const std::string &Name) {
  std::string Dir = tmpPath(Name);
  fs::remove_all(Dir);
  return Dir;
}

TEST(CostRecordFormat, SerializationIsCanonicalAndRoundTrips) {
  store::CostRecord R{0x0123456789abcdefULL, 1.5, 3};
  std::string Bytes = store::serializeCostRecord(R);
  EXPECT_EQ(Bytes, "hgcost 1 0123456789abcdef 1.500000 3\n");
  // Deterministic: same record, same bytes, every time.
  EXPECT_EQ(Bytes, store::serializeCostRecord(R));

  auto Parsed = store::parseCostRecord(Bytes);
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(*Parsed, R);

  // Small keys keep the fixed 16-digit field (canonical form depends on it).
  store::CostRecord Small{7, 0.000001, 1};
  auto P2 = store::parseCostRecord(store::serializeCostRecord(Small));
  ASSERT_TRUE(P2.has_value());
  EXPECT_EQ(*P2, Small);
}

TEST(CostRecordFormat, NonCanonicalBytesAreMissesNotGuesses) {
  std::string Good =
      store::serializeCostRecord(store::CostRecord{42, 2.25, 5});
  ASSERT_TRUE(store::parseCostRecord(Good).has_value());

  // Every corruption class degrades to nullopt: truncation, trailing
  // junk, version drift, non-canonical float text, absurd values.
  EXPECT_FALSE(store::parseCostRecord("").has_value());
  EXPECT_FALSE(
      store::parseCostRecord(Good.substr(0, Good.size() / 2)).has_value());
  EXPECT_FALSE(store::parseCostRecord(Good + "extra").has_value());
  EXPECT_FALSE(store::parseCostRecord("hgcost 9 000000000000002a 2.250000 5\n")
                   .has_value());
  EXPECT_FALSE(store::parseCostRecord("hgcost 1 000000000000002a 2.25 5\n")
                   .has_value())
      << "non-canonical float rendering must not parse";
  EXPECT_FALSE(store::parseCostRecord("hgcost 1 000000000000002a nan 5\n")
                   .has_value());
  EXPECT_FALSE(
      store::parseCostRecord("hgcost 1 000000000000002a 2.250000 0\n")
          .has_value())
      << "zero samples is not a record";
  EXPECT_FALSE(store::parseCostRecord(
                   "hgcost 1 000000000000002a 9999999.000000 5\n")
                   .has_value())
      << "absurd seconds must be rejected";
}

TEST(CostLedgerIo, MissingCorruptAndMismatchedEntriesDegradeToMiss) {
  store::CostLedger L(freshDir("degrade"));

  // Missing directory, missing entry: plain misses.
  EXPECT_FALSE(L.lookup(1).has_value());

  ASSERT_TRUE(L.record(1, 2.0));
  ASSERT_TRUE(L.lookup(1).has_value());

  // A record stored under the wrong key (filesystem tampering) must not
  // be served for that key.
  std::string Stolen = store::serializeCostRecord(store::CostRecord{1, 2.0, 1});
  {
    std::ofstream Out(L.entryPath(9), std::ios::trunc);
    Out << Stolen;
  }
  EXPECT_FALSE(L.lookup(9).has_value());

  // Scribble over the good entry: miss, not garbage seconds.
  {
    std::ofstream Out(L.entryPath(1), std::ios::trunc);
    Out << "hgcost 1 what even is this";
  }
  EXPECT_FALSE(L.lookup(1).has_value());

  // And a fresh observation repairs it.
  ASSERT_TRUE(L.record(1, 4.0));
  auto R = L.lookup(1);
  ASSERT_TRUE(R.has_value());
  EXPECT_DOUBLE_EQ(R->Seconds, 4.0);
  EXPECT_EQ(R->Samples, 1u);
}

TEST(CostLedgerIo, ObservationsFoldAsEwma) {
  store::CostLedger L(freshDir("ewma"));
  ASSERT_TRUE(L.record(5, 8.0));
  ASSERT_TRUE(L.record(5, 4.0)); // 0.5*8 + 0.5*4
  ASSERT_TRUE(L.record(5, 2.0)); // 0.5*6 + 0.5*2
  auto R = L.lookup(5);
  ASSERT_TRUE(R.has_value());
  EXPECT_DOUBLE_EQ(R->Seconds, 4.0);
  EXPECT_EQ(R->Samples, 3u);

  // Junk observations are refused outright, leaving the record alone.
  EXPECT_FALSE(L.record(5, -1.0));
  EXPECT_FALSE(L.record(5, std::nan("")));
  auto R2 = L.lookup(5);
  ASSERT_TRUE(R2.has_value());
  EXPECT_EQ(*R2, *R);
}

TEST(CostKey, TracksInstructionBytesOnly) {
  corpus::GenOptions G;
  G.Seed = 3;
  G.NumFuncs = 3;
  G.TargetInstrs = 15;
  auto A = corpus::randomLibrary(G);
  ASSERT_TRUE(A.has_value());
  G.Seed = 4; // different code
  auto B = corpus::randomLibrary(G);
  ASSERT_TRUE(B.has_value());

  auto Load = [](const corpus::BuiltBinary &BB, const std::string &Path) {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(BB.ElfBytes.data()),
              static_cast<std::streamsize>(BB.ElfBytes.size()));
    Out.close();
    return elf::readElfFile(Path);
  };
  auto ImgA = Load(*A, tmpPath("key_a.elf"));
  auto ImgA2 = Load(*A, tmpPath("key_a2.elf"));
  auto ImgB = Load(*B, tmpPath("key_b.elf"));
  ASSERT_TRUE(ImgA && ImgA2 && ImgB);

  // Same bytes, same key (independent of path); different code, different
  // key.
  EXPECT_EQ(store::costKey(*ImgA), store::costKey(*ImgA2));
  EXPECT_NE(store::costKey(*ImgA), store::costKey(*ImgB));
}

} // namespace
