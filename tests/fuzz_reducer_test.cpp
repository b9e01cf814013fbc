//===- fuzz_reducer_test.cpp - Delta-debugging reducer convergence --------===//
//
// Plant a known-bad semantics mutant, let the campaign find a killing
// multi-function binary, and check that the reducer shrinks the failure
// to a minimal reproducer: at most one function and a handful of live
// instructions, written to disk next to a seed sidecar that replays the
// same failure through `hglift fuzz --replay`.
//
// Unit tests on a hand-built image pin the reducer's byte handling: every
// candidate is the input with NOPs exactly at its dead instructions (the
// in-place patching is undone after a rejected candidate), and an
// instruction whose end would wrap past UINT64_MAX is never patched.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"
#include "fuzz/Reducer.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace hglift;
using fuzz::CampaignResult;
using fuzz::FuzzOptions;
using fuzz::ReductionRecord;

namespace {

bool fileExists(const std::string &P) {
  return std::ifstream(P).good();
}

void runReducerDemo(const std::string &MutantName, const char *ExpectLayer) {
  FuzzOptions O;
  O.Seed = 1;
  O.Runs = 0; // mutation probing only
  O.MutateSemantics = true;
  O.MutantFilter = {MutantName};
  O.ReduceMutant = MutantName;
  O.ReproDir = ::testing::TempDir();

  std::ostringstream Log;
  CampaignResult R = fuzz::runCampaign(O, Log);
  ASSERT_TRUE(R.Error.empty()) << R.Error << "\n" << Log.str();
  ASSERT_EQ(R.Reductions.size(), 1u) << Log.str();

  const ReductionRecord &Red = R.Reductions[0];
  EXPECT_EQ(Red.Mutant, MutantName);
  EXPECT_GT(Red.Steps, 0u);

  // Convergence: the planted violation lives in one instruction, so the
  // reducer must strip the binary down to (at most) the function holding
  // it and a short live tail.
  EXPECT_LE(Red.FunctionsAfter, 1u) << Log.str();
  EXPECT_LE(Red.InstructionsAfter, 8u) << Log.str();
  EXPECT_LE(Red.FunctionsAfter, Red.FunctionsBefore);
  EXPECT_LT(Red.InstructionsAfter, Red.InstructionsBefore);
  EXPECT_EQ(Red.Layer, ExpectLayer);

  // The on-disk reproducer pair exists and replays the failure.
  ASSERT_TRUE(fileExists(Red.ReproElf)) << Red.ReproElf;
  ASSERT_TRUE(fileExists(Red.ReproJson)) << Red.ReproJson;
  EXPECT_TRUE(Red.Replayed) << Log.str();

  std::ostringstream ReplayLog;
  EXPECT_EQ(fuzz::replayReproducer(Red.ReproJson, ReplayLog), 0)
      << ReplayLog.str();
}

TEST(FuzzReducer, OracleKilledMutantConverges) {
  runReducerDemo("add-imm-off-by-one", "oracle");
}

TEST(FuzzReducer, CheckerKilledMutantConverges) {
  runReducerDemo("jcc-drop-fallthrough", "step2");
}

TEST(FuzzReducer, ReplayRejectsMalformedInput) {
  std::ostringstream Log;
  EXPECT_EQ(fuzz::replayReproducer("/nonexistent/repro.json", Log), 2);

  std::string Bad = ::testing::TempDir() + "/bad_repro.json";
  std::ofstream(Bad) << "{\"fuzz_schema_version\": 999}";
  EXPECT_EQ(fuzz::replayReproducer(Bad, Log), 2);
}

/// One reducible instruction of a hand-built lift.
struct TinyUnit {
  uint64_t Addr;
  uint8_t Len;
  uint32_t Func;
};

constexpr size_t TinyCodeOff = 0x100;

/// A little-endian ELF64 image with one PT_LOAD segment mapping FileSz
/// bytes at file offset TinyCodeOff to VAddr, followed by 16 bytes no
/// segment maps. No byte after the headers is 0x90, so a NOP patch is
/// always visible, also one that strays past the segment.
std::vector<uint8_t> tinyElf(uint64_t VAddr, uint64_t FileSz) {
  std::vector<uint8_t> B(TinyCodeOff + FileSz + 16, 0xee);
  std::fill(B.begin(), B.begin() + TinyCodeOff, 0);
  auto put = [&](size_t At, uint64_t V, int Bytes) {
    for (int I = 0; I < Bytes; ++I)
      B[At + static_cast<size_t>(I)] = static_cast<uint8_t>(V >> (8 * I));
  };
  std::memcpy(B.data(), "\x7f" "ELF", 4);
  B[4] = 2; // ELFCLASS64
  B[5] = 1; // little-endian
  put(0x20, 0x40, 8); // e_phoff
  put(0x36, 0x38, 2); // e_phentsize
  put(0x38, 1, 2);    // e_phnum
  put(0x40, 1, 4);    // p_type = PT_LOAD
  put(0x48, TinyCodeOff, 8);
  put(0x50, VAddr, 8);
  put(0x60, FileSz, 8);
  for (size_t I = 0; I < FileSz; ++I)
    B[TinyCodeOff + I] = static_cast<uint8_t>(0x10 + I % 0x70);
  return B;
}

/// A clean lift whose functions hold exactly the given instructions.
hg::BinaryResult tinyLift(const std::vector<TinyUnit> &Units) {
  hg::BinaryResult R;
  for (const TinyUnit &U : Units) {
    if (R.Functions.size() <= U.Func)
      R.Functions.resize(U.Func + 1);
    hg::Vertex V;
    V.Key = hg::VertexKey{U.Addr, 0};
    V.Explored = true;
    V.Instr.Mn = x86::Mnemonic::Mov;
    V.Instr.Addr = U.Addr;
    V.Instr.Length = U.Len;
    R.Functions[U.Func].Graph.Vertices.emplace(V.Key, V);
  }
  return R;
}

/// Input with 0x90 at every byte of the units in Dead.
std::vector<uint8_t> patched(std::vector<uint8_t> B, uint64_t VAddr,
                             const std::vector<TinyUnit> &Units,
                             const std::vector<bool> &Dead) {
  for (size_t I = 0; I < Units.size(); ++I)
    if (Dead[I])
      std::memset(B.data() + TinyCodeOff + (Units[I].Addr - VAddr), 0x90,
                  Units[I].Len);
  return B;
}

TEST(FuzzReducer, CandidatesAreTheInputWithDeadUnitsPatched) {
  // Two functions. The failure needs unit 6 (its first byte intact), so
  // every candidate that patches it is rejected and the restore path
  // runs. Units 4 and 5 share a byte: the reducer removes unit 4, then
  // tries units 5 and 6 together, and undoing that candidate must restore
  // the buffer (byte 20 stays a NOP), not the input.
  const uint64_t VAddr = 0x401000;
  const std::vector<TinyUnit> Units = {
      {VAddr + 0, 3, 0},  {VAddr + 3, 2, 0},  {VAddr + 5, 4, 0},
      {VAddr + 16, 2, 1}, {VAddr + 18, 3, 1}, {VAddr + 20, 4, 1},
      {VAddr + 24, 2, 1}, {VAddr + 26, 2, 1},
  };
  const size_t Needed = 6;
  const std::vector<uint8_t> In = tinyElf(VAddr, 32);
  const size_t NeededOff = TinyCodeOff + (Units[Needed].Addr - VAddr);

  std::vector<std::vector<uint8_t>> Seen;
  auto Fails = [&](const std::vector<uint8_t> &B) {
    Seen.push_back(B);
    return B[NeededOff] == In[NeededOff];
  };
  fuzz::ReduceResult RR = fuzz::reduceBinary(In, tinyLift(Units), Fails);
  ASSERT_TRUE(RR.Reproduced);
  EXPECT_TRUE(RR.Converged);
  EXPECT_EQ(RR.PredicateCalls, Seen.size());
  EXPECT_EQ(Seen.front(), In);

  // A unit is dead in a candidate iff all its bytes are NOPs (no unit
  // lies inside the others). Each candidate must be exactly the input
  // with those units patched, and keep every removal accepted so far.
  std::vector<bool> Accepted(Units.size(), false);
  size_t Rejected = 0;
  for (size_t C = 1; C < Seen.size(); ++C) {
    SCOPED_TRACE("candidate " + std::to_string(C));
    const std::vector<uint8_t> &B = Seen[C];
    std::vector<bool> Dead(Units.size());
    for (size_t I = 0; I < Units.size(); ++I) {
      size_t Off = TinyCodeOff + (Units[I].Addr - VAddr);
      Dead[I] = std::all_of(B.begin() + Off, B.begin() + Off + Units[I].Len,
                            [](uint8_t X) { return X == 0x90; });
      EXPECT_TRUE(Dead[I] || !Accepted[I]) << "unit " << I << " revived";
    }
    EXPECT_NE(Dead, Accepted) << "candidate removes nothing";
    ASSERT_EQ(B, patched(In, VAddr, Units, Dead));
    if (B[NeededOff] == In[NeededOff])
      Accepted = Dead;
    else
      ++Rejected;
  }
  EXPECT_GT(Rejected, 0u);

  // Everything but the needed unit goes; the result is the input with
  // exactly those units patched.
  std::vector<bool> AllButNeeded(Units.size(), true);
  AllButNeeded[Needed] = false;
  EXPECT_EQ(Accepted, AllButNeeded);
  EXPECT_EQ(RR.Bytes, patched(In, VAddr, Units, AllButNeeded));
  EXPECT_EQ(RR.InstructionsLeft, 1u);
  EXPECT_EQ(RR.FunctionsLeft, 1u);
}

TEST(FuzzReducer, UnitsWrappingPastTheTopOfMemoryAreNotPatched) {
  // A segment ending at UINT64_MAX. Unit 1 ends exactly there; unit 2
  // starts inside it but its end wraps past 2^64, so it has no file bytes
  // to patch (VAddr + Len wraps to 2, which a naive bound check accepts,
  // patching past the end of the buffer).
  const uint64_t VAddr = UINT64_MAX - 0xf;
  const std::vector<TinyUnit> Units = {
      {VAddr, 4, 1},
      {UINT64_MAX - 4, 4, 0},
      {UINT64_MAX - 1, 4, 0},
  };
  const std::vector<uint8_t> In = tinyElf(VAddr, 0xf);
  std::vector<std::vector<uint8_t>> Seen;
  auto Fails = [&](const std::vector<uint8_t> &B) {
    Seen.push_back(B);
    return true;
  };
  fuzz::ReduceResult RR = fuzz::reduceBinary(In, tinyLift(Units), Fails);
  ASSERT_TRUE(RR.Reproduced);
  // Function 0 (units 1 and 2) goes; unit 0 is the last one left.
  EXPECT_EQ(RR.InstructionsLeft, 1u);
  ASSERT_EQ(RR.Bytes.size(), In.size());
  std::vector<uint8_t> Want = In;
  std::memset(Want.data() + TinyCodeOff + 0xb, 0x90, 4); // unit 1 only
  EXPECT_EQ(RR.Bytes, Want);
  for (const std::vector<uint8_t> &B : Seen)
    EXPECT_TRUE(B == In || B == Want);
}

} // namespace
