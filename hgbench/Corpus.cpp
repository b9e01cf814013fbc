//===- Corpus.cpp - Seeded benchmark inputs --------------------------------===//
//
// Every input is generated from the run's --seed; hglift only ever sees the
// resulting ELF bytes.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "corpus/Programs.h"
#include "corpus/Suites.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace hglift;
using hglift::x86::Asm;
using hglift::x86::Reg;

namespace hgbench {

std::vector<Input> xenSuite(const std::string &ExpectedPath) {
  // Expected file: "<row directory> <class>" per input, '#' comments.
  std::vector<std::pair<std::string, std::string>> Expected;
  std::ifstream In(ExpectedPath);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Dir, Class;
    if (!(LS >> Dir >> Class))
      return {};
    Expected.emplace_back(Dir, Class);
  }

  corpus::SuiteOptions SO;
  std::vector<Input> Out;
  size_t Idx = 0;
  for (corpus::SuiteRow &Row : corpus::buildXenSuite(SO))
    for (corpus::BuiltBinary &BB : Row.Binaries) {
      if (Idx >= Expected.size() || Expected[Idx].first != Row.Directory) {
        std::fprintf(stderr, "expected-verdict file does not match input %zu "
                             "of the xen suite\n", Idx);
        return {};
      }
      Input I;
      // Inputs share names (the suite reuses handcrafted programs); the
      // index keeps file names and report "binary" fields unique.
      char Name[32];
      std::snprintf(Name, sizeof(Name), "xen%02zu.elf", Idx);
      I.Name = Name;
      I.Library = Row.IsLibrary && !BB.Img.Functions.empty();
      I.Exports = BB.Img.Functions.size();
      I.Expect = Expected[Idx].second;
      I.Bytes = std::move(BB.ElfBytes);
      Out.push_back(std::move(I));
      ++Idx;
    }
  if (Idx != Expected.size()) {
    std::fprintf(stderr, "expected-verdict file lists %zu inputs, the suite "
                         "has %zu\n", Expected.size(), Idx);
    return {};
  }
  return Out;
}

std::vector<Input> fixpointLibraries(unsigned Count) {
  Rng R(0xf163);
  std::vector<Input> Out;
  for (unsigned L = 0; L < Count; ++L) {
    // Total size log-spread over [200, 2000] instructions; seven functions
    // of one share each plus a straggler of four shares.
    double Total = 200.0 * std::pow(10.0, Count > 1 ? double(L) / (Count - 1)
                                                    : 0.0);
    corpus::GenOptions G;
    G.Seed = R.next();
    G.NumFuncs = 8;
    G.TargetInstrs = static_cast<unsigned>(Total / 11.0);
    G.ArgWritePct = static_cast<unsigned>(R.range(15, 30));
    G.JumpTablePct = static_cast<unsigned>(R.range(40, 60));
    char Name[32];
    std::snprintf(Name, sizeof(Name), "lib%02u.so", L);
    G.Name = Name;

    corpus::ProgramBuilder PB(G.Name);
    Rng FR(G.Seed);
    std::vector<Asm::Label> Funcs;
    for (unsigned F = 0; F < G.NumFuncs; ++F) {
      corpus::GenOptions FG = G;
      if (F + 1 == G.NumFuncs)
        FG.TargetInstrs *= 4;
      Funcs.push_back(corpus::emitRandomFunction(PB, FR, FG, Funcs));
      PB.exportFunc("fn_" + std::to_string(F), Funcs.back());
    }
    std::optional<corpus::BuiltBinary> BB =
        PB.build(Funcs[0], /*SharedObject=*/true);
    if (!BB)
      return {};
    Input I;
    I.Name = G.Name;
    I.Library = true;
    I.Bytes = std::move(BB->ElfBytes);
    Out.push_back(std::move(I));
  }
  return Out;
}

PatchableBinary patchableBinary(unsigned Index) {
  Rng R(0xbf58476d1ce4e5b9ULL + Index);
  corpus::GenOptions G;
  G.Seed = R.next();
  G.NumFuncs = static_cast<unsigned>(R.range(2, 4));
  G.TargetInstrs = static_cast<unsigned>(R.range(30, 70));
  char Name[32];
  std::snprintf(Name, sizeof(Name), "extra%03u.elf", Index);
  G.Name = Name;

  // randomBinary's layout, with a recognisable immediate in _start.
  const uint32_t Marker = 0x7e5e0000u | (Index & 0xffffu);
  corpus::ProgramBuilder PB(G.Name);
  Asm &A = PB.text();
  Asm::Label Start = A.newLabel(), Main = A.newLabel();
  A.bind(Start);
  A.endbr64();
  A.movRI(Reg::RDI, Marker, 4);
  A.movRI(Reg::RSI, 0x1000, 4);
  A.movRI(Reg::RDX, 0x2000, 4);
  A.callL(Main);
  A.movRI(Reg::RAX, 60, 4);
  A.xorRR(Reg::RDI, Reg::RDI, 4);
  A.syscall();
  Rng FR(G.Seed);
  std::vector<Asm::Label> Funcs;
  for (unsigned I = 0; I + 1 < G.NumFuncs; ++I)
    Funcs.push_back(corpus::emitRandomFunction(PB, FR, G, Funcs));
  A.bind(Main);
  A.endbr64();
  A.subRI(Reg::RSP, 8, 8);
  for (Asm::Label F : Funcs)
    A.callL(F);
  A.addRI(Reg::RSP, 8, 8);
  A.ret();

  PatchableBinary P;
  std::optional<corpus::BuiltBinary> BB = PB.build(Start);
  if (!BB)
    return P;
  // `mov edi, imm32` is BF followed by the little-endian immediate.
  const uint8_t Pat[5] = {0xbf, uint8_t(Marker), uint8_t(Marker >> 8),
                          uint8_t(Marker >> 16), uint8_t(Marker >> 24)};
  size_t Found = 0, Off = 0;
  for (size_t I = 0; I + 5 <= BB->ElfBytes.size(); ++I)
    if (std::equal(Pat, Pat + 5, BB->ElfBytes.begin() + I)) {
      ++Found;
      Off = I + 1;
    }
  if (Found != 1)
    return P;
  P.In.Name = G.Name;
  P.In.Bytes = std::move(BB->ElfBytes);
  P.PatchOffset = Off;
  return P;
}

Input patchedVariant(const PatchableBinary &B, uint32_t Value,
                     const std::string &Name) {
  Input I = B.In;
  I.Name = Name;
  for (unsigned K = 0; K < 4; ++K)
    I.Bytes[B.PatchOffset + K] = static_cast<uint8_t>(Value >> (8 * K));
  return I;
}

} // namespace hgbench
