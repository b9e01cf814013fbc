//===- Reducer.cpp - Delta-debugging reducer for failing binaries ---------===//

#include "fuzz/Reducer.h"

#include <algorithm>
#include <cstring>
#include <map>

namespace hglift::fuzz {

namespace {

/// One reducible atom.
struct Unit {
  uint64_t Addr;
  uint8_t Len;
  uint32_t Func; ///< index into CleanLift.Functions
};

/// Minimal ELF64 program-header walk: vaddr -> file offset for PT_LOAD
/// segments. The corpus emits well-formed little-endian ELF64, which is
/// all the reducer ever patches.
struct SegMap {
  struct Seg {
    uint64_t VAddr, Off, FileSz;
  };
  std::vector<Seg> Segs;

  explicit SegMap(const std::vector<uint8_t> &B) {
    auto U16 = [&](size_t O) {
      return static_cast<uint64_t>(B[O]) | (static_cast<uint64_t>(B[O + 1]) << 8);
    };
    auto U64 = [&](size_t O) {
      uint64_t V = 0;
      for (int I = 7; I >= 0; --I)
        V = (V << 8) | B[O + static_cast<size_t>(I)];
      return V;
    };
    if (B.size() < 0x40)
      return;
    uint64_t PhOff = U64(0x20);
    uint64_t PhEntSz = U16(0x36), PhNum = U16(0x38);
    for (uint64_t I = 0; I < PhNum; ++I) {
      size_t P = static_cast<size_t>(PhOff + I * PhEntSz);
      if (P + 0x38 > B.size())
        break;
      uint32_t Type = static_cast<uint32_t>(U16(P)) |
                      (static_cast<uint32_t>(U16(P + 2)) << 16);
      if (Type != 1) // PT_LOAD
        continue;
      Segs.push_back(Seg{U64(P + 0x10), U64(P + 0x8), U64(P + 0x20)});
    }
  }

  /// File offset of [VAddr, VAddr + Len), or SIZE_MAX when not
  /// file-backed. Written without VAddr + Len, which can wrap.
  size_t offsetOf(uint64_t VAddr, uint64_t Len) const {
    for (const Seg &S : Segs) {
      uint64_t End = S.VAddr + S.FileSz;
      if (VAddr >= S.VAddr && VAddr <= End && Len <= End - VAddr)
        return static_cast<size_t>(S.Off + (VAddr - S.VAddr));
    }
    return SIZE_MAX;
  }
};

} // namespace

ReduceResult reduceBinary(const std::vector<uint8_t> &ElfBytes,
                          const hg::BinaryResult &CleanLift,
                          const FailurePredicate &Fails,
                          size_t MaxPredicateCalls) {
  ReduceResult Res;
  Res.Bytes = ElfBytes;

  // Collect atoms from the clean lift, deduplicated by address (functions
  // reached both as roots and as callees would otherwise double-count).
  std::map<uint64_t, Unit> ByAddr;
  for (uint32_t FI = 0; FI < CleanLift.Functions.size(); ++FI) {
    const hg::FunctionResult &F = CleanLift.Functions[FI];
    if (F.Outcome != hg::LiftOutcome::Lifted)
      continue;
    for (const auto &[Key, V] : F.Graph.Vertices) {
      if (!V.Explored || !V.Instr.isValid())
        continue;
      auto It = ByAddr.find(Key.Rip);
      if (It == ByAddr.end())
        ByAddr.emplace(Key.Rip,
                       Unit{Key.Rip, static_cast<uint8_t>(V.Instr.Length), FI});
    }
  }
  std::vector<Unit> Units;
  Units.reserve(ByAddr.size());
  for (auto &[A, U] : ByAddr)
    Units.push_back(U);

  // File offset of every unit (SIZE_MAX: not file-backed, never patched)
  // and the units of every function, computed once.
  SegMap Map(ElfBytes);
  std::vector<size_t> Off(Units.size());
  std::vector<std::vector<size_t>> FnUnits(CleanLift.Functions.size());
  for (size_t I = 0; I < Units.size(); ++I) {
    Off[I] = Map.offsetOf(Units[I].Addr, Units[I].Len);
    FnUnits[Units[I].Func].push_back(I);
  }
  std::vector<bool> Alive(Units.size(), true);
  size_t NumAlive = Units.size();

  // The working buffer: always the input with every dead unit patched.
  std::vector<uint8_t> &Work = Res.Bytes;

  // Does the unreduced input fail at all?
  ++Res.PredicateCalls;
  Res.Reproduced = Fails(Work);
  auto finish = [&]() {
    Res.InstructionsLeft = NumAlive;
    std::vector<bool> FnAlive(CleanLift.Functions.size(), false);
    for (size_t I = 0; I < Units.size(); ++I)
      if (Alive[I])
        FnAlive[Units[I].Func] = true;
    Res.FunctionsLeft =
        static_cast<size_t>(std::count(FnAlive.begin(), FnAlive.end(), true));
    return Res;
  };
  if (!Res.Reproduced || Units.empty())
    return finish();

  // Try removing the units named by Idxs; keep the removal if the failure
  // still reproduces.
  auto tryRemove = [&](const std::vector<size_t> &Idxs) {
    if (Idxs.empty() || Res.PredicateCalls >= MaxPredicateCalls)
      return false;
    std::vector<size_t> Removed;
    for (size_t I : Idxs)
      if (Alive[I])
        Removed.push_back(I);
    if (Removed.empty() || Removed.size() == NumAlive)
      return false;
    // Patch in place, saving the overwritten bytes: units may overlap, so
    // a rejected candidate restores the buffer, not the input.
    std::vector<uint8_t> Saved;
    for (size_t I : Removed) {
      if (Off[I] == SIZE_MAX)
        continue;
      uint8_t *At = Work.data() + Off[I];
      Saved.insert(Saved.end(), At, At + Units[I].Len);
      std::memset(At, 0x90, Units[I].Len); // nop
    }
    ++Res.PredicateCalls;
    if (Fails(Work)) {
      for (size_t I : Removed)
        Alive[I] = false;
      NumAlive -= Removed.size();
      return true;
    }
    for (size_t K = Removed.size(); K-- > 0;) {
      size_t I = Removed[K];
      if (Off[I] == SIZE_MAX)
        continue;
      size_t From = Saved.size() - Units[I].Len;
      std::memcpy(Work.data() + Off[I], Saved.data() + From, Units[I].Len);
      Saved.resize(From);
    }
    return false;
  };

  // Level 1: whole functions, in index order.
  for (const std::vector<size_t> &Idxs : FnUnits)
    tryRemove(Idxs);

  // Levels 2..n: halving chunks of the surviving instruction list, down
  // to single instructions, then single-instruction passes to a fixpoint.
  size_t Sz = std::max<size_t>(1, NumAlive / 2);
  while (Res.PredicateCalls < MaxPredicateCalls) {
    std::vector<size_t> Live;
    for (size_t I = 0; I < Units.size(); ++I)
      if (Alive[I])
        Live.push_back(I);
    bool Any = false;
    for (size_t At = 0; At < Live.size(); At += Sz) {
      std::vector<size_t> Chunk(
          Live.begin() + static_cast<ptrdiff_t>(At),
          Live.begin() +
              static_cast<ptrdiff_t>(std::min(At + Sz, Live.size())));
      Any |= tryRemove(Chunk);
    }
    if (Sz == 1) {
      if (!Any) {
        Res.Converged = true;
        break;
      }
    } else {
      Sz = std::max<size_t>(1, Sz / 2);
    }
  }
  return finish();
}

} // namespace hglift::fuzz
