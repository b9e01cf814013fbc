//===- Binary.h - Loaded binary image --------------------------*- C++ -*-===//
//
// The lifter's view of a binary (Definition 3.1): an entry point, loadable
// segments with permissions, and symbol information. `fetch` is implemented
// on top of this by the decoder; reads from read-only segments are used to
// concretize jump-table entries (§2: "up to 0xc3 edges: one per read
// value").
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_ELF_BINARY_H
#define HGLIFT_ELF_BINARY_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hglift::elf {

struct Segment {
  uint64_t VAddr = 0;
  std::vector<uint8_t> Bytes;
  bool Exec = false;
  bool Write = false;

  uint64_t end() const { return VAddr + Bytes.size(); }
  /// [A, A + Size) lies inside the segment. Written without A + Size,
  /// which wraps for addresses near UINT64_MAX.
  bool contains(uint64_t A, uint64_t Size = 1) const {
    return A >= VAddr && A <= end() && Size <= end() - A;
  }
};

struct Symbol {
  std::string Name;
  uint64_t Addr = 0;
  uint64_t Size = 0;
  bool IsFunc = false;
};

/// A loaded binary image: what the lifter analyzes.
class BinaryImage {
public:
  uint64_t Entry = 0;
  std::vector<Segment> Segments;
  /// Defined function symbols (entry points for library-function lifting,
  /// like the paper's use of `nm` on Xen's shared objects).
  std::vector<Symbol> Functions;
  /// PLT stub address -> external function name (e.g. 0x401020 -> "memset").
  std::map<uint64_t, std::string> PltStubs;
  /// Human-readable name for reports.
  std::string Name;

  const Segment *segmentAt(uint64_t Addr, uint64_t Size = 1) const {
    for (const Segment &S : Segments)
      if (S.contains(Addr, Size))
        return &S;
    return nullptr;
  }

  /// Read Size bytes (1..8) little-endian. nullopt if unmapped.
  std::optional<uint64_t> read(uint64_t Addr, unsigned Size) const {
    const Segment *S = segmentAt(Addr, Size);
    if (!S)
      return std::nullopt;
    uint64_t V = 0;
    for (unsigned I = 0; I < Size; ++I)
      V |= static_cast<uint64_t>(S->Bytes[Addr - S->VAddr + I]) << (8 * I);
    return V;
  }

  /// Pointer to raw bytes at Addr (at least Avail bytes), or nullptr.
  const uint8_t *bytesAt(uint64_t Addr, size_t &Avail) const {
    const Segment *S = segmentAt(Addr);
    if (!S) {
      Avail = 0;
      return nullptr;
    }
    Avail = S->end() - Addr;
    return S->Bytes.data() + (Addr - S->VAddr);
  }

  bool isExec(uint64_t Addr) const {
    const Segment *S = segmentAt(Addr);
    return S && S->Exec;
  }
  bool isReadOnly(uint64_t Addr, uint64_t Size = 1) const {
    const Segment *S = segmentAt(Addr, Size);
    return S && !S->Write;
  }
  /// Is Addr inside any executable segment? Used by the join heuristic
  /// (§4: immediates "that fall in the range of text sections").
  bool isTextPointer(uint64_t Addr) const { return isExec(Addr); }

  /// External function name if Addr is a PLT stub.
  std::optional<std::string> externalName(uint64_t Addr) const {
    auto It = PltStubs.find(Addr);
    if (It == PltStubs.end())
      return std::nullopt;
    return It->second;
  }
};

} // namespace hglift::elf

#endif // HGLIFT_ELF_BINARY_H
