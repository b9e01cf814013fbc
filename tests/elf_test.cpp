//===- elf_test.cpp - ELF writer/reader round trip + hostile inputs ------===//

#include "elf/ElfReader.h"
#include "elf/ElfWriter.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace hglift;
using namespace hglift::elf;

namespace {

ElfSpec sampleSpec() {
  ElfSpec Spec;
  Spec.Entry = 0x401000;

  OutSection Text;
  Text.Name = ".text";
  Text.VAddr = 0x401000;
  Text.Bytes = {0xf3, 0x0f, 0x1e, 0xfa, 0xc3};
  Text.Exec = true;
  Spec.Sections.push_back(Text);

  OutSection Ro;
  Ro.Name = ".rodata";
  Ro.VAddr = 0x402000;
  Ro.Bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  Spec.Sections.push_back(Ro);

  OutSection Data;
  Data.Name = ".data";
  Data.VAddr = 0x403000;
  Data.Bytes = {9, 9, 9, 9};
  Data.Write = true;
  Spec.Sections.push_back(Data);

  Spec.Symbols.push_back(OutSymbol{"main", 0x401000, 5, true, false});
  Spec.Symbols.push_back(OutSymbol{"memset", 0x404000, 16, true, true});
  return Spec;
}

TEST(Elf, RoundTrip) {
  std::vector<uint8_t> Bytes = writeElf(sampleSpec());
  auto Img = readElf(Bytes, "sample");
  ASSERT_TRUE(Img.has_value());
  EXPECT_EQ(Img->Entry, 0x401000u);
  EXPECT_EQ(Img->Name, "sample");
  ASSERT_EQ(Img->Segments.size(), 3u);

  EXPECT_TRUE(Img->isExec(0x401000));
  EXPECT_FALSE(Img->isExec(0x402000));
  EXPECT_TRUE(Img->isReadOnly(0x402000, 8));
  EXPECT_FALSE(Img->isReadOnly(0x403000));

  auto V = Img->read(0x402000, 8);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 0x0807060504030201ull);

  ASSERT_EQ(Img->Functions.size(), 1u);
  EXPECT_EQ(Img->Functions[0].Name, "main");
  EXPECT_EQ(Img->Functions[0].Addr, 0x401000u);

  auto Ext = Img->externalName(0x404000);
  ASSERT_TRUE(Ext.has_value());
  EXPECT_EQ(*Ext, "memset");
  EXPECT_FALSE(Img->externalName(0x401000).has_value());
}

TEST(Elf, ReadAcrossBoundsFails) {
  std::vector<uint8_t> Bytes = writeElf(sampleSpec());
  auto Img = readElf(Bytes);
  ASSERT_TRUE(Img.has_value());
  EXPECT_FALSE(Img->read(0x402006, 4).has_value()) << "straddles the end";
  EXPECT_FALSE(Img->read(0x500000, 1).has_value()) << "unmapped";
  size_t Avail = 99;
  EXPECT_EQ(Img->bytesAt(0x500000, Avail), nullptr);
  EXPECT_EQ(Avail, 0u);
}

TEST(Elf, SegmentBoundsDoNotWrap) {
  BinaryImage Img;
  Segment Seg;
  Seg.VAddr = 0x401000;
  Seg.Bytes.assign(0x100, 0);
  Img.Segments.push_back(Seg);
  // UINT64_MAX - 3 + 8 wraps to 4, which is <= end(): the old check
  // accepted the read.
  EXPECT_EQ(Img.segmentAt(UINT64_MAX - 3, 8), nullptr);
  EXPECT_FALSE(Img.read(UINT64_MAX - 3, 8).has_value());
  EXPECT_EQ(Img.segmentAt(UINT64_MAX, 1), nullptr);
  // The last bytes of the segment, and nothing past them.
  EXPECT_EQ(Img.segmentAt(0x4010f8, 8), &Img.Segments[0]);
  EXPECT_EQ(Img.segmentAt(0x4010f9, 8), nullptr);
  EXPECT_EQ(Img.segmentAt(0x401100, 0), &Img.Segments[0]);
  // A size so large that A + Size wraps back into the segment.
  EXPECT_EQ(Img.segmentAt(0x401010, UINT64_MAX - 0x8), nullptr);
}

TEST(Elf, RejectsBadMagicAndClass) {
  std::vector<uint8_t> Bytes = writeElf(sampleSpec());
  {
    auto Bad = Bytes;
    Bad[0] = 0x7e;
    EXPECT_FALSE(readElf(Bad).has_value());
  }
  {
    auto Bad = Bytes;
    Bad[4] = 1; // ELFCLASS32
    EXPECT_FALSE(readElf(Bad).has_value());
  }
  {
    auto Bad = Bytes;
    Bad[18] = 0x03; // EM_386
    EXPECT_FALSE(readElf(Bad).has_value());
  }
}

TEST(Elf, RejectsTruncation) {
  std::vector<uint8_t> Bytes = writeElf(sampleSpec());
  for (size_t Keep : {size_t(0), size_t(10), size_t(63), Bytes.size() / 2}) {
    std::vector<uint8_t> Trunc(Bytes.begin(),
                               Bytes.begin() + static_cast<ptrdiff_t>(Keep));
    EXPECT_FALSE(readElf(Trunc).has_value()) << "kept " << Keep;
  }
}

/// Fuzz-ish: random single-byte corruptions must never crash the parser
/// (they may or may not parse; they must not be UB).
TEST(ElfProperty, ByteFlipsNeverCrash) {
  std::vector<uint8_t> Bytes = writeElf(sampleSpec());
  Rng R(0xe1f);
  for (int Iter = 0; Iter < 3000; ++Iter) {
    auto Bad = Bytes;
    size_t Pos = R.below(Bad.size());
    Bad[Pos] ^= static_cast<uint8_t>(1 + R.below(255));
    auto Img = readElf(Bad);
    if (Img) {
      // If it parsed, basic invariants must hold (no huge segments).
      for (const Segment &S : Img->Segments)
        EXPECT_LE(S.Bytes.size(), uint64_t(1) << 32);
    }
  }
}

TEST(Elf, SharedObjectFlag) {
  ElfSpec Spec = sampleSpec();
  Spec.SharedObject = true;
  auto Img = readElf(writeElf(Spec));
  ASSERT_TRUE(Img.has_value());
}

TEST(Elf, ZeroFillTail) {
  // Memsz > Filesz produces zero-filled .bss-style tail in our reader.
  ElfSpec Spec = sampleSpec();
  std::vector<uint8_t> Bytes = writeElf(Spec);
  auto Img = readElf(Bytes);
  ASSERT_TRUE(Img.has_value());
  // All segments here have Filesz == Memsz; just verify the data content.
  auto V = Img->read(0x403000, 4);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 0x09090909u);
}

} // namespace
