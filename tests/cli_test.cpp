//===- cli_test.cpp - End-to-end hglift CLI integration ------------------===//
//
// Exercises the shipped tool the way a user would: write a real ELF file,
// invoke `hglift` with its flags, inspect exit codes and artifacts.
//
//===----------------------------------------------------------------------===//

#include "corpus/Programs.h"
#include "support/ScratchDir.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#ifndef HGLIFT_BIN
#error "HGLIFT_BIN must point at the hglift executable"
#endif

using namespace hglift;

namespace {

std::string tmpPath(const std::string &Name) {
  static const ScratchDir Dir("hglift_cli");
  return Dir.file(Name);
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

TEST(Cli, LiftSucceedsWithCheck) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("callchain.elf");
  writeBinary(*BB, Path);

  RunResult R = runCli(Path + " --check");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("outcome: lifted"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("Hoare triples proven"), std::string::npos);
}

TEST(Cli, RejectionExitsNonzero) {
  auto BB = corpus::overflowBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("overflow.elf");
  writeBinary(*BB, Path);

  RunResult R = runCli(Path);
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("unprovable-return"), std::string::npos)
      << R.Output;
}

TEST(Cli, ExportsArtifacts) {
  auto BB = corpus::jumpTableBinary(6);
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("jt.elf");
  writeBinary(*BB, Path);
  std::string Thy = tmpPath("jt.thy"), Dot = tmpPath("jt.dot");
  std::remove(Thy.c_str());
  std::remove(Dot.c_str());

  RunResult R = runCli(Path + " --export-isabelle " + Thy +
                       " --export-dot " + Dot);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;

  std::ifstream ThyIn(Thy);
  ASSERT_TRUE(ThyIn.good());
  std::stringstream ThyS;
  ThyS << ThyIn.rdbuf();
  EXPECT_NE(ThyS.str().find("theory "), std::string::npos);
  EXPECT_NE(ThyS.str().find("lemma "), std::string::npos);

  std::ifstream DotIn(Dot);
  ASSERT_TRUE(DotIn.good());
  std::stringstream DotS;
  DotS << DotIn.rdbuf();
  EXPECT_NE(DotS.str().find("digraph"), std::string::npos);
  EXPECT_NE(DotS.str().find("->"), std::string::npos);
}

TEST(Cli, WeirdEdgeVisibleInDot) {
  auto BB = corpus::weirdEdgeBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("weird.elf");
  writeBinary(*BB, Path);
  std::string Dot = tmpPath("weird.dot");

  RunResult R = runCli(Path + " --export-dot " + Dot);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::ifstream DotIn(Dot);
  std::stringstream DotS;
  DotS << DotIn.rdbuf();
  EXPECT_NE(DotS.str().find("weird"), std::string::npos)
      << "the §2 ROP edge must be flagged in the graph";
}

// Minimal JSON syntax checker: enough to reject unbalanced or truncated
// output from --stats-json without pulling in a parser dependency.
bool validJson(const std::string &S, size_t &I);

bool skipWs(const std::string &S, size_t &I) {
  while (I < S.size() && std::isspace(static_cast<unsigned char>(S[I])))
    ++I;
  return I < S.size();
}

bool validString(const std::string &S, size_t &I) {
  if (S[I] != '"')
    return false;
  for (++I; I < S.size(); ++I) {
    if (S[I] == '\\')
      ++I;
    else if (S[I] == '"') {
      ++I;
      return true;
    }
  }
  return false;
}

bool validJson(const std::string &S, size_t &I) {
  if (!skipWs(S, I))
    return false;
  char C = S[I];
  if (C == '{' || C == '[') {
    char Close = C == '{' ? '}' : ']';
    ++I;
    if (!skipWs(S, I))
      return false;
    if (S[I] == Close) {
      ++I;
      return true;
    }
    while (true) {
      if (C == '{') {
        if (!skipWs(S, I) || !validString(S, I) || !skipWs(S, I) ||
            S[I] != ':')
          return false;
        ++I;
      }
      if (!validJson(S, I) || !skipWs(S, I))
        return false;
      if (S[I] == ',') {
        ++I;
        continue;
      }
      if (S[I] == Close) {
        ++I;
        return true;
      }
      return false;
    }
  }
  if (C == '"')
    return validString(S, I);
  size_t J = I;
  while (J < S.size() && (std::isalnum(static_cast<unsigned char>(S[J])) ||
                          S[J] == '-' || S[J] == '+' || S[J] == '.'))
    ++J;
  if (J == I)
    return false;
  I = J;
  return true;
}

bool validJsonDoc(const std::string &S) {
  size_t I = 0;
  if (!validJson(S, I))
    return false;
  skipWs(S, I);
  return I == S.size();
}

TEST(Cli, StatsJsonEmitsValidJson) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("stats.elf");
  writeBinary(*BB, Path);
  std::string Json = tmpPath("stats.json");
  std::remove(Json.c_str());

  RunResult R = runCli(Path + " --stats-json " + Json);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("wrote lifting stats"), std::string::npos);

  std::ifstream In(Json);
  ASSERT_TRUE(In.good()) << "stats file not written";
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Doc = SS.str();

  EXPECT_TRUE(validJsonDoc(Doc)) << Doc;
  // Per-binary totals and the per-function stat fields must be present.
  for (const char *Key :
       {"\"binary\"", "\"outcome\"", "\"totals\"", "\"functions\"",
        "\"entry\"", "\"vertices\"", "\"joins\"", "\"widenings\"",
        "\"steps\"", "\"solver_queries\"", "\"seconds\""})
    EXPECT_NE(Doc.find(Key), std::string::npos) << "missing " << Key << "\n"
                                                << Doc;
  // callChainBinary has multiple functions: each gets its own record.
  size_t Entries = 0;
  for (size_t P = Doc.find("\"entry\""); P != std::string::npos;
       P = Doc.find("\"entry\"", P + 1))
    ++Entries;
  EXPECT_GE(Entries, 2u);
}

TEST(Cli, ThreadsFlagMatchesSerial) {
  auto BB = corpus::jumpTableBinary(5);
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("threads.elf");
  writeBinary(*BB, Path);

  RunResult R1 = runCli(Path + " --threads 1");
  RunResult R4 = runCli(Path + " --threads 4");
  EXPECT_EQ(R1.ExitCode, 0) << R1.Output;
  EXPECT_EQ(R4.ExitCode, R1.ExitCode);
  EXPECT_NE(R4.Output.find("outcome: lifted"), std::string::npos)
      << R4.Output;
  // The reports must agree apart from wall-clock timing lines.
  auto Strip = [](const std::string &S) {
    std::stringstream In(S), Out;
    std::string Line;
    while (std::getline(In, Line))
      if (Line.find("seconds") == std::string::npos &&
          Line.find("wall") == std::string::npos)
        Out << Line << "\n";
    return Out.str();
  };
  EXPECT_EQ(Strip(R1.Output), Strip(R4.Output));
}

TEST(Cli, BadFileRejected) {
  std::string Path = tmpPath("garbage.bin");
  std::ofstream(Path) << "this is not an elf";
  RunResult R = runCli(Path);
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("cannot parse"), std::string::npos);
}

TEST(Cli, UnknownFlagUsage) {
  RunResult R = runCli("/dev/null --frobnicate");
  EXPECT_EQ(R.ExitCode, 2);
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(Cli, LiftSpellingAccepted) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("liftspelling.elf");
  writeBinary(*BB, Path);

  RunResult R = runCli("--lift " + Path);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("outcome: lifted"), std::string::npos) << R.Output;
}

TEST(Cli, ReportJsonDeterministicAcrossThreads) {
  auto BB = corpus::overflowBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("reportdet.elf");
  writeBinary(*BB, Path);

  std::string First;
  for (unsigned Threads : {1u, 2u, 4u}) {
    std::string Json = tmpPath("reportdet.json");
    std::remove(Json.c_str());
    RunResult R = runCli("--lift " + Path + " --check --threads " +
                         std::to_string(Threads) + " --report-json " + Json);
    EXPECT_NE(R.Output.find("wrote verification report"), std::string::npos)
        << R.Output;
    std::string Doc = slurp(Json);
    ASSERT_FALSE(Doc.empty());
    EXPECT_TRUE(validJsonDoc(Doc)) << Doc;
    EXPECT_NE(Doc.find("\"schema_version\""), std::string::npos);
    EXPECT_NE(Doc.find("\"provenance\""), std::string::npos)
        << "diagnostics must carry provenance:\n"
        << Doc;
    if (First.empty())
      First = Doc;
    else
      EXPECT_EQ(First, Doc)
          << "report bytes must not depend on --threads (threads="
          << Threads << ")";
  }
}

TEST(Cli, ExplainRendersRootCauseNarrative) {
  // The acceptance-criteria walkthrough: induce a verification error
  // (overflowBinary writes through the return address), produce a report,
  // and render it. The narrative must name the failing instruction and
  // show the relation-query chain.
  auto BB = corpus::overflowBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("explain.elf");
  writeBinary(*BB, Path);
  std::string Json = tmpPath("explain.json");

  RunResult Lift = runCli(Path + " --check --report-json " + Json);
  EXPECT_NE(Lift.ExitCode, 0) << "overflow must be rejected";

  RunResult R = runCli("explain " + Json);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("verification report for"), std::string::npos);
  EXPECT_NE(R.Output.find("verification-error"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("`ret`"), std::string::npos)
      << "the failing instruction's mnemonic must appear:\n"
      << R.Output;
  EXPECT_NE(R.Output.find("relation queries"), std::string::npos)
      << R.Output;

  // --function filters to one function; a bogus filter matches nothing.
  RunResult None = runCli("explain " + Json + " --function 0xdead");
  EXPECT_EQ(None.ExitCode, 0);
  EXPECT_NE(None.Output.find("no diagnostics"), std::string::npos)
      << None.Output;
}

TEST(Cli, ExplainRejectsGarbage) {
  std::string Path = tmpPath("notareport.json");
  std::ofstream(Path) << "not json";
  RunResult R = runCli("explain " + Path);
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("not a JSON report"), std::string::npos)
      << R.Output;
}

TEST(Cli, FuzzSubcommandCleanAndDeterministic) {
  std::string J1 = tmpPath("fuzz1.json"), J2 = tmpPath("fuzz2.json");
  std::remove(J1.c_str());
  std::remove(J2.c_str());

  RunResult R1 = runCli("fuzz --seed 9 --runs 4 --fuzz-json " + J1);
  EXPECT_EQ(R1.ExitCode, 0) << R1.Output;
  EXPECT_NE(R1.Output.find("campaign PASS"), std::string::npos) << R1.Output;

  std::string Doc = slurp(J1);
  ASSERT_FALSE(Doc.empty()) << "fuzz report not written";
  EXPECT_TRUE(validJsonDoc(Doc)) << Doc;
  EXPECT_NE(Doc.find("\"fuzz_schema_version\": 1"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"oracle_violations\": 0"), std::string::npos) << Doc;

  // Same seed, second process: the report must be byte-identical.
  RunResult R2 = runCli("fuzz --seed 9 --runs 4 --fuzz-json " + J2);
  EXPECT_EQ(R2.ExitCode, 0) << R2.Output;
  EXPECT_EQ(Doc, slurp(J2)) << "fuzz report must be deterministic";
}

TEST(Cli, FuzzUnknownMutantUsage) {
  RunResult R = runCli("fuzz --seed 1 --runs 0 --mutate-semantics "
                       "--mutants no-such-mutant");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
}

TEST(Cli, TraceEmitsValidJsonLines) {
  auto BB = corpus::callChainBinary();
  ASSERT_TRUE(BB.has_value());
  std::string Path = tmpPath("trace.elf");
  writeBinary(*BB, Path);
  std::string Trace = tmpPath("trace.jsonl");
  std::remove(Trace.c_str());

  RunResult R = runCli(Path + " --check --threads 4 --trace " + Trace);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;

  std::ifstream In(Trace);
  ASSERT_TRUE(In.good()) << "trace file not written";
  std::string Line;
  size_t Lines = 0;
  bool SawBegin = false, SawLift = false, SawCheck = false, SawEnd = false;
  while (std::getline(In, Line)) {
    ++Lines;
    EXPECT_TRUE(validJsonDoc(Line)) << "line " << Lines << ": " << Line;
    SawBegin |= Line.find("\"trace_begin\"") != std::string::npos;
    SawLift |= Line.find("\"lift_end\"") != std::string::npos;
    SawCheck |= Line.find("\"edge_check\"") != std::string::npos;
    SawEnd |= Line.find("\"trace_end\"") != std::string::npos;
  }
  EXPECT_GT(Lines, 4u);
  EXPECT_TRUE(SawBegin && SawLift && SawCheck && SawEnd)
      << "begin=" << SawBegin << " lift=" << SawLift
      << " check=" << SawCheck << " end=" << SawEnd;
}

} // namespace
