//===- Common.cpp - Span log, metrics, process readings --------------------===//

#include "Bench.h"

#include "diag/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

namespace hgbench {

long SpanLog::begin(const char *Name, uint64_t Op, long Parent) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Op = Op;
  S.Parent = Parent;
  S.StartMs = msBetween(Epoch, Clock::now());
  Spans.push_back(std::move(S));
  return static_cast<long>(Spans.size() - 1);
}

void SpanLog::end(long Idx) {
  if (On && Idx >= 0)
    Spans[static_cast<size_t>(Idx)].EndMs = msBetween(Epoch, Clock::now());
}

void SpanLog::add(const char *Name, uint64_t Op, long Parent,
                  Clock::time_point A, Clock::time_point B) {
  if (!On)
    return;
  Span S;
  S.Name = Name;
  S.Op = Op;
  S.Parent = Parent;
  S.StartMs = msBetween(Epoch, A);
  S.EndMs = msBetween(Epoch, B);
  Spans.push_back(std::move(S));
}

std::map<std::string, std::pair<double, size_t>> SpanLog::totals() const {
  std::map<std::string, std::pair<double, size_t>> T;
  for (const Span &S : Spans) {
    std::pair<double, size_t> &E = T[S.Name];
    E.first += S.EndMs - S.StartMs;
    ++E.second;
  }
  return T;
}

bool SpanLog::write(const std::string &Path) const {
  std::ofstream Out(Path);
  char Buf[96];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf), "\"start_ms\":%.4f,\"end_ms\":%.4f}\n",
                  S.StartMs, S.EndMs);
    Out << "{\"id\":" << I << ",\"op\":" << S.Op << ",\"parent\":" << S.Parent
        << ",\"name\":\"" << hglift::diag::jsonEscape(S.Name) << "\","
        << Buf;
  }
  return static_cast<bool>(Out);
}

void Metrics::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  for (M &E : Ms)
    if (E.Name == Name) {
      E.Value = Value;
      E.Unit = Unit;
      return;
    }
  Ms.push_back({Name, Value, Unit});
}

void Metrics::print(bool Correct, uint64_t Attempted, uint64_t Failed) const {
  for (const M &E : Ms)
    std::printf("  %-28s %16.6f %s\n", E.Name.c_str(), E.Value,
                E.Unit.c_str());
  std::ostringstream J;
  J << "{\"correct\": " << (Correct ? "true" : "false")
    << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
    << ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Ms.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.9g", Ms[I].Value);
    J << (I ? ", " : "") << "\"" << Ms[I].Name << "\": {\"value\": " << Buf
      << ", \"unit\": \"" << Ms[I].Unit << "\"}";
  }
  J << "}}";
  std::printf("%s\n", J.str().c_str());
  std::fflush(stdout);
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

static double cpuMs(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return (U.ru_utime.tv_sec + U.ru_stime.tv_sec) * 1e3 +
         (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e3;
}

double cpuMsSelf() { return cpuMs(RUSAGE_SELF); }
double cpuMsChildren() { return cpuMs(RUSAGE_CHILDREN); }

double peakRssMbSelf() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

double peakRssMbChildren() {
  rusage U{};
  getrusage(RUSAGE_CHILDREN, &U);
  return U.ru_maxrss / 1024.0;
}

double cpuMsOfPid(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  std::getline(In, Line);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return 0;
  std::istringstream S(Line.substr(Close + 2));
  std::string F;
  double UTicks = 0, STicks = 0;
  for (int I = 3; I <= 15 && (S >> F); ++I) {
    if (I == 14)
      UTicks = std::atof(F.c_str());
    if (I == 15)
      STicks = std::atof(F.c_str());
  }
  return (UTicks + STicks) * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peakRssMbOfPid(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0; // reported in kB
  return 0;
}

TempDir::TempDir(const std::string &Root) {
  std::error_code EC;
  std::filesystem::create_directories(Root, EC);
  std::string Tmpl = Root + "/run_XXXXXX";
  if (mkdtemp(Tmpl.data()))
    Path = Tmpl;
}

TempDir::~TempDir() {
  if (!Path.empty()) {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
}

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  return static_cast<bool>(Out);
}

bool sameCounters(const hglift::LiftStats &A, const hglift::LiftStats &B) {
  return A.Vertices == B.Vertices && A.Joins == B.Joins &&
         A.Widenings == B.Widenings && A.Steps == B.Steps &&
         A.Forks == B.Forks && A.SolverQueries == B.SolverQueries &&
         A.Z3Queries == B.Z3Queries &&
         A.SolverTier0Hits == B.SolverTier0Hits &&
         A.SolverTier1Hits == B.SolverTier1Hits &&
         A.SolverClassHits == B.SolverClassHits &&
         A.SolverTier2Hits == B.SolverTier2Hits &&
         A.SolverTier2Skipped == B.SolverTier2Skipped &&
         A.SolverFallthroughs == B.SolverFallthroughs &&
         A.RelCacheHits == B.RelCacheHits &&
         A.RelCacheMisses == B.RelCacheMisses && A.LeqHits == B.LeqHits &&
         A.LeqMisses == B.LeqMisses && A.VsaQueries == B.VsaQueries &&
         A.VsaResolved == B.VsaResolved && A.VsaTargets == B.VsaTargets &&
         A.VsaRestarts == B.VsaRestarts;
}

} // namespace hgbench
