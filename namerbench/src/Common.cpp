//===- namerbench/src/Common.cpp - Spans, statistics, inputs, checks ------==//

#include "Bench.h"

#include "namer/Evaluation.h"
#include "namer/ScanRun.h"
#include "support/MiniJson.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <unordered_map>

using namespace namer;

namespace namerbench {

void Outcome::fail(const std::string &What) {
  Correct = false;
  std::fprintf(stderr, "namerbench: check failed: %s\n", What.c_str());
}

void Outcome::refused(const std::string &CheckResult, const std::string &What) {
  if (CheckResult.empty())
    fail("negative self-check: '" + What + "' accepted a corrupted input");
  else
    ++Refusals;
}

// --- Tracer -----------------------------------------------------------------

namespace {
thread_local size_t OpenSpan = 0; // index + 1 of the innermost open span
} // namespace

uint64_t Tracer::newId() {
  std::lock_guard<std::mutex> L(M);
  return NextId++;
}

size_t Tracer::open(const char *Name, uint64_t Id, size_t Parent) {
  std::lock_guard<std::mutex> L(M);
  Records.push_back(Record{Name, Id, Parent, Clock::now(), {}});
  return Records.size() - 1;
}

void Tracer::close(size_t Index) {
  Clock::time_point End = Clock::now();
  std::lock_guard<std::mutex> L(M);
  Records[Index].End = End;
}

Tracer::Span::Span(Tracer &T, const char *Name, uint64_t Id) : T(T) {
  if (!T.On)
    return;
  SavedParent = OpenSpan;
  Index = T.open(Name, Id, OpenSpan);
  OpenSpan = Index + 1;
}

Tracer::Span::~Span() {
  if (!T.On)
    return;
  T.close(Index);
  OpenSpan = SavedParent;
}

void Tracer::record(const char *Name, uint64_t Id, Clock::time_point Start,
                    Clock::time_point End) {
  if (!On)
    return;
  std::lock_guard<std::mutex> L(M);
  Records.push_back(Record{Name, Id, 0, Start, End});
}

std::vector<double> Tracer::durations(const std::string &Name) const {
  std::lock_guard<std::mutex> L(M);
  std::vector<double> Out;
  for (const Record &R : Records)
    if (Name == R.Name)
      Out.push_back(msBetween(R.Start, R.End));
  return Out;
}

std::string Tracer::json() const {
  std::lock_guard<std::mutex> L(M);
  std::string Out = "{\"spans\": [";
  char Buf[256];
  for (size_t I = 0; I != Records.size(); ++I) {
    const Record &R = Records[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n  {\"id\": %llu, \"index\": %zu, \"name\": \"%s\", "
                  "\"parent\": %zu, \"start_us\": %.3f, \"end_us\": %.3f}",
                  I ? "," : "", static_cast<unsigned long long>(R.Id), I + 1,
                  R.Name, R.Parent, msBetween(Origin, R.Start) * 1000.0,
                  msBetween(Origin, R.End) * 1000.0);
    Out += Buf;
  }
  Out += "\n]}\n";
  return Out;
}

// --- Statistics --------------------------------------------------------------

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / V.size();
}

// --- Inputs ------------------------------------------------------------------

corpus::CorpusConfig corpusConfig(corpus::Language Lang, uint64_t Seed,
                                  bool Shrink, uint64_t Salt) {
  corpus::CorpusConfig C;
  C.Lang = Lang;
  // One SplitMix64 output per (seed, salt). The generator is SplitMix64
  // too, so a seed that is a multiple of its increment would only shift
  // a neighbouring seed's stream by one draw.
  C.Seed = Rng(Seed * 2 + Salt).next();
  if (Shrink) {
    C.NumRepos = 60;
    C.NoiseCommits = 12;
  }
  return C;
}

PipelineConfig pipelineConfig(unsigned Threads) {
  PipelineConfig PC;
  PC.Threads = Threads;
  return PC;
}

void trainOnOracle(NamerPipeline &P, const corpus::InspectionOracle &Oracle) {
  // The paper's protocol: 120 labels, balanced; EvaluationConfig's seed.
  EvaluationConfig EC;
  std::vector<size_t> Indices;
  std::vector<bool> Labels;
  collectBalancedLabels(P, Oracle, EC.NumLabeled, EC.Seed, Indices, Labels);
  std::vector<Violation> Labeled;
  for (size_t I : Indices)
    Labeled.push_back(P.violations()[I]);
  if (!Labeled.empty())
    P.trainClassifier(Labeled, Labels);
}

std::vector<Explanation> selectDefault(const NamerPipeline &P) {
  return selectFindings(P, FindingSelectOptions());
}

std::vector<std::string> reportLines(const std::vector<Explanation> &F) {
  std::vector<std::string> Out;
  Out.reserve(F.size());
  for (const Explanation &E : F) {
    std::string Line = renderReportLine(E.R);
    if (!Line.empty() && Line.back() == '\n')
      Line.pop_back();
    Out.push_back(std::move(Line));
  }
  return Out;
}

std::vector<std::string> violationLines(const NamerPipeline &P) {
  std::vector<std::string> Out;
  Out.reserve(P.violations().size());
  for (const Violation &V : P.violations()) {
    std::string Line = renderReportLine(P.makeReport(V));
    Line.pop_back();
    Out.push_back(std::move(Line));
  }
  return Out;
}

std::vector<std::string> keptLines(const NamerPipeline &P) {
  std::vector<std::string> Out;
  for (const Violation &V : P.violations()) {
    if (P.classifierTrained() && !P.classify(V))
      continue;
    std::string Line = renderReportLine(P.makeReport(V));
    Line.pop_back();
    Out.push_back(std::move(Line));
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

corpus::Corpus viewCopy(const corpus::Corpus &C) {
  corpus::Corpus Out;
  Out.Lang = C.Lang;
  Out.Commits = C.Commits;
  Out.Repos.reserve(C.Repos.size());
  for (const corpus::Repository &R : C.Repos) {
    corpus::Repository Copy;
    Copy.Name = R.Name;
    Copy.Files.reserve(R.Files.size());
    for (const corpus::SourceFile &F : R.Files) {
      corpus::SourceFile S;
      S.Path = F.Path;
      S.View = F.contents();
      S.Mapped = true;
      Copy.Files.push_back(std::move(S));
    }
    Out.Repos.push_back(std::move(Copy));
  }
  return Out;
}

// --- Checks ------------------------------------------------------------------

std::string checkSameLines(const std::vector<std::string> &Expected,
                           const std::vector<std::string> &Actual,
                           const std::string &What) {
  if (Expected.size() != Actual.size())
    return What + ": " + std::to_string(Actual.size()) + " report lines, " +
           std::to_string(Expected.size()) + " expected";
  for (size_t I = 0; I != Expected.size(); ++I)
    if (Expected[I] != Actual[I])
      return What + ": line " + std::to_string(I) + " is '" + Actual[I] +
             "', expected '" + Expected[I] + "'";
  return {};
}

bool parseReportLine(const std::string &Line, ParsedReport &Out) {
  static const std::string Issue = ": naming issue: '";
  static const std::string Mid = "' is suspicious here; suggested fix: '";
  size_t IssueAt = Line.find(Issue);
  if (IssueAt == std::string::npos)
    return false;
  size_t Colon = Line.rfind(':', IssueAt - 1);
  if (Colon == std::string::npos || Colon == 0)
    return false;
  Out.File = Line.substr(0, Colon);
  Out.Line = static_cast<uint32_t>(
      std::strtoul(Line.c_str() + Colon + 1, nullptr, 10));
  size_t OrigAt = IssueAt + Issue.size();
  size_t MidAt = Line.find(Mid, OrigAt);
  if (MidAt == std::string::npos)
    return false;
  Out.Original = Line.substr(OrigAt, MidAt - OrigAt);
  size_t SugAt = MidAt + Mid.size();
  size_t SugEnd = Line.find("' [", SugAt);
  if (SugEnd == std::string::npos)
    return false;
  Out.Suggested = Line.substr(SugAt, SugEnd - SugAt);
  return true;
}

namespace {

std::string lower(std::string_view S) {
  std::string Out(S);
  for (char &C : Out)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return Out;
}

/// Text of lines [First, Last] (1-based, clamped) of \p Text.
std::string_view lineRange(std::string_view Text, uint32_t First,
                           uint32_t Last) {
  size_t Begin = 0, LineNo = 1;
  while (LineNo < First) {
    size_t Nl = Text.find('\n', Begin);
    if (Nl == std::string_view::npos)
      return {};
    Begin = Nl + 1;
    ++LineNo;
  }
  size_t End = Begin;
  while (LineNo <= Last) {
    size_t Nl = Text.find('\n', End);
    if (Nl == std::string_view::npos) {
      End = Text.size();
      break;
    }
    End = Nl + 1;
    ++LineNo;
  }
  return Text.substr(Begin, End - Begin);
}

} // namespace

std::string checkReportsInSource(const std::vector<std::string> &Lines,
                                 const corpus::Corpus &C) {
  std::unordered_map<std::string_view, std::string_view> Text;
  for (const corpus::Repository &R : C.Repos)
    for (const corpus::SourceFile &F : R.Files)
      Text.emplace(F.Path, F.contents());
  for (const std::string &Line : Lines) {
    ParsedReport P;
    if (!parseReportLine(Line, P))
      return "unparsable report line '" + Line + "'";
    auto It = Text.find(P.File);
    if (It == Text.end())
      return "report names a file outside the corpus: '" + Line + "'";
    if (P.Original.empty() || P.Original == P.Suggested)
      return "suggestion does not differ from the original: '" + Line + "'";
    std::string_view Near =
        lineRange(It->second, P.Line > 1 ? P.Line - 1 : 1, P.Line + 1);
    if (lower(Near).find(lower(P.Original)) == std::string::npos)
      return "original name not in the source at its line: '" + Line + "'";
  }
  return {};
}

size_t countConfirmed(const std::vector<std::string> &Lines,
                      const corpus::InspectionOracle &Oracle) {
  size_t N = 0;
  for (const std::string &Line : Lines) {
    ParsedReport P;
    if (!parseReportLine(Line, P))
      continue;
    corpus::InspectionOutcome O =
        Oracle.inspect(P.File, P.Line, P.Original, P.Suggested);
    if (O.Result != corpus::InspectionOutcome::Verdict::FalsePositive)
      ++N;
  }
  return N;
}

std::string checkCount(uint64_t Expected, uint64_t Actual,
                       const std::string &What) {
  if (Expected == Actual)
    return {};
  return What + ": " + std::to_string(Actual) + ", expected " +
         std::to_string(Expected);
}


std::vector<std::string> corruptOneLine(std::vector<std::string> Lines) {
  if (Lines.empty()) {
    Lines.push_back("nowhere.py:1: naming issue: 'qqzx' is suspicious here; "
                    "suggested fix: 'qqzy' [consistency]");
    return Lines;
  }
  std::string &L = Lines[Lines.size() / 2];
  size_t At = L.find(": naming issue: '");
  if (At != std::string::npos)
    L.insert(At + std::string(": naming issue: '").size(), "qqzx");
  else
    L += "qqzx";
  return Lines;
}

// --- Library telemetry -------------------------------------------------------

uint64_t counterValue(const char *Name) {
  return telemetry::metrics().counter(Name).value();
}

double librarySpanSelfMs(const std::string &Name) {
  std::optional<json::Value> Doc =
      json::parse(telemetry::statsJson(telemetry::defaultMeta("namerbench",
                                                              0)));
  if (!Doc)
    return 0;
  const json::Value *Spans = Doc->find("spans");
  const json::Value *Span = Spans ? Spans->find(Name) : nullptr;
  const json::Value *Self = Span ? Span->find("self_us") : nullptr;
  return Self && Self->isNumber() ? Self->Num / 1000.0 : 0;
}

} // namespace namerbench
