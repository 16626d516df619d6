//===- namerbench/src/Workloads.cpp - mine-*, rescan-python, serve-python -==//
//
// One function per workload. Each sets up several times (reporting the
// median set-up time), measures whole rounds of its operation for the
// requested seconds, then checks the program's outputs. In trace mode the
// run alternates traced and untraced operations (their median difference
// is the tracing overhead) and adds the per-layer metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "namer/FindingsExport.h"
#include "namer/ModelStore.h"
#include "service/ScanService.h"
#include "support/Arena.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <filesystem>
#include <unordered_set>

using namespace namer;
namespace fs = std::filesystem;

namespace namerbench {

namespace {

/// Set-up runs at least kMinSetups times and until kMinSetupMs passed
/// (at most kMaxSetups times); setup_s is the median.
constexpr size_t kMinSetups = 3, kMaxSetups = 100;
constexpr double kMinSetupMs = 1000;

template <typename Fn> std::vector<double> repeatSetup(Fn &&Setup) {
  std::vector<double> Seconds;
  Clock::time_point All = Clock::now();
  while (Seconds.size() < kMinSetups ||
         (msSince(All) < kMinSetupMs && Seconds.size() < kMaxSetups)) {
    Clock::time_point S = Clock::now();
    Setup();
    Seconds.push_back(msSince(S) / 1000.0);
  }
  return Seconds;
}

double fileBytes(const std::string &Path) {
  return static_cast<double>(fs::file_size(Path));
}

void check(Outcome &Out, const std::string &Error) {
  if (!Error.empty())
    Out.fail(Error);
}

void addE2E(Outcome &Out, const std::vector<double> &SetupS,
            const std::vector<double> &OpMs, double OpsPerS,
            double ModelBytes, size_t Confirmed, size_t Reports,
            size_t Seeded) {
  std::fprintf(stderr,
               "namerbench: %zu confirmed of %zu reports, %zu seeded issues\n",
               Confirmed, Reports, Seeded);
  std::fprintf(stderr,
               "namerbench: %zu timed ops, ms p10 %.2f p25 %.2f p50 %.2f "
               "p75 %.2f p90 %.2f; %zu set-ups, s p50 %.4f\n",
               OpMs.size(), quantile(OpMs, 0.1), quantile(OpMs, 0.25),
               median(OpMs), quantile(OpMs, 0.75), quantile(OpMs, 0.9),
               SetupS.size(), median(SetupS));
  Out.set("setup_s", median(SetupS), "s");
  Out.set("op_p50_ms", median(OpMs), "ms");
  Out.set("ops_per_s", OpsPerS, "1/s");
  Out.set("model_bytes", ModelBytes, "bytes");
  // The share of reports shown that ground truth confirms. Per seeded
  // issue the count follows how many patterns a seed's corpus yields,
  // which spreads too widely between seeds for a bound.
  Out.set("confirmed_share",
          Reports ? static_cast<double>(Confirmed) / Reports : 0, "ratio");
  Out.set("report.confirmed_per_issue",
          Seeded ? static_cast<double>(Confirmed) / Seeded : 0, "ratio");
}

void addOverhead(Outcome &Out, const std::vector<double> &Traced,
                 const std::vector<double> &Untraced) {
  Out.set("trace.overhead_ms", median(Traced) - median(Untraced), "ms");
}

/// Mining layers and the classifier layer, replayed at one thread over
/// \p C; \p NprocMineMs is the median mine at nproc threads.
void addMinePathLayers(Outcome &Out, const corpus::Corpus &C,
                       const corpus::InspectionOracle &Oracle,
                       double NprocMineMs, bool NegativeChecks, Tracer &T) {
  std::unique_ptr<NamerPipeline> P1;
  ProgramCounts Prog = mineAtOneThread(C, &P1);
  LayerReplay R = replayMineLayers(C, pipelineConfig(1), T, T.newId());
  addMineLayerMetrics(Out, R, Prog, NprocMineMs);
  if (NegativeChecks) {
    ProgramCounts Wrong = Prog;
    ++Wrong.Kept;
    Out.refused(crossCheck(R, Wrong), "layer replay == program counts");
  }
  addClassifierLayerMetrics(Out, *P1, Oracle, P1->violations());
}

} // namespace

// --- mine-python / mine-java -------------------------------------------------

Outcome runMine(const Options &O, corpus::Language Lang, Tracer &T) {
  Outcome Out;
  corpus::CorpusConfig CC = corpusConfig(Lang, O.Seed, O.SelfCheck);

  // Set-up: corpus generation and its ground-truth oracle.
  corpus::Corpus C;
  std::unique_ptr<corpus::InspectionOracle> Oracle;
  std::vector<double> SetupS = repeatSetup([&] {
    Oracle.reset();
    C = corpus::generateCorpus(CC);
    Oracle = std::make_unique<corpus::InspectionOracle>(C);
  });

  // One operation: cold mine at nproc threads, classifier training on 120
  // balanced oracle labels, finding selection.
  Tracer Off(false);
  std::vector<double> OpMs, TracedMs, MineMs;
  std::vector<std::string> FirstLines;
  std::unique_ptr<NamerPipeline> Last;
  Clock::time_point Start = Clock::now();
  while (Out.Attempted == 0 || msSince(Start) < O.Seconds * 1000.0) {
    Last.reset();
    telemetry::reset(); // bounds the library's span buffers between ops
    bool Traced = O.Trace && Out.Attempted % 2 == 1;
    Tracer &Tr = Traced ? T : Off;
    uint64_t Id = T.newId();
    std::vector<Explanation> Sel;
    Clock::time_point Op = Clock::now();
    auto P = std::make_unique<NamerPipeline>(pipelineConfig(O.Threads));
    {
      Tracer::Span S(Tr, "mine.op", Id);
      {
        Tracer::Span S2(Tr, "mine.mine", Id);
        Clock::time_point M0 = Clock::now();
        P->mine(C);
        MineMs.push_back(msSince(M0));
      }
      {
        Tracer::Span S2(Tr, "mine.train", Id);
        trainOnOracle(*P, *Oracle);
      }
      {
        Tracer::Span S2(Tr, "mine.select", Id);
        Sel = selectDefault(*P);
      }
    }
    (Traced ? TracedMs : OpMs).push_back(msSince(Op));
    std::vector<std::string> Lines = reportLines(Sel);
    if (Out.Attempted == 0)
      FirstLines = std::move(Lines);
    else if (Lines != FirstLines)
      Out.fail("report lines differ between two cold mines of one corpus");
    ++Out.Attempted;
    Last = std::move(P);
  }
  double ElapsedS = msSince(Start) / 1000.0;

  std::string ModelPath = O.WorkDir + "/mine.nmr";
  Clock::time_point Save0 = Clock::now();
  Last->saveModel(ModelPath);
  double SaveMs = msSince(Save0);
  std::vector<std::string> ColdViolations = violationLines(*Last);
  Last.reset();

  // Reports at one thread equal those at nproc threads.
  std::vector<std::string> Kept;
  {
    auto P1 = std::make_unique<NamerPipeline>(pipelineConfig(1));
    P1->mine(C);
    trainOnOracle(*P1, *Oracle);
    Kept = keptLines(*P1);
    std::vector<std::string> Lines1 = reportLines(selectDefault(*P1));
    check(Out, checkSameLines(FirstLines, Lines1, "reports at 1 thread"));
    check(Out, checkSameLines(ColdViolations, violationLines(*P1),
                              "violations at 1 thread"));
    if (O.SelfCheck)
      Out.refused(checkSameLines(FirstLines, corruptOneLine(Lines1), "1t"),
                  "reports at 1 thread == nproc");
  }

  // Every kept report sits where it says; ground truth confirms some.
  check(Out, checkReportsInSource(Kept, C));
  if (O.SelfCheck)
    Out.refused(checkReportsInSource(corruptOneLine(Kept), C),
                "reports in source");
  size_t Confirmed = countConfirmed(Kept, *Oracle);

  // The saved model, loaded into a fresh pipeline and rescanned without
  // the cache, reproduces the cold reports.
  {
    uint64_t Reingest0 = counterValue("incremental.files.modified") +
                         counterValue("incremental.files.added");
    NamerPipeline P2(pipelineConfig(O.Threads));
    Clock::time_point T0 = Clock::now();
    Arena Mem;
    model::ModelFile F = model::load(ModelPath, Mem);
    Clock::time_point T1 = Clock::now();
    P2.loadModel(F);
    Clock::time_point T2 = Clock::now();
    P2.scanWith(C, /*UseCache=*/false);
    Clock::time_point T3 = Clock::now();
    std::vector<Explanation> Sel = selectDefault(P2);
    Clock::time_point T4 = Clock::now();
    ExportMeta Meta;
    std::string Sarif = sarifJson(Sel, Meta);
    std::string Findings = findingsJson(Sel, Meta);
    Clock::time_point T5 = Clock::now();
    std::vector<std::string> Lines2 = reportLines(Sel);
    check(Out,
          checkSameLines(FirstLines, Lines2, "reports of the loaded model"));
    check(Out, checkSameLines(ColdViolations, violationLines(P2),
                              "violations of the loaded model"));
    if (O.SelfCheck)
      Out.refused(checkSameLines(FirstLines, corruptOneLine(Lines2), "warm"),
                  "loaded model == cold");
    if (Sarif.empty() || Findings.empty())
      Out.fail("empty SARIF or findings export");
    if (O.Trace) {
      Out.set("model.load_ms", msBetween(T0, T1), "ms");
      Out.set("model.apply_ms", msBetween(T1, T2), "ms");
      Out.set("namer.scan_ms", msBetween(T2, T3), "ms");
      Out.set("report.select_ms", msBetween(T3, T4), "ms");
      Out.set("report.export_ms", msBetween(T4, T5), "ms");
      Out.set("model.save_ms", SaveMs, "ms");
      Out.set("incremental.reingested_files",
              static_cast<double>(counterValue("incremental.files.modified") +
                                  counterValue("incremental.files.added") -
                                  Reingest0),
              "count");
      Out.set("incremental.replayed_statements", 0, "count");
    }
  }

  addE2E(Out, SetupS, OpMs, Out.Attempted / ElapsedS, fileBytes(ModelPath),
         Confirmed, Kept.size(), C.numSeededIssues());
  if (O.Trace) {
    addOverhead(Out, TracedMs, OpMs);
    addMinePathLayers(Out, C, *Oracle, median(MineMs), O.SelfCheck, T);
    probeService(Out, O, Lang, ModelPath, C, T);
  }
  return Out;
}

// --- rescan-python -----------------------------------------------------------

namespace {

/// The CI edit: about 1% of the files (every stride-th from a seeded
/// offset) get a new function appended, which still parses and keeps
/// every existing line number.
corpus::Corpus editCorpus(const corpus::Corpus &C, uint64_t Seed,
                          std::unordered_set<std::string> &Edited) {
  corpus::Corpus Out = viewCopy(C);
  size_t N = C.numFiles();
  size_t Stride = std::max<size_t>(1, N / std::max<size_t>(1, (N + 99) / 100));
  Rng R(Seed ^ 0xED17ull);
  size_t Offset = static_cast<size_t>(R.next() % Stride), Idx = 0;
  for (corpus::Repository &Repo : Out.Repos)
    for (corpus::SourceFile &F : Repo.Files) {
      if (Idx++ % Stride != Offset)
        continue;
      F.Text = std::string(F.contents());
      unsigned Tag = static_cast<unsigned>(R.next() % 100000);
      F.Text += "\n\ndef touched_helper_" + std::to_string(Tag) +
                "(value, count):\n    total = value + count\n"
                "    return total\n";
      F.View = {};
      F.Mapped = false;
      Edited.insert(F.Path);
    }
  return Out;
}

struct ScanOutput {
  std::vector<std::string> Lines;
  std::string Sarif, Findings;
  std::vector<std::string> Kept;
};

} // namespace

Outcome runRescan(const Options &O, Tracer &T) {
  Outcome Out;
  corpus::CorpusConfig CC =
      corpusConfig(corpus::Language::Python, O.Seed, O.SelfCheck);
  std::string BasePath = O.WorkDir + "/rescan-base.nmr";
  std::string StatePath = O.WorkDir + "/rescan-state.nmr";

  // Set-up: corpus, the mined and trained model the steps load, and the
  // edited corpus.
  std::vector<double> SetupMineMs;
  corpus::Corpus C, Edited;
  std::unique_ptr<corpus::InspectionOracle> Oracle;
  std::unordered_set<std::string> EditedPaths;
  std::vector<double> SetupS = repeatSetup([&] {
    Oracle.reset();
    EditedPaths.clear();
    C = corpus::generateCorpus(CC);
    Oracle = std::make_unique<corpus::InspectionOracle>(C);
    {
      NamerPipeline P(pipelineConfig(O.Threads));
      Clock::time_point M0 = Clock::now();
      P.mine(C);
      SetupMineMs.push_back(msSince(M0));
      trainOnOracle(P, *Oracle);
      P.saveModel(BasePath);
    }
    Edited = editCorpus(C, O.Seed, EditedPaths);
  });

  // References: a full UseCache=false rescan of each corpus.
  ExportMeta Meta;
  auto FullRescan = [&](const corpus::Corpus &X) {
    NamerPipeline P(pipelineConfig(O.Threads));
    P.loadModel(BasePath);
    P.scanWith(X, /*UseCache=*/false);
    std::vector<Explanation> Sel = selectDefault(P);
    return ScanOutput{reportLines(Sel), sarifJson(Sel, Meta),
                      findingsJson(Sel, Meta), keptLines(P)};
  };
  const ScanOutput Ref[2] = {FullRescan(Edited), FullRescan(C)};
  fs::copy_file(BasePath, StatePath, fs::copy_options::overwrite_existing);

  // One step: a fresh pipeline loads the model the previous step saved,
  // rescans with the cache, selects, exports and saves. Steps alternate
  // between the edited and the original corpus, so every step finds the
  // same files dirty; a round is one step of each.
  Tracer Off(false);
  std::vector<double> StepMs, TracedMs;
  std::string FirstError;
  uint64_t Reingested = 0, Replayed = 0;
  std::unique_ptr<NamerPipeline> Kept;
  uint64_t Steps = 0;
  Clock::time_point Start = Clock::now();
  while (Steps % 2 != 0 || Steps == 0 ||
         msSince(Start) < O.Seconds * 1000.0) {
    const int Which = static_cast<int>(Steps % 2);
    const corpus::Corpus &X = Which == 0 ? Edited : C;
    bool Traced = O.Trace && Steps % 4 >= 2;
    Tracer &Tr = Traced ? T : Off;
    uint64_t Id = T.newId();
    uint64_t Changed0 = counterValue("incremental.files.modified") +
                        counterValue("incremental.files.added");
    std::vector<Explanation> Sel;
    std::string Sarif, Findings;
    Clock::time_point Step0 = Clock::now();
    auto P = std::make_unique<NamerPipeline>(pipelineConfig(O.Threads));
    {
      Tracer::Span S(Tr, "rescan.step", Id);
      // loadModel(path) in two timed parts; both halves of a traced run
      // take this path, so their difference is the spans' cost alone.
      {
        Arena Mem;
        model::ModelFile F;
        {
          Tracer::Span S2(Tr, "rescan.load", Id);
          F = model::load(StatePath, Mem);
        }
        Tracer::Span S2(Tr, "rescan.apply", Id);
        P->loadModel(F);
      }
      {
        Tracer::Span S2(Tr, "rescan.scan", Id);
        P->scanWith(X, /*UseCache=*/true);
      }
      {
        Tracer::Span S2(Tr, "rescan.select", Id);
        Sel = selectDefault(*P);
      }
      {
        Tracer::Span S2(Tr, "rescan.export", Id);
        Sarif = sarifJson(Sel, Meta);
        Findings = findingsJson(Sel, Meta);
      }
      {
        Tracer::Span S2(Tr, "rescan.save", Id);
        P->saveModel(StatePath);
      }
    }
    (Traced ? TracedMs : StepMs).push_back(msSince(Step0));
    ++Steps;

    Reingested = counterValue("incremental.files.modified") +
                 counterValue("incremental.files.added") - Changed0;
    std::string E =
        checkCount(EditedPaths.size(), Reingested, "files re-ingested");
    if (E.empty())
      E = checkSameLines(Ref[Which].Lines, reportLines(Sel),
                         "rescan step vs full rescan");
    if (E.empty() &&
        (Sarif != Ref[Which].Sarif || Findings != Ref[Which].Findings))
      E = "rescan step exports differ from the full rescan's";
    if (!E.empty() && FirstError.empty())
      FirstError = E;
    if (O.Trace && Which == 0 && !Replayed) {
      for (const StmtRecord &S : P->statements())
        Replayed += !EditedPaths.count(P->filePath(S.File));
    }
    if (O.Trace)
      Kept = std::move(P);
  }
  double ElapsedS = msSince(Start) / 1000.0;
  Out.Attempted = Steps;
  check(Out, FirstError);
  check(Out, checkReportsInSource(Ref[0].Kept, Edited));
  if (O.SelfCheck) {
    Out.refused(checkCount(EditedPaths.size(), Reingested + 1, "re-ingested"),
                "re-ingested file count");
    Out.refused(checkSameLines(Ref[0].Lines, corruptOneLine(Ref[0].Lines), "r"),
                "rescan step == full rescan");
    Out.refused(checkReportsInSource(corruptOneLine(Ref[0].Kept), Edited),
                "reports in source");
  }

  addE2E(Out, SetupS, StepMs, Steps / ElapsedS, fileBytes(StatePath),
         countConfirmed(Ref[0].Kept, *Oracle), Ref[0].Kept.size(),
         C.numSeededIssues());
  if (O.Trace) {
    Out.set("model.load_ms", median(T.durations("rescan.load")), "ms");
    Out.set("model.apply_ms", median(T.durations("rescan.apply")), "ms");
    Out.set("namer.scan_ms", median(T.durations("rescan.scan")), "ms");
    Out.set("report.select_ms", median(T.durations("rescan.select")), "ms");
    Out.set("report.export_ms", median(T.durations("rescan.export")), "ms");
    Out.set("model.save_ms", median(T.durations("rescan.save")), "ms");
    Out.set("incremental.reingested_files", static_cast<double>(Reingested),
            "count");
    Out.set("incremental.replayed_statements", static_cast<double>(Replayed),
            "count");
    addOverhead(Out, TracedMs, StepMs);
    // The classifier scores every violation of a step; the mining layers
    // are those of the set-up mine.
    Outcome Layers;
    addMinePathLayers(Layers, C, *Oracle, median(SetupMineMs),
                      O.SelfCheck, T);
    addClassifierLayerMetrics(Layers, *Kept, *Oracle, Kept->violations());
    Kept.reset();
    for (auto &[Name, M] : Layers.Metrics)
      Out.Metrics[Name] = M;
    Out.Correct &= Layers.Correct;
    Out.Refusals += Layers.Refusals;
    probeService(Out, O, corpus::Language::Python, BasePath, C, T);
  }
  return Out;
}

// --- serve-python ------------------------------------------------------------

Outcome runServe(const Options &O, Tracer &T) {
  Outcome Out;
  const corpus::Language Lang = corpus::Language::Python;
  corpus::CorpusConfig CC = corpusConfig(Lang, O.Seed, O.SelfCheck);
  std::string ModelPath = O.WorkDir + "/serve.nmr";

  // Set-up: corpus, the mined and trained model, the request set and a
  // started service (which loads the model and generates its corpus).
  std::vector<double> SetupMineMs;
  corpus::Corpus C;
  std::unique_ptr<corpus::InspectionOracle> Oracle;
  RequestSet Set;
  std::unique_ptr<service::ScanService> Svc;
  std::vector<double> SetupS = repeatSetup([&] {
    Svc.reset();
    Oracle.reset();
    C = corpus::generateCorpus(CC);
    Oracle = std::make_unique<corpus::InspectionOracle>(C);
    {
      NamerPipeline P(pipelineConfig(O.Threads));
      Clock::time_point M0 = Clock::now();
      P.mine(C);
      SetupMineMs.push_back(msSince(M0));
      trainOnOracle(P, *Oracle);
      P.saveModel(ModelPath);
    }
    Set = makeRequests(Lang, O.Seed, O.SelfCheck);
    Svc = startService(ModelPath, CC, O.Threads);
  });

  // The closed loop: nproc requests outstanding. In trace mode untraced
  // and traced rounds alternate, in pairs, for the overhead.
  Tracer Off(false);
  ServedRun Run;
  std::vector<double> Untraced;
  if (O.Trace) {
    ServedRun Plain;
    Clock::time_point Start = Clock::now();
    for (size_t Round = 0;
         Round % 2 != 0 || Round == 0 || msSince(Start) < O.Seconds * 1000.0;
         ++Round) {
      bool Traced = Round % 2 == 1;
      ServedRun One = serveClosedLoop(*Svc, Set, O.Threads, /*Seconds=*/0,
                                      Traced ? T : Off);
      (Traced ? Run : Plain).append(std::move(One));
    }
    Untraced = Plain.LatencyMs;
    Out.Attempted = Plain.Attempted;
    Out.Failed = Plain.Attempted - Plain.Ok;
    check(Out, checkStatuses(Plain.BadStatus));
    if (Plain.Lines != Run.Lines || Plain.RoundsDiffer)
      Out.fail("untraced and traced served report lines differ");
  } else {
    Run = serveClosedLoop(*Svc, Set, O.Threads, O.Seconds, Off);
  }
  Svc.reset();
  Out.Attempted += Run.Attempted;
  Out.Failed += Run.Attempted - Run.Ok;
  if (Out.Attempted < 200 && !O.SelfCheck)
    Out.fail("fewer than 200 requests: p95 has fewer than 10 samples beyond");

  checkServed(Out, Run, ModelPath, C, Set, O.Threads, O.WorkDir, O.Trace,
              O.SelfCheck);
  corpus::InspectionOracle RequestOracle(Set.Corpus);
  size_t Confirmed = 0, Reports = 0;
  for (const std::vector<std::string> &Lines : Run.Lines) {
    Confirmed += countConfirmed(Lines, RequestOracle);
    Reports += Lines.size();
  }
  check(Out, [&] {
    for (const std::vector<std::string> &Lines : Run.Lines)
      if (std::string E = checkReportsInSource(Lines, Set.Corpus); !E.empty())
        return E;
    return std::string();
  }());

  addE2E(Out, SetupS, Run.LatencyMs, Run.Ok / Run.WallS, fileBytes(ModelPath),
         Confirmed, Reports, Set.Corpus.numSeededIssues());
  if (O.Trace) {
    addServiceLayerMetrics(Out, Run);
    std::vector<double> All = Run.LatencyMs;
    All.insert(All.end(), Untraced.begin(), Untraced.end());
    Out.set("service.request_p95_ms", quantile(All, 0.95), "ms");
    addOverhead(Out, Run.LatencyMs, Untraced);
    Out.set("incremental.reingested_files",
            Run.Ok ? Run.FilesReingested / Run.Ok : 0, "count");
    Outcome Layers;
    addMinePathLayers(Layers, C, *Oracle, median(SetupMineMs),
                      O.SelfCheck, T);
    for (auto &[Name, M] : Layers.Metrics)
      if (!Out.Metrics.count(Name))
        Out.Metrics[Name] = M;
    Out.Correct &= Layers.Correct;
    Out.Refusals += Layers.Refusals;
  }
  return Out;
}

} // namespace namerbench
