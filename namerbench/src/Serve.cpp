//===- namerbench/src/Serve.cpp - Closed-loop served requests -------------==//
//
// Drives an in-process ScanService from one generator thread that keeps a
// fixed number of requests outstanding (a closed loop: callers that wait
// for their reply), and checks every response against a direct scan of
// the same request corpus.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "namer/FindingsExport.h"
#include "namer/ModelStore.h"
#include "namer/ScanRun.h"
#include "service/ScanService.h"
#include "support/Arena.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <condition_variable>
#include <filesystem>
#include <unordered_set>

using namespace namer;

namespace namerbench {

RequestSet makeRequests(corpus::Language Lang, uint64_t Seed, bool Shrink) {
  corpus::CorpusConfig CC = corpusConfig(Lang, Seed, Shrink, /*Salt=*/1);
  // One round: 96 repositories of 3-9 files (8 in self-check mode).
  CC.NumRepos = Shrink ? 8 : 96;
  CC.NoiseCommits = 0;
  RequestSet Set;
  Set.Corpus = corpus::generateCorpus(CC);
  Set.Corpus.Commits.clear();
  for (size_t I = 0; I != Set.Corpus.Repos.size(); ++I) {
    corpus::Repository &Repo = Set.Corpus.Repos[I];
    service::Request R;
    R.Id = "req" + std::to_string(I);
    R.Method = "scan";
    R.Tenant = "namerbench";
    for (corpus::SourceFile &F : Repo.Files) {
      F.Path = "request/" + F.Path;
      R.Files.push_back(service::ScanFile{F.Path, F.Text});
    }
    Set.Requests.push_back(std::move(R));
  }
  return Set;
}

std::unique_ptr<service::ScanService>
startService(const std::string &ModelPath, const corpus::CorpusConfig &Base,
             unsigned Workers) {
  service::ServiceConfig SC;
  SC.ModelPath = ModelPath;
  SC.Lang = Base.Lang;
  SC.ScanWorkers = Workers;
  SC.BaseCorpus = Base;
  auto Svc = std::make_unique<service::ScanService>(SC);
  Svc->start();
  return Svc;
}

ServedRun serveClosedLoop(service::ScanService &Svc, const RequestSet &Set,
                          unsigned Outstanding, double Seconds, Tracer &T) {
  ServedRun Run;
  const size_t N = Set.Requests.size();
  Run.Lines.resize(N);
  std::vector<bool> Seen(N, false);

  telemetry::Histogram &ScanUs =
      telemetry::metrics().histogram("serve.scan_us");
  double ScanSum0 = static_cast<double>(ScanUs.sum());
  double ScanCount0 = static_cast<double>(ScanUs.count());
  auto Reingested = [] {
    return static_cast<double>(counterValue("incremental.files.added") +
                               counterValue("incremental.files.modified"));
  };
  auto Walked = [&] {
    return static_cast<double>(counterValue("incremental.files.unchanged")) +
           Reingested();
  };
  double Walked0 = Walked(), Reingested0 = Reingested();

  std::mutex M;
  std::condition_variable Cv;
  size_t InFlight = 0; // guarded by M
  Clock::time_point Last;

  Clock::time_point Start = Clock::now();
  for (size_t Seq = 0;; ++Seq) {
    size_t Idx = Seq % N;
    {
      std::unique_lock<std::mutex> L(M);
      Cv.wait(L, [&] { return InFlight < Outstanding; });
      // Whole rounds only: stop at a round boundary once time is up.
      if (Idx == 0 && Seq != 0 && msSince(Start) >= Seconds * 1000.0)
        break;
      ++InFlight;
    }
    service::Request R = Set.Requests[Idx];
    uint64_t Id = T.newId();
    R.Id = "r" + std::to_string(Seq);
    Run.RequestFiles += static_cast<double>(R.Files.size());
    ++Run.Attempted;
    Clock::time_point Sent = Clock::now();
    Svc.submit(std::move(R), [&, Idx, Id, Sent](service::Response Resp) {
      Clock::time_point Done = Clock::now();
      T.record("serve.request", Id, Sent, Done);
      std::lock_guard<std::mutex> L(M);
      Run.LatencyMs.push_back(msBetween(Sent, Done));
      if (Resp.St == service::Status::Ok) {
        ++Run.Ok;
        if (!Seen[Idx]) {
          Seen[Idx] = true;
          Run.Lines[Idx] = std::move(Resp.Reports);
        } else if (Run.Lines[Idx] != Resp.Reports) {
          Run.RoundsDiffer = true;
        }
      } else {
        Run.BadStatus.push_back(Resp.Id + ": " +
                                service::statusName(Resp.St) + " " +
                                Resp.Detail);
      }
      Last = Done;
      --InFlight;
      Cv.notify_all();
    });
    Clock::time_point Submitted = Clock::now();
    T.record("serve.submit", Id, Sent, Submitted);
    Run.SubmitUs.push_back(msBetween(Sent, Submitted) * 1000.0);
  }
  {
    std::unique_lock<std::mutex> L(M);
    Cv.wait(L, [&] { return InFlight == 0; });
    Run.WallS = msBetween(Start, Last) / 1000.0;
  }

  Run.ScanUsSum = static_cast<double>(ScanUs.sum()) - ScanSum0;
  Run.ScanCount = static_cast<double>(ScanUs.count()) - ScanCount0;
  Run.FilesWalked = Walked() - Walked0;
  Run.FilesReingested = Reingested() - Reingested0;
  return Run;
}

void ServedRun::append(ServedRun &&Later) {
  if (Attempted == 0) {
    *this = std::move(Later);
    return;
  }
  LatencyMs.insert(LatencyMs.end(), Later.LatencyMs.begin(),
                   Later.LatencyMs.end());
  SubmitUs.insert(SubmitUs.end(), Later.SubmitUs.begin(),
                  Later.SubmitUs.end());
  RoundsDiffer |= Later.RoundsDiffer || Later.Lines != Lines;
  Attempted += Later.Attempted;
  Ok += Later.Ok;
  BadStatus.insert(BadStatus.end(), Later.BadStatus.begin(),
                   Later.BadStatus.end());
  WallS += Later.WallS;
  ScanUsSum += Later.ScanUsSum;
  ScanCount += Later.ScanCount;
  FilesWalked += Later.FilesWalked;
  RequestFiles += Later.RequestFiles;
  FilesReingested += Later.FilesReingested;
}

std::string checkStatuses(const std::vector<std::string> &Bad) {
  if (Bad.empty())
    return {};
  return std::to_string(Bad.size()) + " responses not ok, first: " + Bad[0];
}

void checkServed(Outcome &Out, const ServedRun &Run,
                 const std::string &ModelPath, const corpus::Corpus &Base,
                 const RequestSet &Set, unsigned Threads,
                 const std::string &WorkDir, bool TimeLayers,
                 bool NegativeChecks) {
  if (std::string E = checkStatuses(Run.BadStatus); !E.empty())
    Out.fail(E);
  if (Run.RoundsDiffer)
    Out.fail("served report lines differ between rounds");
  // Each request's scan re-ingests its own files and replays the rest.
  const uint64_t Sent = static_cast<uint64_t>(Run.RequestFiles);
  const uint64_t Reingested = static_cast<uint64_t>(Run.FilesReingested);
  if (std::string E = checkCount(Sent, Reingested, "files re-ingested");
      !E.empty())
    Out.fail(E);
  if (NegativeChecks) {
    Out.refused(checkStatuses({"r0: fault injected"}), "every response ok");
    Out.refused(checkCount(Sent, Reingested + 1, "re-ingested"),
                "re-ingested file count");
  }

  // The request corpus the service scans: the mined corpus plus the
  // request's own repository.
  const size_t N = Set.Requests.size();
  std::vector<std::vector<std::string>> Expected(N);
  std::vector<double> LoadMs(N), ApplyMs(N), ScanMs(N), SelectMs(N),
      FeatMs(N), ExportMs(N), SaveMs(N), Replayed(N);
  ThreadPool Pool(Threads);
  Pool.parallelFor(0, N, [&](size_t I) {
    corpus::Corpus Corp = viewCopy(Base);
    Corp.Commits.clear();
    Corp.Repos.push_back(Set.Corpus.Repos[I]);
    NamerPipeline P(pipelineConfig(1));
    Clock::time_point T0 = Clock::now();
    Arena Mem;
    model::ModelFile F = model::load(ModelPath, Mem);
    Clock::time_point T1 = Clock::now();
    P.loadModel(F);
    Clock::time_point T2 = Clock::now();
    P.scanWith(Corp, /*UseCache=*/true);
    Clock::time_point T3 = Clock::now();
    FindingSelectOptions Sel;
    for (const service::ScanFile &File : Set.Requests[I].Files)
      Sel.OnlyPaths.push_back(File.Path);
    Sel.UseClassifier = F.UseClassifier;
    Sel.MaxReports = Set.Requests[I].MaxReports;
    std::vector<Explanation> Findings = selectFindings(P, Sel);
    Clock::time_point T4 = Clock::now();
    Expected[I] = reportLines(Findings);
    LoadMs[I] = msBetween(T0, T1);
    ApplyMs[I] = msBetween(T1, T2);
    ScanMs[I] = msBetween(T2, T3);
    SelectMs[I] = msBetween(T3, T4);
    if (TimeLayers) {
      // Feature extraction of the violations the selection classifies.
      std::unordered_set<std::string> Mine(Sel.OnlyPaths.begin(),
                                           Sel.OnlyPaths.end());
      Clock::time_point F0 = Clock::now();
      for (const Violation &V : P.violations())
        if (Mine.count(P.filePath(P.statements()[V.Stmt].File)))
          (void)P.features(V);
      FeatMs[I] = msSince(F0);
      for (const StmtRecord &S : P.statements())
        Replayed[I] += !Mine.count(P.filePath(S.File));
      // What a caller keeping the request's state would add: the exports
      // and saving the scanned model.
      Clock::time_point E0 = Clock::now();
      ExportMeta Meta;
      std::string Docs =
          sarifJson(Findings, Meta) + findingsJson(Findings, Meta);
      ExportMs[I] = msSince(E0);
      std::string StatePath =
          WorkDir + "/request-" + std::to_string(I) + ".nmr";
      Clock::time_point S0 = Clock::now();
      P.saveModel(StatePath);
      SaveMs[I] = msSince(S0);
      std::filesystem::remove(StatePath);
    }
  });
  for (size_t I = 0; I != N; ++I) {
    std::string E = checkSameLines(Expected[I], Run.Lines[I],
                                   "served request " + Set.Requests[I].Id);
    if (!E.empty()) {
      Out.fail(E);
      break;
    }
  }
  if (NegativeChecks && N)
    Out.refused(
        checkSameLines(Expected[0], corruptOneLine(Run.Lines[0]), "served"),
        "served == direct scan");
  if (TimeLayers) {
    Out.set("model.load_ms", median(LoadMs), "ms");
    Out.set("model.apply_ms", median(ApplyMs), "ms");
    Out.set("namer.scan_ms", median(ScanMs), "ms");
    Out.set("report.select_ms", median(SelectMs), "ms");
    Out.set("classifier.features_ms", median(FeatMs), "ms");
    Out.set("report.export_ms", median(ExportMs), "ms");
    Out.set("model.save_ms", median(SaveMs), "ms");
    Out.set("incremental.replayed_statements", median(Replayed), "count");
  }
}

void addServiceLayerMetrics(Outcome &Out, const ServedRun &Run) {
  double ScanMs = Run.ScanCount ? Run.ScanUsSum / Run.ScanCount / 1000.0 : 0;
  Out.set("service.admit_us", median(Run.SubmitUs), "us");
  Out.set("service.scan_ms", ScanMs, "ms");
  Out.set("service.wait_ms", mean(Run.LatencyMs) - ScanMs, "ms");
  Out.set("service.request_p95_ms", quantile(Run.LatencyMs, 0.95), "ms");
  Out.set("service.files_per_request",
          Run.Attempted ? Run.RequestFiles / Run.Attempted : 0, "count");
  Out.set("service.useful_file_share",
          Run.FilesWalked ? Run.RequestFiles / Run.FilesWalked : 0, "ratio");
}

void probeService(Outcome &Out, const Options &O, corpus::Language Lang,
                  const std::string &ModelPath, const corpus::Corpus &Base,
                  Tracer &T) {
  RequestSet Set = makeRequests(Lang, O.Seed, O.SelfCheck);
  std::unique_ptr<service::ScanService> Svc = startService(
      ModelPath, corpusConfig(Lang, O.Seed, O.SelfCheck), O.Threads);
  ServedRun Run = serveClosedLoop(*Svc, Set, O.Threads, /*Seconds=*/0, T);
  Svc.reset();
  checkServed(Out, Run, ModelPath, Base, Set, O.Threads, O.WorkDir,
              /*TimeLayers=*/false,
              /*NegativeChecks=*/false);
  addServiceLayerMetrics(Out, Run);
}

} // namespace namerbench
