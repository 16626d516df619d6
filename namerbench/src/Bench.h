//===- namerbench/src/Bench.h - Shared pieces of the namerbench binary ----==//
///
/// \file
/// namerbench measures Namer the way its users meet it: a cold mine over
/// Big Code, the incremental rescan a CI job runs, and requests served by
/// an in-process ScanService. This header holds what the workloads share:
/// options, the result record, an in-memory span recorder, statistics,
/// the correctness checks and the layer replay of the mine path.
///
/// Every layer is timed from outside the library, around calls into its
/// public functions; nothing here reaches into src/ internals.
///
//===----------------------------------------------------------------------===//

#ifndef NAMERBENCH_BENCH_H
#define NAMERBENCH_BENCH_H

#include "corpus/Corpus.h"
#include "corpus/Oracle.h"
#include "namer/Explain.h"
#include "namer/Pipeline.h"
#include "service/Protocol.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace namer::service {
class ScanService;
}

namespace namerbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point A) {
  return msBetween(A, Clock::now());
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// The self-check mode: small corpora, seconds per run, and after each
  /// real check passes, one corrupted input that the check must refuse.
  bool SelfCheck = false;
  /// Directory for model files and the trace; inside the checkout.
  std::string WorkDir = ".";
  /// Worker threads of the mine and of the scan service (nproc).
  unsigned Threads = 1;
};

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What one run prints: the correctness verdict, the operation counts and
/// the metrics of the requested mode.
struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> Metrics;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  /// Records a failed correctness check (printed to stderr).
  void fail(const std::string &What);
  /// Fails \p What unless its check refused a corrupted input (\p
  /// CheckResult non-empty): the negative self-check.
  void refused(const std::string &CheckResult, const std::string &What);
  uint64_t Refusals = 0;
};

/// Spans recorded from the benchmark's own files around calls into the
/// library: name, operation (request) id, parent span, start and end.
/// Kept in memory and written out once at the end. A disabled tracer
/// records nothing.
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}
  bool on() const { return On; }
  uint64_t newId();

  /// RAII span. Parent is the innermost span open on this thread.
  class Span {
  public:
    Span(Tracer &T, const char *Name, uint64_t Id);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &T;
    size_t Index = 0;
    size_t SavedParent = 0;
  };

  /// Records an already-measured interval (used for request latency,
  /// whose start and end happen on different threads).
  void record(const char *Name, uint64_t Id, Clock::time_point Start,
              Clock::time_point End);

  /// Durations in milliseconds of every span named \p Name.
  std::vector<double> durations(const std::string &Name) const;

  /// {"spans": [...]} with times relative to the tracer's creation.
  std::string json() const;

private:
  struct Record {
    const char *Name;
    uint64_t Id;
    size_t Parent; ///< index + 1 of the parent span, 0 for none
    Clock::time_point Start, End;
  };
  size_t open(const char *Name, uint64_t Id, size_t Parent);
  void close(size_t Index);

  bool On;
  Clock::time_point Origin = Clock::now();
  mutable std::mutex M;
  std::vector<Record> Records; // guarded by M
  uint64_t NextId = 1;         // guarded by M
};

// --- Statistics -------------------------------------------------------

double median(std::vector<double> V);
/// Nearest-rank quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);
double mean(const std::vector<double> &V);

// --- Inputs -----------------------------------------------------------

/// Corpus shape of a workload: the default generated corpus, or a small
/// one in self-check mode. \p Salt (0 or 1) separates the two independent
/// corpora of one run: the mined one and the requests.
namer::corpus::CorpusConfig corpusConfig(namer::corpus::Language Lang,
                                         uint64_t Seed, bool Shrink,
                                         uint64_t Salt = 0);

/// The pipeline configuration every workload mines and scans with.
namer::PipelineConfig pipelineConfig(unsigned Threads);

/// Labels 120 balanced violations with the oracle and trains the
/// classifier (the paper's small supervision).
void trainOnOracle(namer::NamerPipeline &P,
                   const namer::corpus::InspectionOracle &Oracle);

/// The finding selection namer-scan applies by default.
std::vector<namer::Explanation> selectDefault(const namer::NamerPipeline &P);

/// Report lines (newline stripped) of selected findings.
std::vector<std::string>
reportLines(const std::vector<namer::Explanation> &Findings);

/// Report lines of every violation, unfiltered: a fuller identity check
/// than the selected top findings.
std::vector<std::string> violationLines(const namer::NamerPipeline &P);

/// Sorted report lines of every classifier-kept violation (all of them
/// when no classifier is trained): the reports confirmed_share counts.
std::vector<std::string> keptLines(const namer::NamerPipeline &P);

/// The same corpus with views into the original's bytes (cheap copy).
namer::corpus::Corpus viewCopy(const namer::corpus::Corpus &C);

// --- Correctness checks -------------------------------------------------
// Each returns an empty string when the check passes and a one-line
// reason otherwise, so the negative self-check can feed them corrupted
// inputs.

std::string checkSameLines(const std::vector<std::string> &Expected,
                           const std::vector<std::string> &Actual,
                           const std::string &What);

/// One parsed report line.
struct ParsedReport {
  std::string File;
  uint32_t Line = 0;
  std::string Original;
  std::string Suggested;
};
bool parseReportLine(const std::string &Line, ParsedReport &Out);

/// Every report's original subtoken occurs in the source text at its file
/// and line (+-1, case-insensitively, as subtokens are case-folded), and
/// its suggestion differs from the original.
std::string checkReportsInSource(const std::vector<std::string> &Lines,
                                 const namer::corpus::Corpus &C);

/// Reports that the generator's seeded ground truth confirms.
size_t countConfirmed(const std::vector<std::string> &Lines,
                      const namer::corpus::InspectionOracle &Oracle);

std::string checkCount(uint64_t Expected, uint64_t Actual,
                       const std::string &What);

/// Copies \p Lines with one report line corrupted: its original name is
/// replaced by one that occurs nowhere.
std::vector<std::string> corruptOneLine(std::vector<std::string> Lines);

// --- Library telemetry ----------------------------------------------------

uint64_t counterValue(const char *Name);
/// Self time in ms of the library's own span \p Name (telemetry stats).
double librarySpanSelfMs(const std::string &Name);

// --- Layer replay of the mine path ----------------------------------------

/// Counts and times of one replay of the mine layers at one thread, in
/// the order the pipeline runs them.
struct LayerReplay {
  uint64_t Tokens = 0, Tuples = 0, Statements = 0, Paths = 0;
  uint64_t Pairs = 0, Candidates = 0, Kept = 0;
  uint64_t TextHashes = 0; ///< keeps the statement fingerprints live
  double ParseMs = 0, OriginsMs = 0, AstPlusMs = 0, NamePathMs = 0;
  double HistMs = 0, FpTreeMs = 0, GenerateMs = 0, PruneMs = 0;
  double sumMs() const {
    return ParseMs + OriginsMs + AstPlusMs + NamePathMs + HistMs + FpTreeMs +
           GenerateMs + PruneMs;
  }
};

LayerReplay replayMineLayers(const namer::corpus::Corpus &C,
                             const namer::PipelineConfig &PC, Tracer &T,
                             uint64_t Id);

/// What the program itself counted while mining at one thread.
struct ProgramCounts {
  uint64_t Statements = 0, Paths = 0, Candidates = 0, Kept = 0, Pairs = 0;
  double CommitSelfMs = 0;
  double MineMs = 0;
};

/// Mines \p C once at one thread with fresh library telemetry and reads
/// the pipeline's own counters and commit self time. The mined pipeline
/// is handed to \p Keep when given.
ProgramCounts
mineAtOneThread(const namer::corpus::Corpus &C,
                std::unique_ptr<namer::NamerPipeline> *Keep = nullptr);

/// Compares replay counts with the program's; returns the disagreeing
/// layers (empty when all agree).
std::string crossCheck(const LayerReplay &R, const ProgramCounts &P);

/// Adds the mine-layer metrics of a replay (and the cross-check verdict
/// against \p Prog) to \p Out. \p NprocMineMs is the median mine time at
/// nproc threads, for the speedup.
void addMineLayerMetrics(Outcome &Out, const LayerReplay &R,
                         const ProgramCounts &Prog, double NprocMineMs);

/// Times DefectClassifier::train on the features of the 120 balanced
/// oracle labels and extractViolationFeatures (through
/// NamerPipeline::features) over \p Scored, into classifier.train_ms and
/// classifier.features_ms.
void addClassifierLayerMetrics(Outcome &Out, const namer::NamerPipeline &P,
                               const namer::corpus::InspectionOracle &Oracle,
                               const std::vector<namer::Violation> &Scored);

// --- Served requests -------------------------------------------------------

/// The requests of one round: each repository of a corpus generated with
/// its own seed becomes one request of inline files. Paths are prefixed so
/// they never collide with the mined corpus.
struct RequestSet {
  namer::corpus::Corpus Corpus; ///< paths already prefixed
  std::vector<namer::service::Request> Requests;
};
RequestSet makeRequests(namer::corpus::Language Lang, uint64_t Seed,
                        bool Shrink);

/// Result of a closed loop over a ScanService.
struct ServedRun {
  std::vector<double> LatencyMs;  ///< submit -> Done, every request
  std::vector<double> SubmitUs;   ///< the synchronous submit() call
  std::vector<std::vector<std::string>> Lines; ///< by request index
  uint64_t Attempted = 0, Ok = 0;
  std::vector<std::string> BadStatus; ///< "id: status detail"
  double WallS = 0;
  /// Library counters over the run: in-request scan time and the files
  /// the request scans walked.
  double ScanUsSum = 0, ScanCount = 0, FilesWalked = 0, RequestFiles = 0;
  /// Files the request scans re-ingested (added or modified), by the
  /// library's own counters.
  double FilesReingested = 0;
  /// Response lines of one round differed between rounds.
  bool RoundsDiffer = false;

  /// Adds the requests and counters of a later run over the same request
  /// set (takes it whole when this run is empty); response lines that
  /// differ from this run's set RoundsDiffer.
  void append(ServedRun &&Later);
};

/// Starts a ScanService with the shipped admission defaults over
/// \p ModelPath, whose mined corpus is generated from \p Base.
std::unique_ptr<namer::service::ScanService>
startService(const std::string &ModelPath,
             const namer::corpus::CorpusConfig &Base, unsigned Workers);

/// Serves \p Set through \p Svc, keeping \p Outstanding requests in
/// flight from one generator thread. Runs whole rounds until \p Seconds
/// passed (at least one round).
ServedRun serveClosedLoop(namer::service::ScanService &Svc,
                          const RequestSet &Set, unsigned Outstanding,
                          double Seconds, Tracer &T);

/// Every response is ok.
std::string checkStatuses(const std::vector<std::string> &Bad);

/// Checks every response against a direct loadModel + scanWith of the
/// same request corpus (the service's base corpus plus the request's
/// repository) with the same selection. With \p TimeLayers, also records
/// the direct calls' per-layer times into \p Out.
void checkServed(Outcome &Out, const ServedRun &Run,
                 const std::string &ModelPath,
                 const namer::corpus::Corpus &Base, const RequestSet &Set,
                 unsigned Threads, const std::string &WorkDir,
                 bool TimeLayers, bool NegativeChecks);

/// Adds the service.* layer metrics of \p Run to \p Out.
void addServiceLayerMetrics(Outcome &Out, const ServedRun &Run);

// --- Workloads --------------------------------------------------------------

Outcome runMine(const Options &O, namer::corpus::Language Lang, Tracer &T);
Outcome runRescan(const Options &O, Tracer &T);
Outcome runServe(const Options &O, Tracer &T);

/// In trace mode, every workload that does not serve requests itself
/// serves one round against its model so the service layers are measured
/// on every workload.
void probeService(Outcome &Out, const Options &O, namer::corpus::Language Lang,
                  const std::string &ModelPath,
                  const namer::corpus::Corpus &Base, Tracer &T);

} // namespace namerbench

#endif // NAMERBENCH_BENCH_H
