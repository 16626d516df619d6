//===- namerbench/src/Layers.cpp - Layer replay of the mine path ----------==//
//
// Replays NamerPipeline::mine layer by layer at one thread, in the order
// the pipeline runs them, timing each call into the layer's public
// function. The replay's counts are cross-checked against the counters
// the pipeline itself records, so a replay that drifted from the program
// is flagged instead of published.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Origins.h"
#include "ast/Statements.h"
#include "classifier/DefectClassifier.h"
#include "frontend/java/JavaParser.h"
#include "frontend/python/PythonParser.h"
#include "histmine/ConfusingPairs.h"
#include "namepath/NamePath.h"
#include "namer/Evaluation.h"
#include "pattern/Miner.h"
#include "support/Hashing.h"
#include "support/Telemetry.h"
#include "transform/AstPlus.h"

using namespace namer;

namespace namerbench {

namespace {

struct Parsed {
  Tree Module;
  size_t Tokens;
};

Parsed parse(std::string_view Text, corpus::Language Lang, AstContext &Ctx,
             unsigned MaxNestingDepth) {
  if (Lang == corpus::Language::Python) {
    python::ParseOptions Opts;
    Opts.MaxNestingDepth = MaxNestingDepth;
    python::ParseResult R = python::parsePython(Text, Ctx, Opts);
    return Parsed{std::move(R.Module), R.NumTokens};
  }
  java::ParseOptions Opts;
  Opts.MaxNestingDepth = MaxNestingDepth;
  java::ParseResult R = java::parseJava(Text, Ctx, Opts);
  return Parsed{std::move(R.Module), R.NumTokens};
}

/// Adds the elapsed time of \p F to \p Ms and records it as a span.
template <typename Fn>
void timed(double &Ms, Tracer &T, const char *Name, uint64_t Id, Fn &&F) {
  Tracer::Span S(T, Name, Id);
  Clock::time_point Start = Clock::now();
  F();
  Ms += msSince(Start);
}

} // namespace

LayerReplay replayMineLayers(const corpus::Corpus &C, const PipelineConfig &PC,
                             Tracer &T, uint64_t Id) {
  Tracer::Span All(T, "replay.mine", Id);
  LayerReplay R;
  AstContext Ctx;
  NamePathTable Table;
  WellKnownRegistry Registry = C.Lang == corpus::Language::Python
                                   ? WellKnownRegistry::forPython()
                                   : WellKnownRegistry::forJava();
  unsigned Depth = PC.Limits.MaxNestingDepth;

  // Ingest: parse, analyses, AST+, statement projection and name paths,
  // committed into one table in corpus order.
  std::vector<StmtPaths> Dataset;
  for (const corpus::Repository &Repo : C.Repos)
    for (const corpus::SourceFile &File : Repo.Files) {
      Tree Module(Ctx);
      timed(R.ParseMs, T, "frontend.parse", Id, [&] {
        Parsed P = parse(File.contents(), C.Lang, Ctx, Depth);
        R.Tokens += P.Tokens;
        Module = std::move(P.Module);
      });
      OriginMap Origins;
      if (PC.UseAnalyses)
        timed(R.OriginsMs, T, "analysis.origins", Id, [&] {
          AnalysisResult A = computeOrigins(Module, Registry, PC.Analysis);
          R.Tuples += A.NumDerivedTuples;
          Origins = std::move(A.Origins);
        });
      timed(R.AstPlusMs, T, "transform.astplus", Id,
            [&] { transformToAstPlus(Module, Origins); });
      timed(R.NamePathMs, T, "namepath.extract", Id, [&] {
        for (NodeId Root : collectStatementRoots(Module)) {
          if (Module.node(Root).Kind == NodeKind::ClassDef)
            continue;
          Tree Stmt = projectStatement(Module, Root);
          // The pipeline fingerprints every projected statement.
          R.TextHashes ^= hashString(Stmt.dump());
          std::vector<NamePath> Paths = extractNamePaths(Stmt, 10);
          ++R.Statements;
          R.Paths += Paths.size();
          if (!Paths.empty())
            Dataset.push_back(StmtPaths::fromPaths(Paths, Table, Ctx));
        }
      });
    }

  // Confusing word pairs from the commit history.
  ConfusingPairMiner Pairs(Ctx);
  for (const corpus::CommitPair &Commit : C.Commits) {
    Tree Before(Ctx), After(Ctx);
    timed(R.ParseMs, T, "frontend.parse", Id, [&] {
      Parsed B = parse(Commit.Before, C.Lang, Ctx, Depth);
      Parsed A = parse(Commit.After, C.Lang, Ctx, Depth);
      R.Tokens += B.Tokens + A.Tokens;
      Before = std::move(B.Module);
      After = std::move(A.Module);
    });
    timed(R.HistMs, T, "histmine.diff", Id,
          [&] { Pairs.addCommit(Before, After); });
  }
  R.Pairs = Pairs.numPairs();

  // Both pattern kinds: FP-tree build, candidate generation, pruning.
  for (PatternKind Kind :
       {PatternKind::Consistency, PatternKind::ConfusingWord}) {
    PatternMiner Miner(Kind, Table, Ctx, PC.Miner);
    if (Kind == PatternKind::ConfusingWord)
      Miner.setCorrectWords(Pairs.correctWords());
    timed(R.FpTreeMs, T, "pattern.fptree", Id, [&] { Miner.build(Dataset); });
    std::vector<NamePattern> Candidates;
    timed(R.GenerateMs, T, "pattern.generate", Id,
          [&] { Candidates = Miner.generate(); });
    R.Candidates += Candidates.size();
    timed(R.PruneMs, T, "pattern.prune", Id, [&] {
      R.Kept += Miner.pruneUncommon(std::move(Candidates), Dataset).size();
    });
  }
  return R;
}

ProgramCounts mineAtOneThread(const corpus::Corpus &C,
                              std::unique_ptr<NamerPipeline> *Keep) {
  telemetry::reset();
  auto P = std::make_unique<NamerPipeline>(pipelineConfig(1));
  Clock::time_point Start = Clock::now();
  P->mine(C);
  ProgramCounts Out;
  Out.MineMs = msSince(Start);
  Out.Statements = counterValue("namepath.statements");
  Out.Paths = counterValue("namepath.paths");
  Out.Candidates = counterValue("fptree.patterns_generated");
  Out.Kept = counterValue("prune.kept");
  Out.Pairs = counterValue("histmine.pairs");
  Out.CommitSelfMs = librarySpanSelfMs("pipeline.commit");
  if (Keep)
    *Keep = std::move(P);
  return Out;
}

std::string crossCheck(const LayerReplay &R, const ProgramCounts &P) {
  std::string Bad;
  auto Check = [&](const char *Layer, uint64_t Replay, uint64_t Program) {
    if (Replay != Program)
      Bad += std::string(Bad.empty() ? "" : "; ") + Layer + " replay " +
             std::to_string(Replay) + " vs program " + std::to_string(Program);
  };
  Check("namepath.statements", R.Statements, P.Statements);
  Check("namepath.paths", R.Paths, P.Paths);
  Check("histmine.pairs", R.Pairs, P.Pairs);
  Check("pattern.candidates", R.Candidates, P.Candidates);
  Check("pattern.kept", R.Kept, P.Kept);
  return Bad;
}

void addMineLayerMetrics(Outcome &Out, const LayerReplay &R,
                         const ProgramCounts &Prog, double NprocMineMs) {
  std::string Bad = crossCheck(R, Prog);
  if (!Bad.empty()) {
    // A layer whose counts disagree is not published.
    Out.fail("layer replay disagrees with the program: " + Bad);
    return;
  }
  Out.set("frontend.parse_ms", R.ParseMs, "ms");
  Out.set("frontend.tokens_per_s", R.Tokens / (R.ParseMs / 1000.0), "1/s");
  Out.set("analysis.origins_ms", R.OriginsMs, "ms");
  Out.set("analysis.datalog_tuples", static_cast<double>(R.Tuples), "count");
  Out.set("transform.astplus_ms", R.AstPlusMs, "ms");
  Out.set("namepath.extract_ms", R.NamePathMs, "ms");
  Out.set("namepath.statements", static_cast<double>(R.Statements), "count");
  Out.set("namepath.paths", static_cast<double>(R.Paths), "count");
  Out.set("histmine.diff_ms", R.HistMs, "ms");
  Out.set("histmine.pairs", static_cast<double>(R.Pairs), "count");
  Out.set("pattern.fptree_ms", R.FpTreeMs, "ms");
  Out.set("pattern.generate_ms", R.GenerateMs, "ms");
  Out.set("pattern.prune_ms", R.PruneMs, "ms");
  Out.set("pattern.candidates", static_cast<double>(R.Candidates), "count");
  Out.set("pattern.kept", static_cast<double>(R.Kept), "count");
  Out.set("pattern.kept_per_candidate",
          R.Candidates ? static_cast<double>(R.Kept) / R.Candidates : 0,
          "ratio");
  // What the replayed layers do not cover of mine at one thread: mostly
  // the sequential commit, which has no public entry point, and the scan
  // that fills the statistics index. Shown next to the program's own
  // pipeline.commit self time.
  Out.set("namer.unattributed_ms", Prog.MineMs - R.sumMs(), "ms");
  Out.set("namer.commit_self_ms", Prog.CommitSelfMs, "ms");
  Out.set("namer.mine_1thread_ms", Prog.MineMs, "ms");
  Out.set("namer.speedup", NprocMineMs > 0 ? Prog.MineMs / NprocMineMs : 0,
          "x");
}

void addClassifierLayerMetrics(Outcome &Out, const NamerPipeline &P,
                               const corpus::InspectionOracle &Oracle,
                               const std::vector<Violation> &Scored) {
  EvaluationConfig EC;
  std::vector<size_t> Indices;
  std::vector<bool> Labels;
  collectBalancedLabels(P, Oracle, EC.NumLabeled, EC.Seed, Indices, Labels);
  std::vector<std::vector<double>> Features;
  for (size_t I : Indices)
    Features.push_back(P.features(P.violations()[I]));
  Clock::time_point Start = Clock::now();
  if (!Features.empty()) {
    DefectClassifier Classifier(P.config().Classifier);
    Classifier.train(Features, Labels);
  }
  Out.set("classifier.train_ms", msSince(Start), "ms");

  Start = Clock::now();
  size_t Sink = 0;
  for (const Violation &V : Scored)
    Sink += P.features(V).size();
  double FeatMs = msSince(Start);
  if (Sink != Scored.size() * NumViolationFeatures)
    Out.fail("feature vectors of the wrong length");
  Out.set("classifier.features_ms", FeatMs, "ms");
}

} // namespace namerbench
