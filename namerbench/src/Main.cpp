//===- namerbench/src/Main.cpp - namerbench entry point -------------------==//
//
// Runs one workload and prints, as its last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The line
// before it stamps the run (hardware, build type, assertions, git rev,
// seeds). Usually driven by run.py, which builds this binary, runs each
// workload in its own child process and adds the peak RSS.
//
//   namerbench --workload mine-python|mine-java|rescan-python|serve-python
//              --seed N --seconds S --trace 0|1 --workdir DIR
//              [--selfcheck]
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Telemetry.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <thread>

#ifndef NAMERBENCH_BUILD_TYPE
#define NAMERBENCH_BUILD_TYPE "unknown"
#endif

using namespace namer;
using namespace namerbench;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--selfcheck]\n",
               Argv0);
  return 2;
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string stampJson(const Options &O) {
  bool Assertions =
#ifdef NDEBUG
      false;
#else
      true;
#endif
  corpus::CorpusConfig Mined = corpusConfig(
      O.Workload == "mine-java" ? corpus::Language::Java
                                : corpus::Language::Python,
      O.Seed, O.SelfCheck);
  corpus::CorpusConfig Requests = corpusConfig(
      Mined.Lang, O.Seed, O.SelfCheck, /*Salt=*/1);
  std::string S = "{\"stamp\": {";
  S += "\"assertions\": " + std::string(Assertions ? "true" : "false");
  S += ", \"build_type\": \"" + std::string(NAMERBENCH_BUILD_TYPE) + "\"";
  S += ", \"corpus_seed\": " + std::to_string(Mined.Seed);
  S += ", \"git_rev\": \"" + telemetry::defaultMeta("namerbench", 0).GitRev +
       "\"";
  S += ", \"hardware_concurrency\": " +
       std::to_string(std::thread::hardware_concurrency());
  S += ", \"request_seed\": " + std::to_string(Requests.Seed);
  S += ", \"seconds\": " + number(O.Seconds);
  S += ", \"seed\": " + std::to_string(O.Seed);
  S += ", \"selfcheck\": " + std::string(O.SelfCheck ? "true" : "false");
  S += ", \"threads\": " + std::to_string(O.Threads);
  S += ", \"trace\": " + std::string(O.Trace ? "1" : "0");
  S += ", \"workload\": \"" + O.Workload + "\"";
  S += "}}";
  return S;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.Threads = std::max(1u, std::thread::hardware_concurrency());
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--selfcheck") {
      O.SelfCheck = true;
    } else if (!(V = Value())) {
      return usage(Argv[0]);
    } else if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, nullptr);
    } else if (A == "--trace") {
      O.Trace = std::strcmp(V, "0") != 0;
    } else if (A == "--workdir") {
      O.WorkDir = V;
    } else {
      return usage(Argv[0]);
    }
  }
  if (!(O.Seconds > 0) || O.Seconds > 600)
    return usage(Argv[0]);

  Tracer T(O.Trace);
  Outcome Out;
  try {
    if (O.Workload == "mine-python")
      Out = runMine(O, corpus::Language::Python, T);
    else if (O.Workload == "mine-java")
      Out = runMine(O, corpus::Language::Java, T);
    else if (O.Workload == "rescan-python")
      Out = runRescan(O, T);
    else if (O.Workload == "serve-python")
      Out = runServe(O, T);
    else
      return usage(Argv[0]);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "namerbench: %s failed: %s\n", O.Workload.c_str(),
                 E.what());
    return 1;
  }

  if (O.SelfCheck)
    std::fprintf(stderr,
                 "namerbench: negative self-check: %llu checks refused their "
                 "corrupted input\n",
                 static_cast<unsigned long long>(Out.Refusals));
  if (O.Trace) {
    std::string Path = O.WorkDir + "/trace.json";
    std::ofstream(Path, std::ios::binary) << T.json();
  }

  std::string Line =
      "{\"correct\": " + std::string(Out.Correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(Out.Attempted) +
      ", \"failed\": " + std::to_string(Out.Failed) + ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : Out.Metrics) {
    Line += (First ? "\"" : ", \"") + Name + "\": {\"value\": " +
            number(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  Line += "}}";
  std::printf("%s\n%s\n", stampJson(O).c_str(), Line.c_str());
  return Out.Correct ? 0 : 1;
}
