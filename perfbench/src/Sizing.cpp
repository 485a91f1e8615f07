//===- Sizing.cpp - Sizing observations behind the workload choices -------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `perfbench --sizing` prints the measurements the workloads were sized
/// from: foreach_tile's interpretation time over the first requests of a
/// process (what the warm-up must cover), the parse cost of the largest
/// TOSA model's text against its pipeline time, loop.tile's self time per
/// action as the payload grows next to a non-consuming annotate action,
/// and single-sample script vs PassManager overheads per Table 1 model.
/// Nothing here is checked or gated; the README records the figures.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/Transform.h"
#include "dialect/Dialects.h"
#include "exec/Workloads.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "pass/Pass.h"

#include <cstdio>

using namespace perfbench;
using namespace tdl;

namespace {

TransformOptions shardedOptions() {
  TransformOptions Options;
  Options.MatchShards = 4;
  Options.CommitShards = 4;
  return Options;
}

void firstRequests(Context &Ctx, const RunConfig &Config) {
  OwningOpRef Script = parseSourceString(
      Ctx, readFile(Config.BenchDir + "/scripts/foreach_tile.mlir"), "script");
  std::string Text = moduleText(foreachTileSpecs(Config.Seed));
  std::printf("foreach_tile interpretation, first 8 requests of a process "
              "(400 functions, shards 4), ms:");
  for (int I = 0; I < 8; ++I) {
    OwningOpRef Payload = parseSourceString(Ctx, Text, "payload");
    int64_t Start = nowNanos();
    (void)applyTransforms(Payload.get(), Script.get(), shardedOptions());
    std::printf(" %.1f", elapsedMs(Start));
  }
  std::printf("\n");
}

void tosaParse(Context &Ctx, const RunConfig &Config) {
  OwningOpRef Model =
      workloads::buildSyntheticTosaModel(Ctx, 4134, Config.Seed | 1);
  std::string Text = printOperationToString(Model.get());
  auto Elements = parsePassPipeline(Ctx, workloads::getTosaPipeline());
  std::vector<double> ParseMs, PipelineMs;
  for (int I = 0; I < 5; ++I) {
    int64_t Start = nowNanos();
    OwningOpRef Parsed = parseSourceString(Ctx, Text, "model");
    ParseMs.push_back(elapsedMs(Start));
    PassManager PM(Ctx);
    (void)buildPassManager(PM, *Elements);
    Start = nowNanos();
    (void)PM.run(Parsed.get());
    PipelineMs.push_back(elapsedMs(Start));
  }
  double Parse = median(ParseMs), Pipeline = median(PipelineMs);
  std::printf("4134-op TOSA model: %.0f KB of text, parse %.1f ms (%.1f "
              "MB/s), pipeline %.1f ms, parse/pipeline %.1fx\n",
              Text.size() / 1024.0, Parse, Text.size() / 1e3 / Parse,
              Pipeline, Parse / Pipeline);
}

void actionScaling(Context &Ctx, const RunConfig &Config) {
  auto &Collector = telemetry::SpanCollector::instance();
  for (const char *Action : {"tile", "annotate"}) {
    OwningOpRef Script = parseSourceString(
        Ctx,
        readFile(Config.BenchDir + "/scripts/foreach_" + Action + ".mlir"),
        "script");
    std::string SpanName = std::string("transform.") +
                           (Action[0] == 't' ? "loop.tile" : "annotate");
    std::printf("%s self time per action, us:", SpanName.c_str());
    for (int Funcs : {200, 400, 800}) {
      std::vector<KernelSpec> Specs(Funcs);
      for (int I = 0; I < Funcs; ++I) {
        Specs[I].M = Specs[I].N = 16;
        Specs[I].Name = "k" + std::to_string(I);
      }
      std::string Text = moduleText(Specs);
      std::vector<double> SelfUs;
      for (int Rep = 0; Rep < 5; ++Rep) {
        OwningOpRef Payload = parseSourceString(Ctx, Text, "payload");
        Collector.start();
        (void)applyTransforms(Payload.get(), Script.get(), shardedOptions());
        SelfUs.push_back(meanSelfMicros(Collector.finish(), SpanName));
      }
      std::printf(" %d functions %.1f;", Funcs, median(SelfUs));
    }
    std::printf("\n");
  }
}

void scriptOverhead(Context &Ctx, const RunConfig &Config) {
  std::string Pipeline = workloads::getTosaPipeline();
  OwningOpRef Script = buildTransformScriptFromPipeline(Ctx, Pipeline);
  auto Elements = parsePassPipeline(Ctx, Pipeline);
  for (int Run = 0; Run < 2; ++Run) {
    std::printf("script over PassManager, one sample per model:");
    for (int64_t Ops : {126, 847, 1182, 2861, 4134}) {
      OwningOpRef A =
          workloads::buildSyntheticTosaModel(Ctx, Ops, Config.Seed | 1);
      OwningOpRef B =
          workloads::buildSyntheticTosaModel(Ctx, Ops, Config.Seed | 1);
      int64_t Start = nowNanos();
      PassManager PM(Ctx);
      (void)buildPassManager(PM, *Elements);
      (void)PM.run(A.get());
      double Manager = elapsedMs(Start);
      Start = nowNanos();
      (void)applyTransforms(B.get(), Script.get());
      double ByScript = elapsedMs(Start);
      std::printf(" %lld ops %+.0f%%;", static_cast<long long>(Ops),
                  100 * (ByScript - Manager) / Manager);
    }
    std::printf("\n");
  }
}

} // namespace

int perfbench::runSizing(const RunConfig &Config) {
  Context Ctx;
  registerAllDialects(Ctx);
  registerTransformDialect(Ctx);
  // First, while the process is fresh.
  firstRequests(Ctx, Config);
  tosaParse(Ctx, Config);
  actionScaling(Ctx, Config);
  scriptOverhead(Ctx, Config);
  return 0;
}
