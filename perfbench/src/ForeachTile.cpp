//===- ForeachTile.cpp - foreach_match tiling over a large payload --------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One large text payload of several hundred kernels, drawn by seed from a
/// fixed mix of kinds, is parsed, tiled by one `transform.foreach_match`
/// whose consuming `loop.tile` action fires on every top-level nest at
/// least two deep (match and commit shards = 4), verified, and printed back
/// to text, as tdl-opt does. Single loops and straight-line kernels must be
/// rejected by the matcher. The parser, printer, verifier and the matcher
/// engine's match and commit phases carry the time, with one live pinned
/// handle per match; nothing is executed inside the timed region.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "core/Transform.h"
#include "core/TransformLibrary.h"
#include "dialect/Dialects.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"


using namespace perfbench;
using namespace tdl;

namespace {

/// Functions per payload, by kind. The counts are fixed so every seed does
/// the same amount of transform work; the seed draws the order and sizes.
const std::pair<KernelKind, int> Mix[] = {
    {KernelKind::Eltwise, 160}, {KernelKind::RowSum, 80},
    {KernelKind::Matmul, 60},   {KernelKind::Scale1D, 60},
    {KernelKind::Straight, 40},
};
constexpr unsigned Shards = 4;

struct TileSetUp {
  std::unique_ptr<Context> Ctx;
  OwningOpRef Script;
};

} // namespace

std::vector<KernelSpec> perfbench::foreachTileSpecs(uint64_t Seed) {
  Rng R(Seed);
  std::vector<KernelSpec> Specs;
  for (auto [Kind, Count] : Mix)
    for (int I = 0; I < Count; ++I) {
      KernelSpec S;
      S.Kind = Kind;
      bool Small = Kind == KernelKind::Matmul;
      S.M = R.range(Small ? 4 : 8, Small ? 8 : 16);
      S.N = R.range(Small ? 4 : 8, Small ? 8 : 16);
      S.K = R.range(4, 8);
      Specs.push_back(S);
    }
  R.shuffle(Specs);
  for (size_t I = 0; I < Specs.size(); ++I)
    Specs[I].Name = "k" + std::to_string(I);
  return Specs;
}

WorkloadResult perfbench::runForeachTile(const RunConfig &Config) {
  WorkloadResult Result;
  std::string ScriptPath = Config.BenchDir + "/scripts/foreach_tile.mlir";
  SetUpTimer<TileSetUp> SetUps([&]() -> std::unique_ptr<TileSetUp> {
    auto S = std::make_unique<TileSetUp>();
    S->Ctx = std::make_unique<Context>();
    registerAllDialects(*S->Ctx);
    registerTransformDialect(*S->Ctx);
    S->Script = parseSourceString(*S->Ctx, readFile(ScriptPath), ScriptPath);
    if (!S->Script)
      return nullptr;
    return S;
  });
  std::unique_ptr<TileSetUp> S = SetUps.first();
  if (!S) {
    Result.fail("set-up failed: cannot load " + ScriptPath);
    return Result;
  }
  Context &Ctx = *S->Ctx;

  std::vector<KernelSpec> Specs = foreachTileSpecs(Config.Seed);
  std::string PayloadText = moduleText(Specs);
  Rng R(Config.Seed ^ 0x5bd1e995u);
  std::vector<KernelInputs> Inputs;
  std::string InputBytes = PayloadText;
  for (const KernelSpec &Spec : Specs) {
    Inputs.push_back(makeInputs(Spec, R));
    appendInputBytes(Inputs.back(), InputBytes);
  }
  Result.InputHash = hashContent(InputBytes);
  // Freed before the run, so that peak_rss_mb holds none of it.
  std::string().swap(InputBytes);

  TransformOptions Options;
  Options.MatchShards = Shards;
  Options.CommitShards = Shards;

  // The first output is checked in full (tiled-nest count and execution
  // against the C++ reference); every later output must print identical
  // to it.
  std::string Verified;
  BatchSamples Untraced, Traced;
  auto Batch = [&](bool Warmup, bool Trace) {
    int64_t Start = nowNanos();
    OwningOpRef Payload = parseSourceString(Ctx, PayloadText, "foreach_tile");
    double ParseMs = elapsedMs(Start);
    int64_t InterpStart = nowNanos();
    bool Ok = Payload && succeeded(applyTransforms(Payload.get(),
                                                   S->Script.get(), Options));
    double InterpMs = elapsedMs(InterpStart);
    int64_t VerifyStart = nowNanos();
    Ok = Ok && succeeded(verify(Payload.get()));
    double VerifyMs = elapsedMs(VerifyStart);
    int64_t PrintStart = nowNanos();
    std::string Output = Ok ? printOperationToString(Payload.get()) : "";
    double PrintMs = elapsedMs(PrintStart);
    double CompileMs = elapsedMs(Start);
    if (!Warmup) {
      ++Result.Attempted;
      Result.Failed += !Ok;
    }
    if (!Ok) {
      Result.fail("payload failed to parse, transform or verify");
      return false;
    }
    if (Verified.empty()) {
      std::string Why = checkTiledNests(Payload.get(), Specs);
      if (Why.empty())
        Why = checkKernelsExecute(Payload.get(), Specs, Inputs);
      if (!Why.empty()) {
        Result.fail(Why);
        return false;
      }
      Verified = Output;
    } else if (Output != Verified) {
      Result.fail("output differs from the first, checked output");
      return false;
    }
    if (Warmup)
      return true;
    if (!SetUps.sample()) {
      Result.fail("a set-up in a fresh process failed");
      return false;
    }
    BatchSamples &Out = Trace ? Traced : Untraced;
    Out.add("compile_ms", CompileMs);
    if (Trace) {
      Out.add("ir.parse_ms", ParseMs);
      Out.add("core.interp_ms", InterpMs);
      Out.add("ir.verify_ms", VerifyMs);
      Out.add("ir.print_ms", PrintMs);
    }
    return true;
  };

  if (!Config.Trace) {
    runBatches(Config.Seconds, 5, 5,
               [&](bool Warmup) { return Batch(Warmup, false); });
    Result.metric("setup_s", SetUps.medianSeconds());
    Result.metric("compile_ms", Untraced.medianOf("compile_ms"));
    Result.metric("peak_rss_mb", peakRssMb());
    return Result;
  }

  auto &Collector = telemetry::SpanCollector::instance();
  runAlternating(Config.Seconds, 5, 10, [&](bool Warmup, bool Trace) {
    if (!Trace)
      return Batch(Warmup, false);
    telemetry::MetricsSnapshot Before =
        telemetry::MetricsRegistry::instance().snapshot();
    Collector.start();
    bool Ok = Batch(false, true);
    std::vector<telemetry::Span> Spans = Collector.finish();
    RegistryDelta Delta = registryDelta(Before);
    if (!Ok)
      return false;
    int64_t Invocations = Delta.counter("interp.matcher_invocations");
    int64_t Committed = countSpans(Spans, "transform.loop.tile");
    Traced.add("core.engine_match_ms", Delta.durationMs("engine.match"));
    Traced.add("core.engine_commit_ms", Delta.durationMs("engine.commit"));
    Traced.add("core.matcher_invocations", Invocations);
    Traced.add("core.match_hit_ratio",
               Invocations ? double(Committed) / Invocations : 0);
    Traced.add("core.commit_parallel_partitions",
               Delta.counter("engine.commit.parallel_partitions"));
    Traced.add("core.commit_serial_partitions",
               Delta.counter("engine.commit.serial_partitions"));
    Traced.add("loops.tile_us", meanSelfMicros(Spans, "transform.loop.tile"));
    return true;
  });
  Result.metric("trace_overhead_ms", Traced.medianOf("compile_ms") -
                                         Untraced.medianOf("compile_ms"));
  Traced.ByName.erase("compile_ms");
  Traced.report(Result);

  Result.metric("core.prepass_us", prepassMicros(S->Script.get()));
  return Result;
}
