//===- TosaPipeline.cpp - Script vs PassManager TOSA lowering -------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five Table 1 synthetic TOSA models, each lowered by the 15-step
/// TOSA->Linalg pipeline twice per batch: as a Transform script of
/// `apply_registered_pass` ops (the compile_ms arm) and through the
/// PassManager. The arms alternate which runs first. Both arms verify their
/// output inside the timed region. Nothing is parsed, matched or executed,
/// so the pass, rewrite and lowering layers and the interpreter's
/// consume/invalidate path on a large payload carry the time.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "core/Transform.h"
#include "core/TransformLibrary.h"
#include "dialect/Dialects.h"
#include "exec/Workloads.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pass/Pass.h"

using namespace perfbench;
using namespace tdl;

namespace {

/// Op counts of the Table 1 models (Squeezenet, Whisper decoder,
/// BERT-base, GPT-2, Mobile BERT).
const int64_t ModelOps[] = {126, 847, 1182, 2861, 4134};

struct TosaSetUp {
  std::unique_ptr<Context> Ctx;
  OwningOpRef Script;
  std::vector<PipelineElement> Elements;
};

std::unique_ptr<TosaSetUp> setUp() {
  auto S = std::make_unique<TosaSetUp>();
  S->Ctx = std::make_unique<Context>();
  registerAllDialects(*S->Ctx);
  registerTransformDialect(*S->Ctx);
  std::string Pipeline = workloads::getTosaPipeline();
  S->Script = buildTransformScriptFromPipeline(*S->Ctx, Pipeline);
  auto Elements = parsePassPipeline(*S->Ctx, Pipeline);
  if (!S->Script || failed(Elements))
    return nullptr;
  S->Elements = *Elements;
  return S;
}

} // namespace

WorkloadResult perfbench::runTosaPipeline(const RunConfig &Config) {
  WorkloadResult Result;
  SetUpTimer<TosaSetUp> SetUps(setUp);
  std::unique_ptr<TosaSetUp> S = SetUps.first();
  if (!S) {
    Result.fail("set-up failed: pipeline or script did not build");
    return Result;
  }
  Context &Ctx = *S->Ctx;

  // The request set: one model seed per Table 1 model.
  std::vector<uint64_t> ModelSeeds;
  Rng R(Config.Seed);
  for (size_t I = 0; I < std::size(ModelOps); ++I)
    ModelSeeds.push_back(R.next() | 1);
  std::string InputBytes;
  for (size_t I = 0; I < ModelSeeds.size(); ++I) {
    OwningOpRef Model =
        workloads::buildSyntheticTosaModel(Ctx, ModelOps[I], ModelSeeds[I]);
    InputBytes += printOperationToString(Model.get());
  }
  Result.InputHash = hashContent(InputBytes);
  // Freed before the run, so that peak_rss_mb holds none of it.
  std::string().swap(InputBytes);

  BatchSamples Untraced, Traced;
  int BatchIndex = 0;
  auto Batch = [&](bool Warmup, bool Trace) {
    BatchSamples &Out = Trace ? Traced : Untraced;
    double ScriptMs = 0, ManagerMs = 0, InterpMs = 0, PipelineMs = 0,
           VerifyMs = 0;
    std::map<std::string, double> PerPassMs;
    bool Ok = true;
    for (size_t M = 0; M < std::size(ModelOps); ++M) {
      OwningOpRef ByScript =
          workloads::buildSyntheticTosaModel(Ctx, ModelOps[M], ModelSeeds[M]);
      OwningOpRef ByManager =
          workloads::buildSyntheticTosaModel(Ctx, ModelOps[M], ModelSeeds[M]);
      auto RunScript = [&] {
        int64_t Start = nowNanos();
        bool Applied =
            succeeded(applyTransforms(ByScript.get(), S->Script.get()));
        double Interp = elapsedMs(Start);
        int64_t VerifyStart = nowNanos();
        bool Verified = Applied && succeeded(verify(ByScript.get()));
        VerifyMs += elapsedMs(VerifyStart);
        ScriptMs += elapsedMs(Start);
        InterpMs += Interp;
        return Verified;
      };
      auto RunManager = [&] {
        int64_t Start = nowNanos();
        PassManager PM(Ctx);
        bool Ran = succeeded(buildPassManager(PM, S->Elements)) &&
                   succeeded(PM.run(ByManager.get()));
        double Pipeline = elapsedMs(Start);
        int64_t VerifyStart = nowNanos();
        bool Verified = Ran && succeeded(verify(ByManager.get()));
        VerifyMs += elapsedMs(VerifyStart);
        ManagerMs += elapsedMs(Start);
        PipelineMs += Pipeline;
        return Verified;
      };
      bool ScriptFirst = (BatchIndex + M) % 2 == 0;
      bool ScriptOk, ManagerOk;
      if (ScriptFirst) {
        ScriptOk = RunScript();
        ManagerOk = RunManager();
      } else {
        ManagerOk = RunManager();
        ScriptOk = RunScript();
      }
      if (!Warmup) {
        Result.Attempted += 2;
        Result.Failed += !ScriptOk + !ManagerOk;
      }
      if (!ScriptOk || !ManagerOk) {
        Result.fail("model " + std::to_string(ModelOps[M]) +
                    " failed to lower or verify");
        Ok = false;
        continue;
      }
      std::string Why = checkTosaLowering(ByScript.get(), ByManager.get());
      if (!Why.empty()) {
        Result.fail("model " + std::to_string(ModelOps[M]) + ": " + Why);
        Ok = false;
      }

      if (Trace) {
        // The pipeline one element at a time, each under its own
        // PassManager, on a third copy of the model.
        OwningOpRef Stepped =
            workloads::buildSyntheticTosaModel(Ctx, ModelOps[M], ModelSeeds[M]);
        for (const PipelineElement &E : S->Elements) {
          PassManager PM(Ctx);
          int64_t Start = nowNanos();
          if (failed(buildPassManager(PM, {E})) ||
              failed(PM.run(Stepped.get()))) {
            Result.fail("pipeline element '" + E.PassName + "' failed");
            Ok = false;
            break;
          }
          PerPassMs[E.PassName] += elapsedMs(Start);
        }
      }
    }
    ++BatchIndex;
    if (Warmup || !Ok)
      return Ok;
    if (!SetUps.sample()) {
      Result.fail("a set-up in a fresh process failed");
      return false;
    }
    Out.add("compile_ms", ScriptMs);
    Out.add("passmanager_ms", ManagerMs);
    if (Trace) {
      Out.add("core.interp_ms", InterpMs);
      Out.add("pass.pipeline_ms", PipelineMs);
      Out.add("core.script_overhead_ms", InterpMs - PipelineMs);
      Out.add("ir.verify_ms", VerifyMs);
      for (const auto &[Name, Ms] : PerPassMs)
        Out.add("pass." + Name + "_ms", Ms);
    }
    return Ok;
  };

  if (!Config.Trace) {
    runBatches(Config.Seconds, 3, 5, [&](bool Warmup) {
      return Batch(Warmup, /*Trace=*/false);
    });
    Result.metric("setup_s", SetUps.medianSeconds());
    Result.metric("compile_ms", Untraced.medianOf("compile_ms"));
    Result.metric("peak_rss_mb", peakRssMb());
    Result.Notes.push_back("passmanager_ms " +
                           std::to_string(Untraced.medianOf("passmanager_ms")));
    return Result;
  }

  auto &Collector = telemetry::SpanCollector::instance();
  runAlternating(Config.Seconds, 3, 10, [&](bool Warmup, bool Trace) {
    if (!Trace)
      return Batch(Warmup, false);
    Collector.start();
    bool Ok = Batch(false, true);
    Collector.finish();
    return Ok;
  });
  Result.metric("passmanager_ms", Untraced.medianOf("passmanager_ms"));
  Result.metric("trace_overhead_ms", Traced.medianOf("compile_ms") -
                                         Untraced.medianOf("compile_ms"));
  Traced.ByName.erase("compile_ms");
  Traced.ByName.erase("passmanager_ms");
  Traced.report(Result);

  Result.metric("core.prepass_us", prepassMicros(S->Script.get()));
  return Result;
}
