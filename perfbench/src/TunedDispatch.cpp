//===- TunedDispatch.cpp - Tuned strategy dispatch of small kernels -------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded stream of small elementwise and matmul-shaped loop nests, some
/// with sizes no tile candidate divides. Each kernel is parsed, dispatched
/// through the StrategyManager to the benchmark's copy of the tile ->
/// lower_scf_to_cf strategy under a fixed tuning budget, with no tuning
/// database, and printed; the bound kernel is then executed. The tuning
/// objective is deterministic: the executor's op count for one run of the
/// transformed clone, never wall time. Strategy selection, the autotuner,
/// per-run interpreter overhead and the executor's CFG path carry the time.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "core/TransformLibrary.h"
#include "dialect/Dialects.h"
#include "exec/Executor.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "strategy/StrategyManager.h"

using namespace perfbench;
using namespace tdl;

namespace {

constexpr int TuneBudget = 4;
/// Fixed size multisets; the seed shuffles them into the kernel stream, so
/// every seed compiles and runs about the same amount of work.
const int64_t EltwiseDims[] = {8, 9, 10, 11, 12, 13, 14, 15, 16, 10, 12, 14};
const int64_t MatmulDims[] = {4, 5, 6, 7, 8, 9, 6, 7, 8, 5, 6, 8};

struct DispatchSetUp {
  std::unique_ptr<Context> Ctx;
  std::unique_ptr<TransformLibraryManager> Libraries;
  std::unique_ptr<strategy::StrategyManager> Strategies;
};

/// Everything of the set-up but the strategy-directory load.
std::unique_ptr<DispatchSetUp> setUpWithoutStrategies() {
  auto S = std::make_unique<DispatchSetUp>();
  S->Ctx = std::make_unique<Context>();
  registerAllDialects(*S->Ctx);
  registerTransformDialect(*S->Ctx);
  S->Libraries = std::make_unique<TransformLibraryManager>(*S->Ctx);
  S->Strategies =
      std::make_unique<strategy::StrategyManager>(*S->Ctx, *S->Libraries);
  return S;
}

} // namespace

std::vector<KernelSpec> perfbench::tunedDispatchSpecs(uint64_t Seed) {
  Rng R(Seed);
  std::vector<KernelSpec> Specs;
  auto Shuffled = [&](const int64_t(&Dims)[12]) {
    std::vector<int64_t> V(std::begin(Dims), std::end(Dims));
    R.shuffle(V);
    return V;
  };
  std::vector<int64_t> EM = Shuffled(EltwiseDims), EN = Shuffled(EltwiseDims);
  std::vector<int64_t> MM = Shuffled(MatmulDims), MN = Shuffled(MatmulDims),
                       MK = Shuffled(MatmulDims);
  for (size_t I = 0; I < 12; ++I) {
    KernelSpec E;
    E.Kind = KernelKind::Eltwise;
    E.M = EM[I];
    E.N = EN[I];
    Specs.push_back(E);
    KernelSpec M;
    M.Kind = KernelKind::Matmul;
    M.M = MM[I];
    M.N = MN[I];
    M.K = MK[I];
    Specs.push_back(M);
  }
  R.shuffle(Specs);
  for (size_t I = 0; I < Specs.size(); ++I)
    Specs[I].Name = "kernel" + std::to_string(I);
  return Specs;
}

WorkloadResult perfbench::runTunedDispatch(const RunConfig &Config) {
  WorkloadResult Result;
  std::string StrategyDir = Config.BenchDir + "/strategies";
  SetUpTimer<DispatchSetUp> SetUps([&]() -> std::unique_ptr<DispatchSetUp> {
    std::unique_ptr<DispatchSetUp> S = setUpWithoutStrategies();
    if (failed(S->Strategies->addStrategyDir(StrategyDir)) ||
        S->Strategies->getNumStrategies() != 1)
      return nullptr;
    return S;
  });
  std::unique_ptr<DispatchSetUp> S = SetUps.first();
  if (!S) {
    Result.fail("set-up failed: cannot load the strategy in " + StrategyDir);
    return Result;
  }
  strategy::StrategyManager &Strategies = *S->Strategies;
  const strategy::RegisteredStrategy &Strategy =
      *Strategies.getStrategies().front();

  std::vector<KernelSpec> Specs = tunedDispatchSpecs(Config.Seed);
  std::vector<std::string> Texts;
  std::vector<KernelInputs> Inputs;
  std::vector<std::vector<double>> References;
  std::vector<autotune::TuningSpace> Spaces;
  Rng R(Config.Seed ^ 0x27d4eb2fu);
  std::string InputBytes;
  for (const KernelSpec &Spec : Specs) {
    Texts.push_back(moduleText({Spec}));
    Inputs.push_back(makeInputs(Spec, R));
    References.push_back(referenceOutput(Spec, Inputs.back()));
    InputBytes += Texts.back();
    appendInputBytes(Inputs.back(), InputBytes);
  }
  Result.InputHash = hashContent(InputBytes);
  // Freed before the run, so that peak_rss_mb holds none of it.
  std::string().swap(InputBytes);
  for (size_t I = 0; I < Specs.size(); ++I) {
    const KernelSpec &Spec = Specs[I];
    OwningOpRef Original = parseSourceString(*S->Ctx, Texts[I], "space");
    FailureOr<autotune::TuningSpace> Space =
        Original ? Strategies.buildTuningSpace(Strategy, Original.get())
                 : FailureOr<autotune::TuningSpace>(failure());
    if (failed(Space)) {
      Result.fail("kernel '" + Spec.Name + "' has no tuning space");
      return Result;
    }
    Spaces.push_back(*Space);
  }

  // The objective executes each transformed clone on the kernel's inputs,
  // checks it against the C++ reference, and costs it by op count.
  size_t Current = 0; // the kernel being dispatched
  std::vector<double> Costs;
  double ObjectiveMs = 0;
  strategy::DispatchOptions Options;
  Options.TuneBudget = TuneBudget;
  Options.Objective = [&](Operation *Clone) -> FailureOr<double> {
    int64_t Start = nowNanos();
    const KernelSpec &Spec = Specs[Current];
    exec::Executor Exec(Clone);
    std::vector<exec::RuntimeValue> Args = makeArgs(Spec, Inputs[Current]);
    if (failed(Exec.run(Spec.Name, Args))) {
      Result.fail("an evaluated clone of '" + Spec.Name +
                  "' failed to execute");
      ObjectiveMs += elapsedMs(Start);
      return failure();
    }
    std::string Why =
        checkSameValues(outputOf(Spec, Args), References[Current],
                        "evaluated clone of '" + Spec.Name + "'");
    if (!Why.empty())
      Result.fail(Why);
    double Cost = static_cast<double>(Exec.getLastOpCount());
    Costs.push_back(Cost);
    ObjectiveMs += elapsedMs(Start);
    return Cost;
  };

  BatchSamples Untraced, Traced;
  auto Batch = [&](bool Warmup, bool Trace) {
    double CompileMs = 0, KernelUs = 0, ParseMs = 0, PrintMs = 0,
           DispatchMs = 0, SelectUs = 0;
    double BatchObjectiveMs = 0;
    std::vector<double> ExecCompileUs, ExecRunUs, ExecOps;
    bool Ok = true;
    for (size_t I = 0; I < Specs.size(); ++I) {
      Current = I;
      Costs.clear();
      ObjectiveMs = 0;

      int64_t Start = nowNanos();
      OwningOpRef Payload = parseSourceString(*S->Ctx, Texts[I], "kernel");
      double KernelParseMs = elapsedMs(Start);
      if (Trace && Payload) {
        int64_t SelectStart = nowNanos();
        (void)Strategies.select(Payload.get(), "cfg", Options.Transform);
        SelectUs += (nowNanos() - SelectStart) / 1e3;
      }
      int64_t DispatchStart = nowNanos();
      FailureOr<strategy::DispatchResult> Dispatched =
          Payload ? Strategies.dispatch(Payload.get(), "cfg", Options)
                  : FailureOr<strategy::DispatchResult>(failure());
      double KernelDispatchMs = elapsedMs(DispatchStart);
      int64_t PrintStart = nowNanos();
      std::string Output =
          succeeded(Dispatched) ? printOperationToString(Payload.get()) : "";
      double KernelPrintMs = elapsedMs(PrintStart);
      // The traced batches' extra select() call stays out of compile time.
      CompileMs += KernelParseMs + KernelDispatchMs + KernelPrintMs;
      ParseMs += KernelParseMs;
      DispatchMs += KernelDispatchMs;
      PrintMs += KernelPrintMs;
      BatchObjectiveMs += ObjectiveMs;
      if (!Warmup)
        ++Result.Attempted;
      if (failed(Dispatched)) {
        if (!Warmup)
          ++Result.Failed;
        Result.fail("dispatch of '" + Specs[I].Name + "' failed");
        Ok = false;
        continue;
      }

      std::string Why = checkVerifies(Payload.get());
      if (Why.empty())
        Why = checkNoOpsWithPrefix(Payload.get(), "scf.");
      if (Why.empty() && Output.find("cf.cond_br") == std::string::npos)
        Why = "no conditional branch: the loops were not lowered";

      // The bound kernel: the first run compiles, the second is timed.
      exec::Executor Exec(Payload.get());
      std::vector<exec::RuntimeValue> First = makeArgs(Specs[I], Inputs[I]);
      std::vector<exec::RuntimeValue> Second = makeArgs(Specs[I], Inputs[I]);
      int64_t FirstStart = nowNanos();
      bool Ran = succeeded(Exec.run(Specs[I].Name, First));
      double FirstUs = (nowNanos() - FirstStart) / 1e3;
      double BoundCost = static_cast<double>(Exec.getLastOpCount());
      int64_t SecondStart = nowNanos();
      Ran = Ran && succeeded(Exec.run(Specs[I].Name, Second));
      double RunUs = (nowNanos() - SecondStart) / 1e3;
      KernelUs += RunUs;
      ExecCompileUs.push_back(FirstUs - RunUs);
      ExecRunUs.push_back(RunUs);
      ExecOps.push_back(static_cast<double>(Exec.getLastOpCount()));
      if (Why.empty() && !Ran)
        Why = "bound kernel failed to execute";
      for (auto *Args : {&First, &Second})
        if (Why.empty())
          Why = checkSameValues(outputOf(Specs[I], *Args), References[I],
                                "bound kernel");
      if (Result.Notes.size() < Specs.size()) {
        const KernelSpec &K = Specs[I];
        Result.Notes.push_back(
            "bound " + K.Name + " " + kindName(K.Kind) + " " +
            std::to_string(K.M) + "x" + std::to_string(K.N) +
            (K.Kind == KernelKind::Matmul ? "x" + std::to_string(K.K) : "") +
            " tile_i=" + std::to_string(Dispatched->Config[0]) +
            " tile_j=" + std::to_string(Dispatched->Config[1]) +
            " ops=" + std::to_string(static_cast<int64_t>(BoundCost)));
      }
      if (Why.empty())
        Why = checkTunedBinding(Spaces[I], Dispatched->Config, Costs,
                                Dispatched->BestCost, BoundCost);
      if (!Why.empty()) {
        Result.fail("kernel '" + Specs[I].Name + "': " + Why);
        Ok = false;
      }
    }
    if (Warmup || !Ok)
      return Ok;
    if (!SetUps.sample()) {
      Result.fail("a set-up in a fresh process failed");
      return false;
    }
    BatchSamples &Out = Trace ? Traced : Untraced;
    Out.add("compile_ms", CompileMs);
    Out.add("kernel_us", KernelUs);
    if (Trace) {
      double RunUsTotal = 0, OpsTotal = 0;
      for (size_t I = 0; I < ExecRunUs.size(); ++I) {
        RunUsTotal += ExecRunUs[I];
        OpsTotal += ExecOps[I];
      }
      Out.add("ir.parse_ms", ParseMs);
      Out.add("ir.print_ms", PrintMs);
      Out.add("strategy.select_us", SelectUs / Specs.size());
      Out.add("autotune.objective_ms", BatchObjectiveMs);
      Out.add("autotune.overhead_ms", DispatchMs - BatchObjectiveMs);
      Out.add("exec.compile_us", mean(ExecCompileUs));
      Out.add("exec.run_us", mean(ExecRunUs));
      Out.add("exec.ops_per_call", mean(ExecOps));
      Out.add("exec.ns_per_op", OpsTotal ? RunUsTotal * 1e3 / OpsTotal : 0);
    }
    return true;
  };

  if (!Config.Trace) {
    runBatches(Config.Seconds, 3, 5,
               [&](bool Warmup) { return Batch(Warmup, false); });
    Result.metric("setup_s", SetUps.medianSeconds());
    Result.metric("compile_ms", Untraced.medianOf("compile_ms"));
    Result.metric("peak_rss_mb", peakRssMb());
    Result.Notes.push_back("kernel_us " +
                           std::to_string(Untraced.medianOf("kernel_us")));
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
    Traced.add("core.interp_ms", totalMillis(Spans, "strategy:entry"));
    Traced.add("core.engine_match_ms", Delta.durationMs("engine.match"));
    Traced.add("core.matcher_invocations",
               Delta.counter("interp.matcher_invocations"));
    Traced.add("loops.tile_us", meanSelfMicros(Spans, "transform.loop.tile"));
    Traced.add("lowering.scf_to_cf_us",
               meanSelfMicros(Spans, "transform.lower_scf_to_cf"));
    Traced.add("strategy.select_computations",
               Delta.counter("strategy.select_computations"));
    Traced.add("autotune.evaluations", Delta.counter("autotune.evaluations"));
    return true;
  });
  Result.metric("kernel_us", Untraced.medianOf("kernel_us"));
  Result.metric("trace_overhead_ms", Traced.medianOf("compile_ms") -
                                         Untraced.medianOf("compile_ms"));
  Traced.ByName.erase("compile_ms");
  Traced.ByName.erase("kernel_us");
  Traced.report(Result);
  Result.metric("core.prepass_us", prepassMicros(Strategy.Manifest.Library));

  // The strategy-directory load on its own, into fresh managers: the
  // library cache would serve a second load into the same one.
  std::vector<double> LoadMs;
  for (int I = 0; I < 20; ++I) {
    std::unique_ptr<DispatchSetUp> Fresh = setUpWithoutStrategies();
    int64_t Start = nowNanos();
    (void)Fresh->Strategies->addStrategyDir(StrategyDir);
    LoadMs.push_back(elapsedMs(Start));
  }
  Result.metric("strategy.load_ms", median(LoadMs));
  return Result;
}
