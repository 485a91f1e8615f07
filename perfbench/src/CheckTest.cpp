//===- CheckTest.cpp - The output checks reject wrong outputs -------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A check that accepts everything proves nothing, so each workload's
/// output check is run here on a correct output (it must pass) and on
/// known-wrong ones (it must fail): one `tosa.` op left behind, a kernel
/// left untiled, one perturbed element, loops left in structured form, and
/// a bound configuration that is not the tuner's argmin.
///
///   perfbench_check_test <perfbench directory>
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "core/Transform.h"
#include "dialect/Dialects.h"
#include "exec/Workloads.h"
#include "ir/Parser.h"
#include "pass/Pass.h"

#include <cstdio>

using namespace perfbench;
using namespace tdl;

namespace {

int Failures = 0;

void expectPass(const std::string &Why, const char *What) {
  if (!Why.empty()) {
    std::printf("FAIL: %s: check rejected a correct output: %s\n", What,
                Why.c_str());
    ++Failures;
  } else {
    std::printf("ok: %s\n", What);
  }
}

void expectReject(const std::string &Why, const char *What) {
  if (Why.empty()) {
    std::printf("FAIL: %s: check accepted a wrong output\n", What);
    ++Failures;
  } else {
    std::printf("ok: %s (rejected: %s)\n", What, Why.c_str());
  }
}

void testTosaChecks(Context &Ctx) {
  std::string Pipeline = workloads::getTosaPipeline();
  OwningOpRef Script = buildTransformScriptFromPipeline(Ctx, Pipeline);
  auto Elements = parsePassPipeline(Ctx, Pipeline);
  auto Lower = [&](uint64_t Seed, bool ByScript) {
    OwningOpRef Model = workloads::buildSyntheticTosaModel(Ctx, 126, Seed);
    if (ByScript) {
      (void)applyTransforms(Model.get(), Script.get());
    } else {
      PassManager PM(Ctx);
      (void)buildPassManager(PM, *Elements);
      (void)PM.run(Model.get());
    }
    return Model;
  };
  OwningOpRef ByScript = Lower(3, true), ByManager = Lower(3, false);
  expectPass(checkTosaLowering(ByScript.get(), ByManager.get()),
             "tosa: both arms lowered");
  OwningOpRef Unlowered = workloads::buildSyntheticTosaModel(Ctx, 126, 3);
  expectReject(checkTosaLowering(Unlowered.get(), ByManager.get()),
               "tosa: tosa ops left behind");
  OwningOpRef OtherModel = Lower(5, true);
  expectReject(checkTosaLowering(OtherModel.get(), ByManager.get()),
               "tosa: script output differs from PassManager output");
}

void testForeachTileChecks(Context &Ctx, const std::string &BenchDir) {
  std::vector<KernelSpec> Specs = foreachTileSpecs(11);
  Specs.resize(24);
  std::string Text = moduleText(Specs);
  Rng R(7);
  std::vector<KernelInputs> Inputs;
  for (const KernelSpec &S : Specs)
    Inputs.push_back(makeInputs(S, R));
  OwningOpRef Script = parseSourceString(
      Ctx, readFile(BenchDir + "/scripts/foreach_tile.mlir"), "script");
  OwningOpRef Tiled = parseSourceString(Ctx, Text, "payload");
  if (!Script || !Tiled || failed(applyTransforms(Tiled.get(), Script.get()))) {
    std::printf("FAIL: foreach_tile: cannot build the tiled payload\n");
    ++Failures;
    return;
  }
  expectPass(checkTiledNests(Tiled.get(), Specs), "foreach_tile: nests tiled");
  expectPass(checkKernelsExecute(Tiled.get(), Specs, Inputs),
             "foreach_tile: kernels match the reference");

  OwningOpRef Untiled = parseSourceString(Ctx, Text, "payload");
  expectReject(checkTiledNests(Untiled.get(), Specs),
               "foreach_tile: kernels left untiled");

  // One kernel computing a different value: its first add becomes a sub.
  std::string Wrong = Text;
  Wrong.replace(Wrong.find("arith.addf"), 10, "arith.subf");
  OwningOpRef Perturbed = parseSourceString(Ctx, Wrong, "payload");
  expectReject(checkKernelsExecute(Perturbed.get(), Specs, Inputs),
               "foreach_tile: one kernel computes a wrong value");

  std::vector<double> Want = referenceOutput(Specs[0], Inputs[0]);
  std::vector<double> Got = Want;
  Got[Got.size() / 2] += 1;
  expectReject(checkSameValues(Got, Want, "buffer"),
               "one perturbed element");
}

void testTunedDispatchChecks(Context &Ctx) {
  KernelSpec Spec = tunedDispatchSpecs(11).front();
  OwningOpRef Structured =
      parseSourceString(Ctx, moduleText({Spec}), "kernel");
  expectReject(checkNoOpsWithPrefix(Structured.get(), "scf."),
               "tuned_dispatch: loops left in structured form");

  autotune::TuningSpace Space;
  Space.Params = {{"tile_i", {2, 4, 8}}, {"tile_j", {1, 3, 9}}};
  std::vector<double> Costs = {900, 700, 800};
  expectPass(checkTunedBinding(Space, {4, 3}, Costs, 700, 700),
             "tuned_dispatch: argmin bound");
  expectReject(checkTunedBinding(Space, {5, 3}, Costs, 700, 700),
               "tuned_dispatch: configuration outside the space");
  expectReject(checkTunedBinding(Space, {4, 3}, Costs, 800, 800),
               "tuned_dispatch: bound configuration is not the argmin");
  expectReject(checkTunedBinding(Space, {4, 3}, Costs, 700, 900),
               "tuned_dispatch: bound kernel does not cost the best value");
}

} // namespace

int main(int argc, char **argv) {
  std::string BenchDir = argc > 1 ? argv[1] : "perfbench";
  Context Ctx;
  registerAllDialects(Ctx);
  registerTransformDialect(Ctx);
  testTosaChecks(Ctx);
  testForeachTileChecks(Ctx, BenchDir);
  testTunedDispatchChecks(Ctx);
  std::printf("%s: %d failure(s)\n", Failures ? "FAILED" : "PASSED", Failures);
  return Failures ? 1 : 0;
}
