//===- Checks.cpp - Output checks of the three workloads ------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "dialect/Dialects.h"
#include "exec/Executor.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <algorithm>
#include <map>

using namespace perfbench;
using namespace tdl;

std::string perfbench::checkNoOpsWithPrefix(Operation *Root,
                                            std::string_view Prefix) {
  std::string Found;
  Root->walkPre([&](Operation *Op) {
    if (Op->getName().substr(0, Prefix.size()) != Prefix)
      return WalkResult::Advance;
    Found = std::string(Op->getName());
    return WalkResult::Interrupt;
  });
  if (Found.empty())
    return "";
  return "'" + Found + "' remains in the output";
}

std::string perfbench::checkVerifies(Operation *Root) {
  if (failed(verify(Root)))
    return "output does not verify";
  return "";
}

std::string perfbench::checkSameValues(const std::vector<double> &Got,
                                       const std::vector<double> &Want,
                                       std::string_view What) {
  if (Got.size() != Want.size())
    return std::string(What) + ": " + std::to_string(Got.size()) +
           " elements, reference has " + std::to_string(Want.size());
  for (size_t I = 0; I < Got.size(); ++I)
    if (Got[I] != Want[I])
      return std::string(What) + ": element " + std::to_string(I) + " is " +
             std::to_string(Got[I]) + ", reference " + std::to_string(Want[I]);
  return "";
}

std::string perfbench::checkTosaLowering(Operation *ScriptOut,
                                         Operation *PassManagerOut) {
  for (Operation *Out : {ScriptOut, PassManagerOut}) {
    const char *Arm = Out == ScriptOut ? "script arm" : "PassManager arm";
    std::string Why = checkVerifies(Out);
    if (Why.empty())
      Why = checkNoOpsWithPrefix(Out, "tosa.");
    if (!Why.empty())
      return std::string(Arm) + ": " + Why;
  }
  if (printOperationToString(ScriptOut) !=
      printOperationToString(PassManagerOut))
    return "script output differs from the PassManager output";
  return "";
}

namespace {
/// Top-level functions of \p Module by symbol name.
std::map<std::string, Operation *, std::less<>> functionsByName(
    Operation *Module) {
  std::map<std::string, Operation *, std::less<>> Funcs;
  for (Operation *Op : *builtin::getModuleBody(Module))
    if (Op->getName() == "func.func")
      Funcs[std::string(Op->getStringAttr("sym_name"))] = Op;
  return Funcs;
}
} // namespace

std::string perfbench::checkTiledNests(Operation *Module,
                                       const std::vector<KernelSpec> &Specs) {
  auto Funcs = functionsByName(Module);
  int64_t Eligible = 0, Tiled = 0;
  for (const KernelSpec &S : Specs) {
    auto It = Funcs.find(S.Name);
    if (It == Funcs.end())
      return "function '" + S.Name + "' is missing from the output";
    int64_t Loops = 0;
    It->second->walk([&](Operation *Op) {
      Loops += Op->getName() == "scf.for";
    });
    int64_t Expected = S.numLoops() + (S.isTileEligible() ? 2 : 0);
    if (Loops != Expected)
      return "function '" + S.Name + "' (" + kindName(S.Kind) + ") has " +
             std::to_string(Loops) + " loops, expected " +
             std::to_string(Expected);
    Eligible += S.isTileEligible();
    Tiled += Loops == S.numLoops() + 2;
  }
  if (Tiled != Eligible)
    return std::to_string(Tiled) + " tiled nests, " +
           std::to_string(Eligible) + " eligible";
  return "";
}

std::string perfbench::checkKernelsExecute(
    Operation *Module, const std::vector<KernelSpec> &Specs,
    const std::vector<KernelInputs> &Inputs) {
  exec::Executor Exec(Module);
  for (size_t I = 0; I < Specs.size(); ++I) {
    std::vector<exec::RuntimeValue> Args = makeArgs(Specs[I], Inputs[I]);
    if (failed(Exec.run(Specs[I].Name, Args)))
      return "function '" + Specs[I].Name + "' failed to execute";
    std::string Why =
        checkSameValues(outputOf(Specs[I], Args),
                        referenceOutput(Specs[I], Inputs[I]),
                        "function '" + Specs[I].Name + "'");
    if (!Why.empty())
      return Why;
  }
  return "";
}

std::string perfbench::checkTunedBinding(
    const autotune::TuningSpace &Space, const std::vector<int64_t> &Config,
    const std::vector<double> &EvaluatedCosts, double BestCost,
    double BoundCost) {
  if (!Space.containsConfig(Config) || !Space.isFeasible(Config))
    return "bound configuration lies outside the declared space";
  if (EvaluatedCosts.empty())
    return "the tuner evaluated no configuration";
  double Min = *std::min_element(EvaluatedCosts.begin(), EvaluatedCosts.end());
  if (BestCost != Min)
    return "reported best cost " + std::to_string(BestCost) +
           " is not the minimum evaluated cost " + std::to_string(Min);
  if (BoundCost != BestCost)
    return "bound kernel costs " + std::to_string(BoundCost) +
           ", the tuner's best was " + std::to_string(BestCost);
  return "";
}
