//===- Checks.h - Output checks of the three workloads ----------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every check compares the program's output with a reference computed
/// apart from it (plain C++ loops) or with a property the method must have
/// (no `tosa.` op after the TOSA pipeline, one tiled nest per eligible
/// function, no `scf.` op after lowering to CFG form). None compares with a
/// stored copy of earlier output. Each returns an empty string when the
/// output passes and the reason otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "Payloads.h"

#include "autotune/AutoTuner.h"
#include "ir/IR.h"

#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// No op whose name starts with \p Prefix remains under \p Root.
std::string checkNoOpsWithPrefix(tdl::Operation *Root, std::string_view Prefix);

/// \p Root passes the program's verifier.
std::string checkVerifies(tdl::Operation *Root);

/// \p Got equals \p Want element for element, exactly.
std::string checkSameValues(const std::vector<double> &Got,
                            const std::vector<double> &Want,
                            std::string_view What);

/// tosa_pipeline: both arms verify, no `tosa.` op is left, and the
/// script-driven output prints byte-identical to the PassManager output.
std::string checkTosaLowering(tdl::Operation *ScriptOut,
                              tdl::Operation *PassManagerOut);

/// foreach_tile: the function named after each of \p Specs holds its
/// original loop count plus the two tile loops exactly when the kernel is
/// eligible, so the number of tiled nests equals the eligible count.
std::string checkTiledNests(tdl::Operation *Module,
                            const std::vector<KernelSpec> &Specs);

/// Runs every function of \p Module named after \p Specs on \p Inputs and
/// compares its output with the C++ reference.
std::string checkKernelsExecute(tdl::Operation *Module,
                                const std::vector<KernelSpec> &Specs,
                                const std::vector<KernelInputs> &Inputs);

/// tuned_dispatch: \p Config lies in \p Space, every objective value the
/// tuner saw is at least \p BestCost, \p BestCost is one of them, and the
/// bound kernel's own cost \p BoundCost equals it — the bound
/// configuration is the argmin of the evaluated objective values.
std::string checkTunedBinding(const tdl::autotune::TuningSpace &Space,
                              const std::vector<int64_t> &Config,
                              const std::vector<double> &EvaluatedCosts,
                              double BestCost, double BoundCost);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
