//===- Payloads.h - Seeded kernels with C++ references ----------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The loop-nest kernels the foreach_tile and tuned_dispatch workloads feed
/// the program: their payload text, integer-valued inputs drawn from a
/// seed, and a reference result computed in plain C++, apart from the
/// program. Integer-valued f64 inputs keep every sum exact in any order, so
/// a transformed kernel must reproduce the reference bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PAYLOADS_H
#define PERFBENCH_PAYLOADS_H

#include "Common.h"

#include "exec/Executor.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class KernelKind {
  Eltwise,  ///< b[i][j] = a[i][j] * b[i][j] + a[i][j]; 2-deep perfect nest.
  RowSum,   ///< r[i] += a[i][j]; 2-deep perfect nest.
  Matmul,   ///< c[i][j] += a[i][k] * b[k][j]; 3-deep nest.
  Scale1D,  ///< a[i] = a[i] + a[i]; a single loop.
  Straight, ///< a[3] = a[0] * a[1] + a[2]; no loop at all.
};

struct KernelSpec {
  KernelKind Kind = KernelKind::Eltwise;
  std::string Name;
  int64_t M = 1, N = 1, K = 1;

  /// Whether the function's top-level loop heads a perfect nest at least
  /// two deep — the nests foreach_tile's matcher accepts.
  bool isTileEligible() const;
  /// Number of scf.for ops in the untransformed function.
  int64_t numLoops() const;
  /// Shapes of the function's memref arguments, in order.
  std::vector<std::vector<int64_t>> argShapes() const;
  /// The argument the kernel writes its result into.
  size_t outputArg() const;
};

const char *kindName(KernelKind Kind);

/// One `func.func` in the generic syntax the parser reads.
std::string kernelFuncText(const KernelSpec &Spec);
/// A `builtin.module` holding \p Specs in order.
std::string moduleText(const std::vector<KernelSpec> &Specs);

using KernelInputs = std::vector<std::vector<double>>;

/// Integer-valued inputs in [-4, 4] for every argument of \p Spec.
KernelInputs makeInputs(const KernelSpec &Spec, Rng &R);
/// The output argument's contents after running \p Spec on \p Inputs,
/// computed by plain C++ loops.
std::vector<double> referenceOutput(const KernelSpec &Spec,
                                    const KernelInputs &Inputs);

/// Fresh executor buffers holding \p Inputs.
std::vector<tdl::exec::RuntimeValue> makeArgs(const KernelSpec &Spec,
                                              const KernelInputs &Inputs);
/// The contents of \p Args' output buffer.
std::vector<double> outputOf(const KernelSpec &Spec,
                             const std::vector<tdl::exec::RuntimeValue> &Args);

/// Appends the bytes of the kernel's inputs to \p Bytes, the text the
/// run's input fingerprint is hashed from.
void appendInputBytes(const KernelInputs &Inputs, std::string &Bytes);

} // namespace perfbench

#endif // PERFBENCH_PAYLOADS_H
