//===- Payloads.cpp - Seeded kernels with C++ references ------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Payloads.h"

#include <cstring>

using namespace perfbench;
using namespace tdl;

bool KernelSpec::isTileEligible() const {
  return Kind == KernelKind::Eltwise || Kind == KernelKind::RowSum ||
         Kind == KernelKind::Matmul;
}

int64_t KernelSpec::numLoops() const {
  switch (Kind) {
  case KernelKind::Eltwise:
  case KernelKind::RowSum:
    return 2;
  case KernelKind::Matmul:
    return 3;
  case KernelKind::Scale1D:
    return 1;
  case KernelKind::Straight:
    return 0;
  }
  return 0;
}

std::vector<std::vector<int64_t>> KernelSpec::argShapes() const {
  switch (Kind) {
  case KernelKind::Eltwise:
    return {{M, N}, {M, N}};
  case KernelKind::RowSum:
    return {{M, N}, {M}};
  case KernelKind::Matmul:
    return {{M, K}, {K, N}, {M, N}};
  case KernelKind::Scale1D:
    return {{M}};
  case KernelKind::Straight:
    return {{4}};
  }
  return {};
}

size_t KernelSpec::outputArg() const {
  switch (Kind) {
  case KernelKind::Eltwise:
  case KernelKind::RowSum:
    return 1;
  case KernelKind::Matmul:
    return 2;
  case KernelKind::Scale1D:
  case KernelKind::Straight:
    return 0;
  }
  return 0;
}

const char *perfbench::kindName(KernelKind Kind) {
  switch (Kind) {
  case KernelKind::Eltwise:
    return "eltwise";
  case KernelKind::RowSum:
    return "rowsum";
  case KernelKind::Matmul:
    return "matmul";
  case KernelKind::Scale1D:
    return "scale1d";
  case KernelKind::Straight:
    return "straight";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Payload text
//===----------------------------------------------------------------------===//

namespace {

std::string memrefType(const std::vector<int64_t> &Shape) {
  std::string Ty = "memref<";
  for (int64_t Dim : Shape)
    Ty += std::to_string(Dim) + "x";
  return Ty + "f64>";
}

std::string constIndex(const std::string &Name, int64_t Value) {
  return "    %" + Name + " = \"arith.constant\"() {value = " +
         std::to_string(Value) + " : index} : () -> (index)\n";
}

std::string load(const std::string &Result, const std::string &Mem,
                 const std::string &MemTy,
                 const std::vector<std::string> &Indices) {
  std::string Text = "%" + Result + " = \"memref.load\"(%" + Mem;
  std::string Types = MemTy;
  for (const std::string &Index : Indices) {
    Text += ", %" + Index;
    Types += ", index";
  }
  return Text + ") : (" + Types + ") -> (f64)\n";
}

std::string store(const std::string &Value, const std::string &Mem,
                  const std::string &MemTy,
                  const std::vector<std::string> &Indices) {
  std::string Text = "\"memref.store\"(%" + Value + ", %" + Mem;
  std::string Types = "f64, " + MemTy;
  for (const std::string &Index : Indices) {
    Text += ", %" + Index;
    Types += ", index";
  }
  return Text + ") : (" + Types + ") -> ()\n";
}

std::string binary(const std::string &Result, const char *Op,
                   const std::string &Lhs, const std::string &Rhs) {
  return "%" + Result + " = \"" + Op + "\"(%" + Lhs + ", %" + Rhs +
         ") : (f64, f64) -> (f64)\n";
}

/// Wraps \p Body (already indented for its depth) in `scf.for` loops over
/// (induction variable, upper-bound constant) pairs, outermost first.
std::string loopNest(
    const std::vector<std::pair<std::string, std::string>> &Loops,
    const std::string &Body) {
  std::string Text = Body;
  for (size_t I = Loops.size(); I-- > 0;) {
    std::string Indent(4 + 2 * I, ' ');
    Text = Indent + "\"scf.for\"(%c0, %" + Loops[I].second + ", %c1) ({\n" +
           Indent + "^" + Loops[I].first + "(%" + Loops[I].first +
           ": index):\n" + Text + Indent + "  \"scf.yield\"() : () -> ()\n" +
           Indent + "}) : (index, index, index) -> ()\n";
  }
  return Text;
}

std::string indent(const std::string &Lines, size_t Depth) {
  std::string Pad(4 + 2 * Depth, ' ');
  std::string Text;
  size_t Pos = 0;
  while (Pos < Lines.size()) {
    size_t End = Lines.find('\n', Pos);
    Text += Pad + Lines.substr(Pos, End - Pos + 1);
    Pos = End + 1;
  }
  return Text;
}

} // namespace

std::string perfbench::kernelFuncText(const KernelSpec &S) {
  std::vector<std::vector<int64_t>> Shapes = S.argShapes();
  std::vector<std::string> Types;
  for (const std::vector<int64_t> &Shape : Shapes)
    Types.push_back(memrefType(Shape));
  static const char *ArgNames[] = {"a", "b", "c"};

  std::string Args, Sig;
  for (size_t I = 0; I < Types.size(); ++I) {
    Args += std::string(I ? ", " : "") + "%" + ArgNames[I] + ": " + Types[I];
    Sig += std::string(I ? ", " : "") + Types[I];
  }

  std::string Body = constIndex("c0", 0) + constIndex("c1", 1);
  switch (S.Kind) {
  case KernelKind::Eltwise: {
    Body += constIndex("m", S.M) + constIndex("n", S.N);
    std::string Inner = load("x", "a", Types[0], {"i", "j"}) +
                        load("y", "b", Types[1], {"i", "j"}) +
                        binary("p", "arith.mulf", "x", "y") +
                        binary("s", "arith.addf", "p", "x") +
                        store("s", "b", Types[1], {"i", "j"});
    Body += loopNest({{"i", "m"}, {"j", "n"}}, indent(Inner, 2));
    break;
  }
  case KernelKind::RowSum: {
    Body += constIndex("m", S.M) + constIndex("n", S.N);
    std::string Inner = load("x", "a", Types[0], {"i", "j"}) +
                        load("r", "b", Types[1], {"i"}) +
                        binary("s", "arith.addf", "r", "x") +
                        store("s", "b", Types[1], {"i"});
    Body += loopNest({{"i", "m"}, {"j", "n"}}, indent(Inner, 2));
    break;
  }
  case KernelKind::Matmul: {
    Body += constIndex("m", S.M) + constIndex("n", S.N) + constIndex("k", S.K);
    std::string Inner = load("x", "a", Types[0], {"i", "kk"}) +
                        load("y", "b", Types[1], {"kk", "j"}) +
                        load("z", "c", Types[2], {"i", "j"}) +
                        binary("p", "arith.mulf", "x", "y") +
                        binary("s", "arith.addf", "z", "p") +
                        store("s", "c", Types[2], {"i", "j"});
    Body += loopNest({{"i", "m"}, {"j", "n"}, {"kk", "k"}}, indent(Inner, 3));
    break;
  }
  case KernelKind::Scale1D: {
    Body += constIndex("m", S.M);
    std::string Inner = load("x", "a", Types[0], {"i"}) +
                        binary("s", "arith.addf", "x", "x") +
                        store("s", "a", Types[0], {"i"});
    Body += loopNest({{"i", "m"}}, indent(Inner, 1));
    break;
  }
  case KernelKind::Straight: {
    Body += constIndex("c2", 2) + constIndex("c3", 3);
    Body += indent(load("x", "a", Types[0], {"c0"}) +
                       load("y", "a", Types[0], {"c1"}) +
                       load("z", "a", Types[0], {"c2"}) +
                       binary("p", "arith.mulf", "x", "y") +
                       binary("s", "arith.addf", "p", "z") +
                       store("s", "a", Types[0], {"c3"}),
                   0);
    break;
  }
  }
  return "  \"func.func\"() ({\n  ^entry(" + Args + "):\n" + Body +
         "    \"func.return\"() : () -> ()\n  }) {sym_name = \"" + S.Name +
         "\", function_type = (" + Sig + ") -> ()} : () -> ()\n";
}

std::string perfbench::moduleText(const std::vector<KernelSpec> &Specs) {
  std::string Text = "\"builtin.module\"() ({\n";
  for (const KernelSpec &S : Specs)
    Text += kernelFuncText(S);
  return Text + "}) : () -> ()\n";
}

//===----------------------------------------------------------------------===//
// Inputs and the C++ reference
//===----------------------------------------------------------------------===//

KernelInputs perfbench::makeInputs(const KernelSpec &Spec, Rng &R) {
  KernelInputs Inputs;
  for (const std::vector<int64_t> &Shape : Spec.argShapes()) {
    int64_t Count = 1;
    for (int64_t Dim : Shape)
      Count *= Dim;
    std::vector<double> Values(Count);
    for (double &V : Values)
      V = static_cast<double>(R.range(-4, 4));
    Inputs.push_back(std::move(Values));
  }
  return Inputs;
}

std::vector<double> perfbench::referenceOutput(const KernelSpec &S,
                                               const KernelInputs &In) {
  std::vector<double> Out = In[S.outputArg()];
  switch (S.Kind) {
  case KernelKind::Eltwise:
    for (int64_t I = 0; I < S.M * S.N; ++I)
      Out[I] = In[0][I] * Out[I] + In[0][I];
    break;
  case KernelKind::RowSum:
    for (int64_t I = 0; I < S.M; ++I)
      for (int64_t J = 0; J < S.N; ++J)
        Out[I] += In[0][I * S.N + J];
    break;
  case KernelKind::Matmul:
    for (int64_t I = 0; I < S.M; ++I)
      for (int64_t J = 0; J < S.N; ++J)
        for (int64_t K = 0; K < S.K; ++K)
          Out[I * S.N + J] += In[0][I * S.K + K] * In[1][K * S.N + J];
    break;
  case KernelKind::Scale1D:
    for (double &V : Out)
      V = V + V;
    break;
  case KernelKind::Straight:
    Out[3] = Out[0] * Out[1] + Out[2];
    break;
  }
  return Out;
}

std::vector<exec::RuntimeValue>
perfbench::makeArgs(const KernelSpec &Spec, const KernelInputs &Inputs) {
  std::vector<std::vector<int64_t>> Shapes = Spec.argShapes();
  std::vector<exec::RuntimeValue> Args;
  for (size_t I = 0; I < Shapes.size(); ++I) {
    exec::Buffer Buf = exec::Buffer::alloc(Shapes[I]);
    *Buf.Data = Inputs[I];
    Args.push_back(exec::RuntimeValue::makeBuffer(std::move(Buf)));
  }
  return Args;
}

std::vector<double>
perfbench::outputOf(const KernelSpec &Spec,
                    const std::vector<exec::RuntimeValue> &Args) {
  return *Args[Spec.outputArg()].Mem.Data;
}

void perfbench::appendInputBytes(const KernelInputs &Inputs,
                                 std::string &Bytes) {
  for (const std::vector<double> &Values : Inputs)
    Bytes.append(reinterpret_cast<const char *>(Values.data()),
                 Values.size() * sizeof(double));
}
