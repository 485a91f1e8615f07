//===- main.cpp - perfbench entry point -----------------------------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload and prints its result:
///
///   perfbench --workload <tosa_pipeline|foreach_tile|tuned_dispatch>
///             --seed <n> --seconds <s> --trace <0|1> [--bench-dir <dir>]
///   perfbench --workload sizing [--seed <n>] [--bench-dir <dir>]
///
/// Human-readable lines come first, including the hash of the generated
/// inputs; the last line is one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` — the end-to-end metrics untraced, the per-layer
/// metrics traced. Exit status 0 when every output check passed, 1 when
/// one failed, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Reported untraced, on every workload.
const MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"compile_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Reported traced, on every workload; 0 where the workload does not
/// exercise the layer.
const MetricDef PerLayer[] = {
    {"ir.parse_ms", "ms"},
    {"ir.print_ms", "ms"},
    {"ir.verify_ms", "ms"},
    {"core.interp_ms", "ms"},
    {"core.script_overhead_ms", "ms"},
    {"core.prepass_us", "us"},
    {"core.engine_match_ms", "ms"},
    {"core.engine_commit_ms", "ms"},
    {"core.matcher_invocations", "count"},
    {"core.match_hit_ratio", "ratio"},
    {"core.commit_parallel_partitions", "count"},
    {"core.commit_serial_partitions", "count"},
    {"loops.tile_us", "us"},
    {"lowering.scf_to_cf_us", "us"},
    {"pass.pipeline_ms", "ms"},
    {"pass.tosa-optional-decompositions_ms", "ms"},
    {"pass.canonicalize_ms", "ms"},
    {"pass.tosa-infer-shapes_ms", "ms"},
    {"pass.tosa-make-broadcastable_ms", "ms"},
    {"pass.tosa-to-linalg-named_ms", "ms"},
    {"pass.tosa-layerwise-constant-fold_ms", "ms"},
    {"pass.tosa-validate_ms", "ms"},
    {"pass.tosa-to-linalg_ms", "ms"},
    {"pass.tosa-to-arith_ms", "ms"},
    {"pass.tosa-to-tensor_ms", "ms"},
    {"pass.linalg-fuse-elementwise-ops_ms", "ms"},
    {"pass.one-shot-bufferize_ms", "ms"},
    {"passmanager_ms", "ms"},
    {"strategy.load_ms", "ms"},
    {"strategy.select_us", "us"},
    {"strategy.select_computations", "count"},
    {"autotune.evaluations", "count"},
    {"autotune.objective_ms", "ms"},
    {"autotune.overhead_ms", "ms"},
    {"exec.compile_us", "us"},
    {"exec.run_us", "us"},
    {"exec.ops_per_call", "count"},
    {"exec.ns_per_op", "ns"},
    {"kernel_us", "us"},
    {"trace_overhead_ms", "ms"},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tosa_pipeline|foreach_tile|tuned_dispatch> --seed <n> "
               "--seconds <s> --trace <0|1> [--bench-dir <dir>]\n",
               Why);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Config;
  std::string Workload;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Flag).c_str());
    const char *Value = argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      Workload = Value;
    } else if (Flag == "--seed") {
      Config.Seed = std::strtoull(Value, &End, 10);
      if (*End || !*Value)
        return usage("--seed takes a non-negative integer");
    } else if (Flag == "--seconds") {
      Config.Seconds = std::strtod(Value, &End);
      if (*End || !(Config.Seconds > 0) || Config.Seconds > 600)
        return usage("--seconds takes a number in (0, 600]");
    } else if (Flag == "--trace") {
      if (std::strcmp(Value, "0") && std::strcmp(Value, "1"))
        return usage("--trace takes 0 or 1");
      Config.Trace = Value[0] == '1';
    } else if (Flag == "--bench-dir") {
      Config.BenchDir = Value;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }

  if (Workload == "sizing")
    return runSizing(Config);
  WorkloadResult Result;
  if (Workload == "tosa_pipeline")
    Result = runTosaPipeline(Config);
  else if (Workload == "foreach_tile")
    Result = runForeachTile(Config);
  else if (Workload == "tuned_dispatch")
    Result = runTunedDispatch(Config);
  else
    return usage("unknown --workload");

  // Every metric of the table, in table order, with the table's unit.
  std::map<std::string, double> Values;
  for (const Metric &M : Result.Metrics)
    Values[M.Name] = M.Value;
  const MetricDef *Begin = Config.Trace ? std::begin(PerLayer)
                                        : std::begin(EndToEnd);
  const MetricDef *End =
      Config.Trace ? std::end(PerLayer) : std::end(EndToEnd);
  for (const auto &[Name, Value] : Values) {
    if (std::none_of(Begin, End, [&](const MetricDef &D) {
          return Name == D.Name;
        }))
      Result.fail("workload reported unknown metric '" + Name + "'");
    if (!std::isfinite(Value))
      Result.fail("metric '" + Name + "' is not a finite number");
  }

  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n",
              Workload.c_str(), Config.Seed, Config.Seconds, Config.Trace);
  std::printf("inputs hash %016" PRIx64 "\n", Result.InputHash);
  for (const std::string &Note : Result.Notes)
    std::printf("%s\n", Note.c_str());
  for (const MetricDef *D = Begin; D != End; ++D)
    std::printf("  %-40s %14.6f %s\n", D->Name, Values[D->Name], D->Unit);
  if (!Result.CheckFailure.empty())
    std::printf("CHECK FAILED: %s\n", Result.CheckFailure.c_str());

  std::string Json = "{\"correct\": ";
  Json += Result.CheckFailure.empty() ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Result.Attempted);
  Json += ", \"failed\": " + std::to_string(Result.Failed);
  Json += ", \"metrics\": {";
  for (const MetricDef *D = Begin; D != End; ++D) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(Values[D->Name]) ? Values[D->Name] : 0.0);
    Json += std::string(D == Begin ? "" : ", ") + "\"" + D->Name +
            "\": {\"value\": " + Buf + ", \"unit\": \"" + D->Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Result.CheckFailure.empty() ? 0 : 1;
}
