//===- Common.h - Shared pieces of the perfbench program --------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded generator, clock, statistics, and the result record every
/// workload fills. The benchmark drives the program only through its public
/// headers; nothing here reaches into src/ internals.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "support/Telemetry.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

namespace tdl {
class Operation;
} // namespace tdl

namespace perfbench {

/// xorshift* generator: the only source of randomness in generated inputs,
/// so one seed always yields the same inputs.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed)
      : State((Seed ^ 0x9E3779B97F4A7C15ull) ? Seed ^ 0x9E3779B97F4A7C15ull
                                              : 1) {}
  uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545F4914F6CDD1Dull;
  }
  /// Uniform in [0, N).
  int64_t below(int64_t N) { return static_cast<int64_t>(next() % N); }
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) { return Lo + below(Hi - Lo + 1); }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(static_cast<int64_t>(I))]);
  }
};

/// Monotonic clock in nanoseconds.
inline int64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Milliseconds from \p StartNanos (a nowNanos() reading) to now.
inline double elapsedMs(int64_t StartNanos) {
  return (nowNanos() - StartNanos) / 1e6;
}

/// Median time in microseconds of 200 calls of the handle-type pre-pass
/// (analyzeHandleTypes) over \p Script, called on its own: the pre-pass
/// sits below every public interpretation entry point.
double prepassMicros(tdl::Operation *Script);

/// An idle process, forked from this one when the forker is made, that on
/// each request forks a child from its own state to run \p Work once and
/// report its wall time. Made before a workload sets anything up, it times
/// cold set-ups at any point of the run.
class ColdForker {
public:
  /// Forks the idle process. \p Work returns false when it failed.
  explicit ColdForker(std::function<bool()> Work);
  /// Stops the idle process and waits until it has ended.
  ~ColdForker();
  ColdForker(const ColdForker &) = delete;
  ColdForker &operator=(const ColdForker &) = delete;

  /// Wall time in seconds of one run of the work in a fresh child;
  /// negative when the child could not be run or the work failed.
  double run();

private:
  std::function<bool()> Work;
  pid_t Idle = -1;
  /// This process's ends of the request and reply pipes.
  int Request = -1, Reply = -1;
};

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double median(std::vector<double> Samples);
double mean(const std::vector<double> &Samples);

/// The contents of the file at \p Path; empty when it cannot be read.
std::string readFile(const std::string &Path);

/// Peak resident set size of this process in MB.
double peakRssMb();

struct Metric {
  std::string Name;
  double Value = 0;
};

/// What one workload run reports: the operation tally, the output check
/// verdict, and the metrics of the requested kind (end-to-end when
/// untraced, per-layer when traced).
struct WorkloadResult {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  /// First failed output check, empty when every check passed.
  std::string CheckFailure;
  /// tdl::hashContent of the generated inputs (payload texts and input
  /// values).
  uint64_t InputHash = 0;
  std::vector<Metric> Metrics;
  /// Extra human-readable lines printed before the result line.
  std::vector<std::string> Notes;

  /// Units are fixed per name by the metric tables in main.cpp.
  void metric(std::string Name, double Value) {
    Metrics.push_back({std::move(Name), Value});
  }
  /// Records the first check failure only; later ones are usually
  /// consequences of it.
  void fail(std::string Why) {
    if (CheckFailure.empty())
      CheckFailure = std::move(Why);
  }
};

/// Per-batch samples of named metrics, reported as their medians.
struct BatchSamples {
  std::map<std::string, std::vector<double>> ByName;
  void add(const std::string &Name, double Value) {
    ByName[Name].push_back(Value);
  }
  double medianOf(const std::string &Name) const {
    auto It = ByName.find(Name);
    return It == ByName.end() ? 0 : median(It->second);
  }
  /// Adds the median of every series to \p Result.
  void report(WorkloadResult &Result) const {
    for (const auto &[Name, Values] : ByName)
      Result.metric(Name, median(Values));
  }
};

struct RunConfig {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// The benchmark's own directory (strategy and script files).
  std::string BenchDir = "perfbench";
};

/// Runs whole batches for \p Seconds: warm-up batches first (at least
/// \p MinWarmup, and at least a sixth of the time), then timed batches (at
/// least \p MinTimed, otherwise until the time is used). \p Batch gets
/// whether the batch is a warm-up and returns false to stop the run (an
/// operation failed). Returns the number of timed batches run.
int runBatches(double Seconds, int MinWarmup, int MinTimed,
               const std::function<bool(bool Warmup)> &Batch);

/// The traced run's loop: untraced warm-up batches, then timed batches
/// alternating untraced and traced, so both halves sample the same machine
/// state and their difference is the tracing overhead.
int runAlternating(double Seconds, int MinWarmup, int MinTimed,
                   const std::function<bool(bool Warmup, bool Trace)> &Batch);

/// Mean self time in microseconds of the spans named \p Name: each span's
/// duration minus the part its direct children on the same thread cover.
/// 0 when no such span was recorded.
double meanSelfMicros(const std::vector<tdl::telemetry::Span> &Spans,
                      std::string_view Name);
/// Summed duration in milliseconds of the spans named \p Name.
double totalMillis(const std::vector<tdl::telemetry::Span> &Spans,
                   std::string_view Name);
/// Number of spans named \p Name.
int64_t countSpans(const std::vector<tdl::telemetry::Span> &Spans,
                   std::string_view Name);

/// Registry movement over one traced batch: counter deltas and duration
/// totals (ms) between two snapshots.
struct RegistryDelta {
  tdl::telemetry::MetricsSnapshot Diff;
  int64_t counter(const std::string &Name) const;
  double durationMs(const std::string &Name) const;
};
RegistryDelta registryDelta(const tdl::telemetry::MetricsSnapshot &Before);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
