//===- Workloads.h - The three benchmark workloads --------------*- C++ -*-===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload is a closed loop with one client: it sets the program up,
/// generates its request set from the seed, warms up, then runs whole
/// batches (one pass over the request set) for the configured time and
/// checks every output. Untraced, it reports the end-to-end metrics; traced,
/// it runs half its time untraced and half with span collection on, and
/// reports the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"
#include "Payloads.h"

#include <memory>

namespace perfbench {

WorkloadResult runTosaPipeline(const RunConfig &Config);
WorkloadResult runForeachTile(const RunConfig &Config);
WorkloadResult runTunedDispatch(const RunConfig &Config);

/// Prints the sizing observations the workloads were chosen from.
int runSizing(const RunConfig &Config);

/// The kernels of foreach_tile's payload for \p Seed.
std::vector<KernelSpec> foreachTileSpecs(uint64_t Seed);
/// The kernel stream of tuned_dispatch for \p Seed.
std::vector<KernelSpec> tunedDispatchSpecs(uint64_t Seed);

/// Times the set-ups of a workload, each from workload start to the first
/// request being ready. Made before the workload sets anything up, it
/// forks an idle process from which every later sample runs one set-up in
/// a fresh child; the set-up this process keeps is the first sample. So
/// every sample pays the work done once per process (dialect and pass
/// registration), and samples are taken across the whole run, one after
/// every timed batch. Tearing a set-up down is not timed. \p SetUp returns
/// null when it fails.
template <typename T> class SetUpTimer {
public:
  explicit SetUpTimer(std::function<std::unique_ptr<T>()> SetUp)
      : SetUp(std::move(SetUp)),
        Forker([this] { return this->SetUp() != nullptr; }) {}

  /// The set-up this process keeps.
  std::unique_ptr<T> first() {
    int64_t Start = nowNanos();
    std::unique_ptr<T> Built = SetUp();
    Samples.push_back((nowNanos() - Start) / 1e9);
    return Built;
  }
  /// One more set-up in a fresh child; false when it failed.
  bool sample() {
    double Seconds = Forker.run();
    if (Seconds < 0)
      return false;
    Samples.push_back(Seconds);
    return true;
  }
  double medianSeconds() const { return median(Samples); }

private:
  std::function<std::unique_ptr<T>()> SetUp;
  ColdForker Forker;
  std::vector<double> Samples;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
