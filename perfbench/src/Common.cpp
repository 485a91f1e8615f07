//===- Common.cpp - Shared pieces of the perfbench program ----------------===//
//
// Part of the transform-dialect reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "core/Analysis.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t Mid = Samples.size() / 2;
  if (Samples.size() % 2)
    return Samples[Mid];
  return (Samples[Mid - 1] + Samples[Mid]) / 2;
}

double perfbench::mean(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0;
  double Sum = 0;
  for (double S : Samples)
    Sum += S;
  return Sum / Samples.size();
}

double perfbench::prepassMicros(tdl::Operation *Script) {
  std::vector<double> Micros;
  for (int I = 0; I < 200; ++I) {
    int64_t Start = nowNanos();
    (void)tdl::analyzeHandleTypes(Script);
    Micros.push_back((nowNanos() - Start) / 1e3);
  }
  return median(std::move(Micros));
}

namespace {

/// Reads or writes exactly one double on \p Fd, retrying on interrupts.
bool readDouble(int Fd, double &Value) {
  ssize_t N;
  do
    N = read(Fd, &Value, sizeof(Value));
  while (N < 0 && errno == EINTR);
  return N == sizeof(Value);
}
bool writeDouble(int Fd, double Value) {
  ssize_t N;
  do
    N = write(Fd, &Value, sizeof(Value));
  while (N < 0 && errno == EINTR);
  return N == sizeof(Value);
}

/// The idle process: one child per request byte, until the request pipe
/// closes. Exactly one double answers each request.
[[noreturn]] void serveColdRuns(const std::function<bool()> &Work,
                                int Requests, int Replies) {
  char Byte;
  while (true) {
    ssize_t N = read(Requests, &Byte, 1);
    if (N < 0 && errno == EINTR)
      continue;
    if (N != 1)
      _exit(0);
    pid_t Child = fork();
    if (Child == 0) {
      int64_t Start = nowNanos();
      bool Ok = Work();
      double Taken = (nowNanos() - Start) / 1e9;
      // Leave without destructors or atexit handlers: the child only
      // measures, and owns nothing it copied.
      _exit(writeDouble(Replies, Ok ? Taken : -1) ? 0 : 1);
    }
    int Status = 0;
    while (Child > 0 && waitpid(Child, &Status, 0) < 0 && errno == EINTR)
      ;
    // A child that wrote its answer exited with 0; any other end means it
    // wrote nothing, so answer for it.
    if (Child < 0 || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
      if (!writeDouble(Replies, -1))
        _exit(1);
  }
}

} // namespace

ColdForker::ColdForker(std::function<bool()> Work) : Work(std::move(Work)) {
  int Requests[2], Replies[2];
  if (pipe(Requests) != 0)
    return;
  if (pipe(Replies) != 0) {
    close(Requests[0]);
    close(Requests[1]);
    return;
  }
  // Buffered output would otherwise be written once more by each child.
  std::fflush(nullptr);
  Idle = fork();
  if (Idle == 0) {
    close(Requests[1]);
    close(Replies[0]);
    serveColdRuns(this->Work, Requests[0], Replies[1]);
  }
  close(Requests[0]);
  close(Replies[1]);
  if (Idle < 0) {
    close(Requests[1]);
    close(Replies[0]);
    return;
  }
  Request = Requests[1];
  Reply = Replies[0];
}

ColdForker::~ColdForker() {
  if (Idle <= 0)
    return;
  close(Request);
  close(Reply);
  while (waitpid(Idle, nullptr, 0) < 0 && errno == EINTR)
    ;
}

double ColdForker::run() {
  if (Idle <= 0)
    return -1;
  char Byte = 0;
  ssize_t N;
  do
    N = write(Request, &Byte, 1);
  while (N < 0 && errno == EINTR);
  double Taken;
  if (N != 1 || !readDouble(Reply, Taken))
    return -1;
  return Taken;
}

std::string perfbench::readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

double perfbench::peakRssMb() {
  // VmHWM is the high-water mark of this program image alone; getrusage's
  // ru_maxrss would also carry the peak of the process that exec'd it.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // KiB
  return 0;
}

int perfbench::runBatches(double Seconds, int MinWarmup, int MinTimed,
                          const std::function<bool(bool Warmup)> &Batch) {
  int64_t Start = nowNanos();
  auto Elapsed = [&] { return (nowNanos() - Start) / 1e9; };
  for (int I = 0; I < MinWarmup || Elapsed() < Seconds / 6; ++I)
    if (!Batch(/*Warmup=*/true))
      return 0;
  int Timed = 0;
  while (Timed < MinTimed || Elapsed() < Seconds) {
    if (!Batch(/*Warmup=*/false))
      break;
    ++Timed;
  }
  return Timed;
}

int perfbench::runAlternating(
    double Seconds, int MinWarmup, int MinTimed,
    const std::function<bool(bool Warmup, bool Trace)> &Batch) {
  bool Trace = false;
  return runBatches(Seconds, MinWarmup, MinTimed, [&](bool Warmup) {
    if (Warmup)
      return Batch(true, false);
    Trace = !Trace;
    return Batch(false, Trace);
  });
}

double perfbench::meanSelfMicros(const std::vector<tdl::telemetry::Span> &Spans,
                                 std::string_view Name) {
  std::vector<const tdl::telemetry::Span *> Order;
  for (const tdl::telemetry::Span &S : Spans)
    Order.push_back(&S);
  std::sort(Order.begin(), Order.end(), [](const auto *A, const auto *B) {
    if (A->ThreadId != B->ThreadId)
      return A->ThreadId < B->ThreadId;
    if (A->StartNanos != B->StartNanos)
      return A->StartNanos < B->StartNanos;
    return A->DurNanos > B->DurNanos;
  });
  // Spans of one thread nest properly, so a stack of open spans finds each
  // span's direct parent.
  std::vector<std::pair<const tdl::telemetry::Span *, int64_t>> Stack;
  int64_t SelfNanos = 0, Count = 0;
  auto Close = [&] {
    if (Stack.back().first->Name == Name) {
      SelfNanos += Stack.back().first->DurNanos - Stack.back().second;
      ++Count;
    }
    Stack.pop_back();
  };
  for (const tdl::telemetry::Span *S : Order) {
    while (!Stack.empty() &&
           (Stack.back().first->ThreadId != S->ThreadId ||
            Stack.back().first->StartNanos + Stack.back().first->DurNanos <=
                S->StartNanos))
      Close();
    if (!Stack.empty())
      Stack.back().second += S->DurNanos;
    Stack.push_back({S, 0});
  }
  while (!Stack.empty())
    Close();
  return Count ? SelfNanos / 1e3 / Count : 0;
}

double perfbench::totalMillis(const std::vector<tdl::telemetry::Span> &Spans,
                              std::string_view Name) {
  int64_t Nanos = 0;
  for (const tdl::telemetry::Span &S : Spans)
    if (S.Name == Name)
      Nanos += S.DurNanos;
  return Nanos / 1e6;
}

int64_t perfbench::countSpans(const std::vector<tdl::telemetry::Span> &Spans,
                              std::string_view Name) {
  int64_t Count = 0;
  for (const tdl::telemetry::Span &S : Spans)
    Count += S.Name == Name;
  return Count;
}

int64_t RegistryDelta::counter(const std::string &Name) const {
  auto It = Diff.Counters.find(Name);
  return It == Diff.Counters.end() ? 0 : It->second;
}

double RegistryDelta::durationMs(const std::string &Name) const {
  auto It = Diff.Durations.find(Name);
  return It == Diff.Durations.end() ? 0 : It->second.TotalNanos / 1e6;
}

RegistryDelta
perfbench::registryDelta(const tdl::telemetry::MetricsSnapshot &Before) {
  return {tdl::telemetry::diffSnapshots(
      tdl::telemetry::MetricsRegistry::instance().snapshot(), Before)};
}
