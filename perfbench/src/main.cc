// perfbench: the repository benchmark.
//
//   perfbench --workload <tool_start|data_stream|fleet_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <csv>]
//   perfbench --self-test
//
// Prints a header (seed, pinned testbed, generated inputs), one line per
// metric ("name value unit"), and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 alternates untraced and traced slices and
// reports the per-layer metrics of the traced ones. Exits 1 when any
// output did not match the seeded inputs, 2 on a usage or set-up error.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "perfbench/src/report.h"
#include "perfbench/src/selftest.h"
#include "perfbench/src/testbed.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return args->self_test || args->seconds > 0;
}

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

uint64_t MergedOps(const Workload& w, size_t mode) {
  uint64_t ops = 0;
  for (const auto& c : w.clients()) {
    ops += c->log(mode).attempted;
  }
  return ops;
}

// Runs slices until `seconds` of wall time have passed. Traced runs
// alternate untraced and traced slices (an even count), so machine drift
// cancels out of trace.overhead_pct.
void MeasurePhase(Workload& w, double seconds, Tracer* tracer, PhaseResult* r) {
  LayerProbe probe(w.stack());
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  size_t slice = 0;
  while (Clock::now() < deadline || (tracer != nullptr && slice % 2 == 1)) {
    const size_t mode = tracer != nullptr && slice % 2 == 1 ? Client::kTraced : Client::kUntraced;
    if (tracer != nullptr) {
      tracer->SetOn(mode == Client::kTraced);
    }
    const uint64_t ops0 = MergedOps(w, mode);
    const LayerCounters before = probe.Take();
    const Clock::time_point t0 = Clock::now();
    w.RunSlice(mode);
    const double wall_s = Seconds(Clock::now() - t0);
    const LayerCounters after = probe.Take();
    r->layers[mode].AddDelta(before, after);
    r->slices.push_back({mode, MergedOps(w, mode) - ops0, wall_s, after.cpu_ns - before.cpu_ns});
    ++slice;
  }
  r->peak_rss_mb = PeakRssMb();
  if (tracer != nullptr) {
    tracer->SetOn(false);
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-44s %18.6f %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  }
}

int Run(const Args& args, Clock::time_point process_start) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d set-ups=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kSetups);
  std::fputs(DescribeTestbed(PinnedKernelConfig()).c_str(), stdout);

  std::unique_ptr<Tracer> tracer;
  if (args.trace) {
    tracer = std::make_unique<Tracer>();
  }
  // Set up several times and keep the last stack; set-up time is the
  // median. The first set-up counts from process start.
  PhaseResult result;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const Clock::time_point t0 = i == 0 ? process_start : Clock::now();
    w = MakeWorkload(args.workload, args.seed);
    if (w == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    const cntr::Status st = w->Setup(tracer.get());
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", st.ToString().c_str());
      return 2;
    }
    result.setup_s.push_back(Seconds(Clock::now() - t0));
  }
  std::printf("# inputs: %s\n", w->Describe().c_str());
  std::fflush(stdout);

  MeasurePhase(*w, args.seconds, tracer.get(), &result);

  const std::vector<Metric> e2e = EndToEndMetrics(*w, result, Client::kUntraced);
  std::vector<Metric> reported = e2e;
  OpLog totals = MergedLog(*w, Client::kUntraced);
  std::printf("# end-to-end (untraced slices)\n");
  PrintMetrics(e2e);
  if (args.trace) {
    reported = PerLayerMetrics(*w, result);
    std::printf("# per-layer (traced slices)\n");
    PrintMetrics(reported);
    const OpLog traced = MergedLog(*w, Client::kTraced);
    totals.attempted += traced.attempted;
    totals.failed += traced.failed;
    totals.mismatches += traced.mismatches;
    for (const auto& [what, count] : traced.errors) {
      totals.errors[what] += count;
    }
    for (size_t mode : {Client::kUntraced, Client::kTraced}) {
      for (int64_t residual : LaneResiduals(*w, mode)) {
        std::printf("# lane residual (mode %zu): %lld ns outside syscalls\n", mode,
                    static_cast<long long>(residual));
      }
    }
    std::printf("# spans: %zu recorded, %llu dropped\n", tracer->span_count(),
                static_cast<unsigned long long>(tracer->dropped()));
    if (!args.spans.empty() && !tracer->WriteCsv(args.spans)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans.c_str());
    }
  }
  for (const auto& [what, count] : totals.errors) {
    std::printf("# failed op: %s x%llu\n", what.c_str(), static_cast<unsigned long long>(count));
  }
  const bool correct = totals.mismatches == 0;
  std::printf("# correct=%s attempted=%llu failed=%llu mismatches=%llu\n",
              correct ? "true" : "false", static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed),
              static_cast<unsigned long long>(totals.mismatches));

  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(totals.attempted) +
                     ", \"failed\": " + std::to_string(totals.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : reported) {
    if (!m.guarded) {
      continue;
    }
    json += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::puts(json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <csv>] | --self-test\n");
    return 2;
  }
  if (args.self_test) {
    return perfbench::RunSelfTests();
  }
  return perfbench::Run(args, process_start);
}
