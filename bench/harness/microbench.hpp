/// \file microbench.hpp
/// \brief In-repo micro-benchmark harness (Google-Benchmark-compatible
/// surface and JSON schema).
///
/// The repo's micro benches originally linked the system Google Benchmark
/// library. That library is shipped by distributions as a *debug* build
/// (assertions on, no NDEBUG), and its JSON `context.library_build_type`
/// field — which is compiled into the library, not the benchmark binary —
/// faithfully reported "debug" in every recorded BENCH_*.json. Numbers
/// measured through a debug-built timing library are not trustworthy
/// baselines. This harness replaces the dependency with a small
/// Release-built equivalent:
///
///  - same registration/measurement API subset the benches use
///    (`State` range-for, `range(i)`, `PauseTiming`/`ResumeTiming`,
///    `SetItemsProcessed`, `iterations()`, `DoNotOptimize`, `Arg`/`Args`/
///    `Unit` chaining, `--benchmark_format=json`, `--benchmark_filter`);
///  - same JSON output schema (top-level `context` + `benchmarks`), which
///    scripts/bench_record.py reads;
///  - an honest `library_build_type`: derived from NDEBUG *in this
///    translation unit*, which is compiled with the same flags as the
///    benchmarks themselves. The recorder aborts when it is not
///    "release".
///
/// Measurement model (mirrors Google Benchmark): each benchmark instance is
/// re-run with a growing iteration count until the measured (resumed) real
/// time exceeds a minimum (default 0.5 s, `--benchmark_min_time=<s>`);
/// the final run's per-iteration real/CPU times are reported.

#ifndef SISD_BENCH_HARNESS_MICROBENCH_HPP_
#define SISD_BENCH_HARNESS_MICROBENCH_HPP_

#include <cstdint>
#include <string>
#include <vector>

namespace sisd::bench {

/// Reporting unit for a benchmark's per-iteration times.
enum TimeUnit { kNanosecond, kMicrosecond, kMillisecond, kSecond };

/// \brief Per-run state handed to a benchmark function. Iterating it
/// (`for (auto _ : state)`) runs the timed loop exactly `max_iterations`
/// times; the timer starts at loop entry, stops at loop exit, and can be
/// paused around per-iteration setup.
class State {
 public:
  State(std::vector<int64_t> args, int64_t max_iterations)
      : args_(std::move(args)), max_iterations_(max_iterations) {}

  State(const State&) = delete;
  State& operator=(const State&) = delete;

  /// The i-th argument of this benchmark instance (from Arg/Args).
  int64_t range(size_t i = 0) const;

  /// Number of timed-loop iterations this run executes.
  int64_t iterations() const { return max_iterations_; }

  /// Stops the timers (no-op cost is NOT compensated; keep paused regions
  /// coarse, exactly as with Google Benchmark).
  void PauseTiming();

  /// Restarts the timers after PauseTiming.
  void ResumeTiming();

  /// Declares throughput: `n` items were processed across all iterations.
  /// Reported as `items_per_second` (divided by measured CPU time).
  void SetItemsProcessed(int64_t n) { items_processed_ = n; }

  /// \name Range-for iteration protocol.
  /// @{
  class iterator {
   public:
    iterator() = default;
    explicit iterator(State* state)
        : state_(state),
          remaining_(state != nullptr ? state->max_iterations_ : 0) {}

    /// The `_` in `for (auto _ : state)`. The user-provided destructor
    /// keeps -Wunused-but-set-variable quiet about the loop variable
    /// without costing anything (it inlines to nothing).
    struct Value {
      ~Value() {}
    };
    Value operator*() const { return Value{}; }
    iterator& operator++() {
      --remaining_;
      return *this;
    }
    /// Comparison against the end sentinel; stopping the loop stops the
    /// timers (mirrors Google Benchmark's iterator contract).
    bool operator!=(const iterator& /*end*/) {
      if (remaining_ != 0) return true;
      state_->FinishRun();
      return false;
    }

   private:
    State* state_ = nullptr;
    int64_t remaining_ = 0;
  };

  iterator begin() {
    StartRun();
    return iterator(this);
  }
  iterator end() { return iterator(); }
  /// @}

  /// \name Results read by the runner after the function returns.
  /// @{
  double real_seconds() const { return real_accumulated_s_; }
  double cpu_seconds() const { return cpu_accumulated_s_; }
  int64_t items_processed() const { return items_processed_; }
  /// @}

 private:
  void StartRun();
  void FinishRun();

  std::vector<int64_t> args_;
  int64_t max_iterations_ = 0;
  int64_t items_processed_ = 0;

  bool timing_ = false;
  double real_accumulated_s_ = 0.0;
  double cpu_accumulated_s_ = 0.0;
  double real_started_at_ = 0.0;
  double cpu_started_at_ = 0.0;
};

/// Benchmark function signature.
using Function = void (*)(State&);

/// \brief One registered benchmark family: a function plus the argument
/// lists and reporting unit attached by Arg/Args/Unit chaining.
class Benchmark {
 public:
  Benchmark(std::string family_name, Function function)
      : name_(std::move(family_name)), fn_(function) {}

  /// Adds an instance with the single argument `a`.
  Benchmark* Arg(int64_t a) {
    arg_lists_.push_back({a});
    return this;
  }

  /// Adds an instance with the argument tuple `args`.
  Benchmark* Args(std::vector<int64_t> args) {
    arg_lists_.push_back(std::move(args));
    return this;
  }

  /// Sets the reporting unit for every instance of this family.
  Benchmark* Unit(TimeUnit unit) {
    unit_ = unit;
    return this;
  }

  const std::string& name() const { return name_; }
  Function fn() const { return fn_; }
  TimeUnit unit() const { return unit_; }
  /// Argument lists; a family with no Arg/Args calls has one instance with
  /// no arguments.
  const std::vector<std::vector<int64_t>>& arg_lists() const {
    return arg_lists_;
  }

 private:
  std::string name_;
  Function fn_;
  TimeUnit unit_ = kNanosecond;
  std::vector<std::vector<int64_t>> arg_lists_;
};

/// Registers a benchmark family (used via the SISD_BENCHMARK macro; the
/// returned pointer stays valid for Arg/Args/Unit chaining).
Benchmark* RegisterBenchmark(const char* name, Function fn);

/// Runs every registered benchmark per the command line and reports to
/// stdout. Returns a process exit code.
int RunMain(int argc, char** argv);

/// \brief Compiler barrier: forces `value` to be materialized, preventing
/// the optimizer from deleting the benchmarked computation.
template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}
template <typename T>
inline void DoNotOptimize(T& value) {
  asm volatile("" : "+m,r"(value) : : "memory");
}

}  // namespace sisd::bench

#define SISD_BENCH_CONCAT_IMPL(a, b) a##b
#define SISD_BENCH_CONCAT(a, b) SISD_BENCH_CONCAT_IMPL(a, b)

/// Registers `fn` at namespace scope; supports Google-Benchmark-style
/// chaining: `SISD_BENCHMARK(BM_Foo)->Arg(5)->Unit(sisd::bench::kMillisecond);`
#define SISD_BENCHMARK(fn)                                            \
  static ::sisd::bench::Benchmark* SISD_BENCH_CONCAT(                 \
      sisd_bench_registration_, __COUNTER__) [[maybe_unused]] =       \
      ::sisd::bench::RegisterBenchmark(#fn, fn)

#define SISD_BENCHMARK_MAIN()                       \
  int main(int argc, char** argv) {                 \
    return ::sisd::bench::RunMain(argc, argv);      \
  }

#endif  // SISD_BENCH_HARNESS_MICROBENCH_HPP_
