#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time this process has used so far, all its threads, in seconds.
/// Unlike wall time it does not grow while the process waits for a CPU,
/// whether another process holds it or the hypervisor runs another guest
/// (the kernel leaves steal time out of task run time).
double cpu_seconds();

/// Wall and CPU time of one stretch of work.
struct Lap {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Reads both clocks at construction and at every `lap()`.
class Stopwatch {
public:
  Stopwatch() : wall0_(Clock::now()), cpu0_(cpu_seconds()) {}
  /// Time since construction or the previous lap.
  Lap elapsed() const {
    return Lap{seconds_since(wall0_), cpu_seconds() - cpu0_};
  }
  /// Time since construction or the previous lap; starts the next lap.
  Lap lap() {
    const Clock::time_point wall = Clock::now();
    const double cpu = cpu_seconds();
    const Lap out{std::chrono::duration<double>(wall - wall0_).count(), cpu - cpu0_};
    wall0_ = wall;
    cpu0_ = cpu;
    return out;
  }

private:
  Clock::time_point wall0_;
  double cpu0_;
};

/// A sample of measurements with order statistics.
class Samples {
public:
  void add(double x) { values_.push_back(x); }
  std::size_t size() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  /// Quantile by linear interpolation between order statistics (the
  /// "inclusive" method); 0 on an empty sample.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double sum() const;
  const std::vector<double>& values() const noexcept { return values_; }

private:
  std::vector<double> values_;
};

/// Times of the chunks of a repeated, identical piece of work, on both
/// clocks. Every untraced repetition runs the same inputs, so chunk i does
/// the same work in each; the best totals sum, chunk by chunk, the fastest
/// repetition. Interference from other processes on a shared machine only
/// ever adds time, and it comes in spells of seconds to tens of seconds,
/// so it moves the total only if it hit every repetition of a chunk, where
/// a per-run total (or a median over repetitions) would carry any spell
/// longer than half the run.
class ChunkTimes {
public:
  void begin_rep() { reps_.emplace_back(); }
  /// Records the next chunk of the current repetition.
  void add(const Lap& lap);
  std::size_t chunks() const noexcept;
  std::size_t reps() const noexcept { return reps_.size(); }
  /// Sums over chunks of the minimum over repetitions; 0 with no chunks.
  double best_wall() const;
  double best_cpu() const;

private:
  template <typename ChunkTime>
  double best_total(ChunkTime time) const;

  std::vector<std::vector<Lap>> reps_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // free text printed after the unit, e.g. "n=41234"
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: every workload shrinks to well under a second.
  bool tiny = false;
  /// Checkout root; the shipped plans and scopes live under examples/.
  std::string root = ".";
  /// Where traced runs write their spans; empty = keep them in memory only.
  std::string spans_dir;

  std::string example(const std::string& rel) const {
    return root + "/examples/" + rel;
  }
};

/// What one workload run hands back to main().
struct Report {
  ChunkTimes setup;        // every set-up repetition, chunk by chunk
  Samples rep_wall_s;      // untraced repetitions of the timed region
  Samples traced_wall_s;   // traced repetitions (--trace 1 only)
  ChunkTimes chunks;       // the untraced repetitions, chunk by chunk
  double work_per_rep = 0.0;  // units one repetition completes
  std::string work_unit;
  /// Peak resident set once the first untraced repetition has ended: set-up
  /// plus one repetition's work, however many repetitions the time budget
  /// then allows (each keeps its per-access samples).
  double peak_rss_mb = 0.0;
  std::vector<Metric> end_to_end;  // workload-specific, printed as lines
  std::vector<Metric> layers;      // per-layer metrics of a traced run
  std::uint64_t checks = 0;
  std::uint64_t check_failures = 0;
  std::vector<std::string> failure_notes;
  /// One line per chaos run to replay under quora_chaos:
  /// "PLAN_PATH SEED HORIZON ADAPT(0|1) HASH_HEX".
  std::vector<std::string> cross_checks;
  std::uint64_t input_digest = 0xcbf29ce484222325ULL;

  void check(bool ok, const std::string& what);
  void digest(std::uint64_t v);
  bool has_layer(const std::string& name) const;
  void layer(const std::string& name, double value, const std::string& unit);
};

/// SplitMix64 finalizer: derives independent seeds from (seed, salt).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Bookkeeping after one untraced repetition: its wall time, and the peak
/// resident set if this was the first.
void end_untraced_rep(Report& report, double wall_s);

/// Moves the calling thread to the next CPU of its affinity mask on every
/// `next()`, round robin, and restores the mask on destruction. On a VM a
/// virtual CPU can run slowly for seconds while its host core is shared;
/// rotating single-threaded repetitions over the CPUs lets the fastest
/// repetition of a chunk (ChunkTimes) come from an uncontended one. A
/// no-op if the mask cannot be read.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Set-ups timed per repetition by workloads whose set-up takes only
/// milliseconds. Timing them inside every repetition, not all at the
/// start, spreads their samples over the run like the timed region's.
inline constexpr int kSetupsPerRep = 5;

/// Whether another repetition fits: at least `min_reps`, then only while
/// one more median-length repetition would end inside the budget.
bool another_rep(std::size_t reps_done, std::size_t min_reps,
                 Clock::time_point start, double budget_s,
                 const Samples& rep_walls);

Report run_paper_curves(const Options& opt);
Report run_cluster_steady(const Options& opt);
Report run_cluster_chaos(const Options& opt);
Report run_model_explore(const Options& opt);

/// Fills every per-layer metric the workload did not measure itself from
/// the layer's seeded reference input (see layers.cpp).
void add_reference_layers(Report& report, const Options& opt);

}  // namespace perfbench
