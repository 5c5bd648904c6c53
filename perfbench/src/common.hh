/**
 * @file
 * Shared pieces of the perfbench driver: the wall clock, the span log
 * of the traced run, the check ledger, and the metric record that the
 * driver prints as its last line.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Steady-clock nanoseconds since the process started. */
std::int64_t nowNs();

/** The process start as seen by the first static initializer. */
Clock::time_point processStart();

/** Median of @p v (copies and sorts); 0 when empty. */
double median(std::vector<double> v);

/** Nearest-rank percentile @p p in (0, 1] of @p v; 0 when empty. */
double percentile(std::vector<double> v, double p);

/** Peak resident set of this process, in MiB. */
double peakRssMib();

/**
 * Run this thread, and every thread it starts from now on, on one
 * fixed CPU (the highest the process was allowed at start), or on all
 * of them again.  A workload whose threads only hand work to each other
 * runs on one CPU: on the virtualized hosts this benchmark runs on,
 * waking a thread on another CPU costs tens of microseconds and swings
 * with the host's load, so such runs measured the host more than the
 * program.
 */
void useOneCpu(bool one);

/**
 * Fixed-size log-bucket histogram of latencies, so a run of millions
 * of jobs keeps percentiles in constant memory (the benchmark's own
 * bookkeeping must not show up in peak_rss_mib).  Buckets grow by
 * 0.2%; a percentile reads its bucket's geometric midpoint.
 */
class LatencyHistogram
{
  public:
    LatencyHistogram();
    void add(double ms);
    void merge(const LatencyHistogram &other);
    void clear();
    /** Nearest-rank percentile @p p in (0, 1]; 0 when empty. */
    double percentile(double p) const;

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/**
 * One recorded span: a call the benchmark made into the program.
 * Spans live in a per-thread SpanLog; @c parent indexes the same log
 * (-1 for a root).  @c job is the service job id (0 when the call is
 * not about one job).
 */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;
    std::uint64_t job = 0;
};

/**
 * In-memory span log of one thread.  A null SpanLog pointer means
 * "tracing off": ScopedSpan then reads no clock and records nothing.
 */
class SpanLog
{
  public:
    explicit SpanLog(unsigned thread) : thread_(thread) {}

    /** Open a span under the innermost open one; returns its index. */
    std::int32_t open(const char *name, std::uint64_t job);
    /** Close span @p idx (must be the innermost open span). */
    void close(std::int32_t idx);
    /** Record an already-finished span under the innermost open one. */
    void add(const char *name, std::int64_t start, std::int64_t end,
             std::uint64_t job);

    const std::vector<Span> &spans() const { return spans_; }
    unsigned thread() const { return thread_; }

    /** Duration (ns) of every span named @p name, in record order. */
    std::vector<double> durationsNs(const char *name) const;

  private:
    unsigned thread_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
};

/** RAII span; a no-op when @p log is null. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, std::uint64_t job = 0)
        : log_(log), idx_(log ? log->open(name, job) : -1)
    {}
    ~ScopedSpan()
    {
        if (log_)
            log_->close(idx_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    std::int32_t idx_;
};

/**
 * Correctness ledger, shared by the submitter threads.  Every failed
 * output, property, or cross-path check lands here; the run then
 * reports correct=false and exits 1.
 */
class Checks
{
  public:
    /** Record a failure when @p ok is false; returns @p ok. */
    bool expect(bool ok, const std::string &what);
    bool ok() const { return failures_.load() == 0; }

  private:
    /** Serializes the failure messages on stderr. */
    std::mutex printMu_;
    std::atomic<std::uint64_t> failures_{0};
};

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Output directory for span and per-layer files (traced runs). */
    std::string outDir = ".bench_out";
    /**
     * Deliberately corrupt one output ("paper" or "serve") to show
     * that the checks catch it; empty in normal runs.
     */
    std::string corrupt;
};

} // namespace perfbench
