/**
 * @file
 * The three perfbench workloads.  Each one is set up once, then runs
 * whole rounds of a fixed amount of work; the driver times the rounds
 * and reports medians.
 */
#pragma once

#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dysel/report.hh"
#include "dysel/runtime.hh"
#include "dysel/store/selection_store.hh"
#include "kdp/buffer.hh"
#include "serve/dispatch_service.hh"
#include "workloads/devices.hh"
#include "workloads/workload.hh"

#include "common.hh"

namespace perfbench {

/** What one round produced. */
struct RoundResult
{
    double wallS = 0.0;
    /** Simulated device time summed over the round's launches/jobs. */
    double virtualNs = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Common interface the driver runs rounds through. */
class Bench
{
  public:
    virtual ~Bench() = default;
    /** Run one whole round; @p traced records spans. */
    virtual RoundResult round(bool traced) = 0;
    /**
     * End-of-run checks against the program's own counters; stops
     * any threads the workload started.
     */
    virtual void finish() {}
    /** Per-layer metrics derived from the recorded spans. */
    virtual void layerMetrics(std::vector<Metric> &out) const = 0;
    /** Every span log of this workload (one per thread). */
    virtual std::vector<const SpanLog *> logs() const = 0;
    /** Percentile @p p of the job latencies (ms) of every round. */
    virtual double jobLatencyMs(double p) const = 0;
};

/**
 * Check the paper's productive-profiling bound on @p r: productive
 * units never exceed RuntimeConfig::maxProfileFraction of the launch.
 */
void checkProductiveBound(const dysel::runtime::LaunchReport &r,
                          const std::string &what, Checks &checks);

/**
 * paper-select: the figure suite's per-kernel experiment -- every
 * pure variant over the whole input (the oracle), then DySel in sync
 * and in async mode -- on the simulated i7-3820 and K20c.
 */
class PaperSelect : public Bench
{
  public:
    /** One kernel of the fixed set, with its host reference. */
    struct Case
    {
        std::string label;
        dysel::workloads::Workload w;
        dysel::workloads::DeviceFactory factory;
        bool gpu = false;
        /** Output argument index and the benchmark's own reference. */
        std::size_t outArg = 0;
        std::vector<double> reference;
        double relTol = 1e-3;
        double absTol = 1e-3;
    };

    PaperSelect(const Options &opt, Checks &checks);

    RoundResult round(bool traced) override;
    void layerMetrics(std::vector<Metric> &out) const override;
    std::vector<const SpanLog *> logs() const override { return {&log_}; }
    /**
     * A job is one harness call, and its latency is that call's median
     * over the rounds: every round makes the same calls, and they
     * differ by kernel and variant, so pooling them raw would make the
     * p99 the one slowest call of the run.
     */
    double jobLatencyMs(double p) const override;

    std::vector<Case> &cases() { return cases_; }

  private:
    /** Compare the case's output buffer with its host reference. */
    bool matchesReference(const Case &c) const;
    /** Output, Workload::check and determinism checks of one call. */
    void checkCall(Case &c, bool harnessOk, const char *what);

    Checks &checks_;
    bool corrupt_;
    std::vector<Case> cases_;
    SpanLog log_{0};
    /** Wall ms of each harness call of a round, across the rounds. */
    std::vector<std::vector<double>> callMs_;
    /** Virtual time of every harness call in the first round. */
    std::vector<double> firstRoundVirtual_;
    bool haveFirstRound_ = false;
    /** Profiled / launched units of the DySel launches (traced). */
    std::uint64_t profiledUnits_ = 0;
    std::uint64_t launchedUnits_ = 0;
};

/** Closed-form value job @p tag writes at unit @p u. */
std::int32_t expectedValue(std::uint64_t u, std::uint64_t tag);

/** Value an untouched output slot holds. */
constexpr std::int32_t sentinel = -1;

/** Shape of the benchmark's own kernel pool and service. */
struct ServeShape
{
    unsigned signatures = 0;
    /** Device workers (simulated CPUs). */
    unsigned devices = 0;
    /** Submitter threads, the driver's own thread included. */
    unsigned submitters = 0;
    /** Jobs per submitMany call. */
    unsigned burst = 1;
    /** Batch fusion cap (1 = off). */
    std::size_t maxBatchJobs = 1;
    /** Profiling executions per variant (0 = runtime default). */
    unsigned profileRepeats = 0;
};

/** Install the benchmark's multi-variant pool for @p sigs on @p rt. */
void installPool(dysel::runtime::Runtime &rt,
                 const std::vector<std::string> &sigs);

/** Index of the cheap variant every profiled launch should pick. */
constexpr int fastVariant = 0;

/** The service configuration both serving workloads share. */
dysel::serve::ServiceConfig serviceConfig(const ServeShape &shape);

/**
 * serve-cold and serve-warm-burst: a DispatchService running the
 * benchmark's pool on simulated CPUs, driven by closed-loop
 * submitters that check every job's output.
 */
class ServeBench : public Bench
{
  public:
    enum class Kind { Cold, WarmBurst };

    ServeBench(Kind kind, const Options &opt, Checks &checks);
    ~ServeBench() override;

    RoundResult round(bool traced) override;
    void finish() override;
    void layerMetrics(std::vector<Metric> &out) const override;
    std::vector<const SpanLog *> logs() const override;
    double jobLatencyMs(double p) const override
    {
        return latency_.percentile(p);
    }

    const ServeShape &shape() const { return shape_; }
    const std::vector<std::string> &signatures() const { return sigs_; }
    /** Job sizes (units) of submitter 0, in schedule order. */
    const std::vector<std::uint64_t> &sizes() const { return sizes_[0]; }
    /** Units each job's output slot holds. */
    std::uint64_t capacity() const { return capacity_; }
    dysel::store::SelectionStore &store() { return store_; }
    const std::string &fingerprint() const { return fingerprint_; }

  private:
    struct Submitter;

    void warmStore();
    void runSubmitter(unsigned t, std::uint64_t round, bool traced,
                      std::barrier<> *lockstep);

    Kind kind_;
    Checks &checks_;
    bool corrupt_;
    ServeShape shape_;
    std::vector<std::string> sigs_;
    /** The round schedule: the signature each step submits to. */
    std::vector<unsigned> schedule_;
    /** Per submitter: units of each job, in schedule order. */
    std::vector<std::vector<std::uint64_t>> sizes_;
    std::uint64_t capacity_ = 0;
    std::string fingerprint_;
    dysel::store::SelectionStore store_;
    std::unique_ptr<dysel::serve::DispatchService> svc_;
    std::vector<std::unique_ptr<Submitter>> subs_;
    std::uint64_t rounds_ = 0;
    std::uint64_t submitted_ = 0;
    LatencyHistogram latency_;
    /** Counter values per round (traced rounds only). */
    std::vector<double> leadersPerRound_, followersPerRound_,
        hitsPerRound_, batchJobsPerLaunch_;
    std::vector<double> profiledRatio_, profiledLaunches_;
};

/** Run the layer probes and append their per-layer metrics. */
void runProbes(const Options &opt, PaperSelect &paper,
               ServeBench &cold, ServeBench &warm, Checks &checks,
               std::vector<Metric> &out);

} // namespace perfbench
