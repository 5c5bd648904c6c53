/**
 * @file
 * serve-cold and serve-warm-burst: closed-loop submitters against a
 * DispatchService running the benchmark's own kernel pool on
 * simulated CPUs.  Every job writes a closed-form value of its unit
 * index and its own tag, and every job's buffer is checked.
 */
#include <algorithm>
#include <barrier>
#include <numeric>
#include <span>
#include <thread>

#include "sim/cpu/cpu_device.hh"
#include "support/rng.hh"

#include "bench.hh"

namespace perfbench {

namespace rt = dysel::runtime;
namespace sv = dysel::serve;

namespace {

constexpr std::uint32_t lanes = 8;

/** The pool: one cheap winner and three decoys of other geometry. */
struct VariantSpec
{
    const char *name;
    std::uint64_t waFactor;
    std::uint64_t flopsPerUnit;
};
constexpr VariantSpec variantSpecs[] = {
    {"fast", 1, 64},
    {"slow-wa2", 2, 60000},
    {"slow-wa4", 4, 100000},
    {"slow-wa1", 1, 140000},
};

dysel::kdp::KernelVariant
poolVariant(const VariantSpec &spec)
{
    dysel::kdp::KernelVariant v;
    v.name = spec.name;
    v.groupSize = lanes;
    v.waFactor = spec.waFactor;
    v.sandboxIndex = {0};
    const std::uint64_t flops = spec.flopsPerUnit;
    v.fn = [flops](dysel::kdp::GroupCtx &g,
                   const dysel::kdp::KernelArgs &args) {
        auto &out = args.buf<std::int32_t>(0);
        const auto units = static_cast<std::uint64_t>(args.scalarInt(1));
        const auto tag = static_cast<std::uint64_t>(args.scalarInt(2));
        const std::uint64_t end =
            std::min(units, g.unitBase() + g.waFactor());
        for (std::uint64_t u = g.unitBase(); u < end; ++u) {
            const auto lane = static_cast<std::uint32_t>(u % lanes);
            g.store(out, u, expectedValue(u, tag), lane);
            g.flops(lane, flops);
        }
    };
    return v;
}

dysel::compiler::KernelInfo
poolInfo(const std::string &sig)
{
    dysel::compiler::KernelInfo info;
    info.signature = sig;
    info.loops = {{"wi", dysel::compiler::BoundKind::Constant, true, false,
                   lanes}};
    info.outputArgs = {0};
    return info;
}

/** Counters the cross-path checks and per-layer metrics read. */
struct CounterSnapshot
{
    double leaders = 0, followers = 0, hits = 0, batchJobs = 0,
           batchLaunches = 0;

    explicit CounterSnapshot(const dysel::support::MetricsRegistry &m)
        : leaders(static_cast<double>(m.counterValue("coalesce.leader"))),
          followers(
              static_cast<double>(m.counterValue("coalesce.follower"))),
          hits(static_cast<double>(m.counterValue("store.hit"))),
          batchJobs(static_cast<double>(m.counterValue("batch.jobs"))),
          batchLaunches(
              static_cast<double>(m.counterValue("batch.launches")))
    {}
};

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 31;
    x *= 0x7fb5d329728ea185ull;
    x ^= x >> 27;
    x *= 0x81dadef4bc2dd44dull;
    return x ^ (x >> 33);
}

} // namespace

std::int32_t
expectedValue(std::uint64_t u, std::uint64_t tag)
{
    return static_cast<std::int32_t>(
        ((u + 1) * 0x9e3779b97f4a7c15ull ^ tag * 0xc2b2ae3d27d4eb4full)
        >> 33);
}

void
installPool(rt::Runtime &runtime, const std::vector<std::string> &sigs)
{
    for (const std::string &sig : sigs) {
        for (const VariantSpec &spec : variantSpecs)
            runtime.tryAddKernel(sig, poolVariant(spec)).throwIfError();
        runtime.setKernelInfo(sig, poolInfo(sig));
    }
}

sv::ServiceConfig
serviceConfig(const ServeShape &shape)
{
    sv::ServiceConfig cfg;
    cfg.runtime.guard.enabled = true;
    cfg.coalesce = true;
    // Least-loaded routing only: serve-cold clears the store between
    // rounds, and a signature pinned to one device would queue its
    // later jobs there instead of coalescing them.
    cfg.affinity = false;
    cfg.batch.maxJobs = shape.maxBatchJobs;
    return cfg;
}

/** One closed-loop submitter: its slots, specs, tallies and spans. */
struct ServeBench::Submitter
{
    explicit Submitter(unsigned t) : log(t) {}

    SpanLog log;
    std::vector<std::unique_ptr<dysel::kdp::Buffer<std::int32_t>>> slots;
    std::vector<sv::JobSpec> specs;
    std::vector<sv::JobHandle> handles;
    std::vector<std::uint64_t> tags;

    // Whole-run tallies for the cross-path checks.
    std::uint64_t completed = 0, profiled = 0, coalesced = 0, warm = 0,
                  batched = 0;

    // Per-round results, merged by round().
    LatencyHistogram latency;
    std::vector<std::uint32_t> keyProfiled;
    double virtualNs = 0.0;
    std::uint64_t failed = 0;
    std::uint64_t profiledUnits = 0, totalUnits = 0;
};

ServeBench::ServeBench(Kind kind, const Options &opt, Checks &checks)
    : kind_(kind), checks_(checks), corrupt_(opt.corrupt == "serve")
{
    const bool cold = kind_ == Kind::Cold;
    // Coalescing needs the leader and its follower on different CPUs;
    // warm-burst's submitter and worker only hand work to each other.
    useOneCpu(!cold);
    dysel::support::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull
                            + (cold ? 0xc01d : 0xb0457));
    std::vector<unsigned> buckets;
    if (cold) {
        // 2 submitters x 2 devices: every step hits a never-seen
        // (signature, size bucket) key from both submitters at once.
        shape_ = {.signatures = 48, .devices = 2, .submitters = 2,
                  .burst = 1, .maxBatchJobs = 1, .profileRepeats = 3};
        buckets = {12, 13, 14};
    } else {
        // One submitter, one device, bursts of 16 tiny jobs fused
        // into one launch each.
        shape_ = {.signatures = 16, .devices = 1, .submitters = 1,
                  .burst = 16, .maxBatchJobs = 16, .profileRepeats = 0};
        buckets = {6};
    }
    for (unsigned s = 0; s < shape_.signatures; ++s)
        sigs_.push_back((cold ? "cold" : "warm") + std::to_string(s));

    // The round schedule: every (signature, bucket) once in a seeded
    // order (cold), or a seeded signature per burst (warm).
    std::vector<unsigned> stepBucket;
    if (cold) {
        for (unsigned s = 0; s < shape_.signatures; ++s)
            for (unsigned b : buckets) {
                schedule_.push_back(s);
                stepBucket.push_back(b);
            }
        for (std::size_t i = schedule_.size(); i > 1; --i) {
            const std::size_t j = rng.nextBelow(i);
            std::swap(schedule_[i - 1], schedule_[j]);
            std::swap(stepBucket[i - 1], stepBucket[j]);
        }
    } else {
        constexpr unsigned bursts = 256;
        for (unsigned b = 0; b < bursts; ++b) {
            schedule_.push_back(
                static_cast<unsigned>(rng.nextBelow(shape_.signatures)));
            stepBucket.push_back(buckets[0]);
        }
    }
    capacity_ = std::uint64_t{1} << (*std::max_element(buckets.begin(),
                                                       buckets.end())
                                     + 1);
    // Sizes fill the lower quarter of their bucket: seeded, but close
    // enough that a round's total work barely depends on the seed.
    sizes_.resize(shape_.submitters);
    for (auto &sizes : sizes_)
        for (unsigned b : stepBucket)
            for (unsigned i = 0; i < shape_.burst; ++i)
                sizes.push_back((std::uint64_t{1} << b)
                                + rng.nextBelow(std::uint64_t{1} << (b - 2)));

    svc_ = std::make_unique<sv::DispatchService>(store_,
                                                 serviceConfig(shape_));
    for (unsigned d = 0; d < shape_.devices; ++d)
        svc_->addDevice(std::make_unique<dysel::sim::CpuDevice>());
    fingerprint_ = svc_->device(0).fingerprint();
    svc_->registerKernelPool([sigs = sigs_](rt::Runtime &runtime) {
            installPool(runtime, sigs);
        }).throwIfError();
    if (!cold)
        warmStore();
    svc_->start();

    for (unsigned t = 0; t < shape_.submitters; ++t) {
        auto sub = std::make_unique<Submitter>(t);
        for (unsigned i = 0; i < shape_.burst; ++i)
            sub->slots.push_back(
                std::make_unique<dysel::kdp::Buffer<std::int32_t>>(
                    capacity_, dysel::kdp::MemSpace::Global, "perfbench.out"));
        sub->specs.resize(shape_.burst);
        sub->handles.resize(shape_.burst);
        sub->tags.resize(shape_.burst);
        subs_.push_back(std::move(sub));
    }
}

ServeBench::~ServeBench()
{
    if (svc_)
        svc_->stop();
}

void
ServeBench::warmStore()
{
    // Profile every signature once at a tiny size on a standalone
    // runtime whose floor admits it, and record the winners: the
    // service then serves every warm-burst job from the store.
    dysel::sim::CpuDevice dev;
    rt::RuntimeConfig cfg = serviceConfig(shape_).runtime;
    cfg.minUnitsForProfiling = 64;
    rt::Runtime runtime(dev, cfg);
    installPool(runtime, sigs_);
    checks_.expect(dev.fingerprint() == fingerprint_,
                   "serve-warm-burst: warm-up device fingerprint differs");
    dysel::kdp::Buffer<std::int32_t> out(capacity_,
                                         dysel::kdp::MemSpace::Global,
                                         "perfbench.warm");
    for (const std::string &sig : sigs_) {
        const std::uint64_t units = 96;
        dysel::kdp::KernelArgs args;
        args.add(out).add(static_cast<std::int64_t>(units))
            .add(static_cast<std::int64_t>(7));
        rt::LaunchReport report;
        const auto st = runtime.launch(sig, units, args,
                                       rt::LaunchOptions(), report);
        checks_.expect(st.ok() && report.profiled
                           && report.selected == fastVariant,
                       "serve-warm-burst: warm-up profile of " + sig
                           + " failed: " + st.toString());
        store_.recordProfile(fingerprint_, report);
        checks_.expect(store_.peek(sig, fingerprint_, units).has_value(),
                       "serve-warm-burst: no store record for " + sig);
    }
}

void
ServeBench::runSubmitter(unsigned t, std::uint64_t round, bool traced,
                         std::barrier<> *lockstep)
{
    Submitter &s = *subs_[t];
    SpanLog *roundLog = traced ? &s.log : nullptr;
    const bool cold = kind_ == Kind::Cold;
    // Warm-burst pushes ~100k jobs a second; spans of every 64th burst
    // (all its jobs) keep the in-memory log bounded.
    const std::size_t spanStride = cold ? 1 : 64;
    rt::LaunchOptions opt;
    opt.profileRepeats = shape_.profileRepeats;
    s.latency.clear();
    s.keyProfiled.assign(schedule_.size(), 0);
    s.virtualNs = 0.0;
    s.failed = 0;
    s.profiledUnits = s.totalUnits = 0;

    ScopedSpan roundSpan(roundLog, "round");
    for (std::size_t j = 0; j < schedule_.size(); ++j) {
        SpanLog *log = j % spanStride == 0 ? roundLog : nullptr;
        if (lockstep)
            lockstep->arrive_and_wait();
        const std::size_t n = shape_.burst;
        for (std::size_t b = 0; b < n; ++b) {
            const std::uint64_t units = sizes_[t][j * n + b];
            // Non-negative, so it survives the int64 scalar slot.
            s.tags[b] =
                mix((round << 40) ^ (std::uint64_t{t} << 32) ^ (j * n + b))
                >> 1;
            auto &slot = *s.slots[b];
            std::fill(slot.host(), slot.host() + slot.size(), sentinel);
            s.specs[b]
                .signature(sigs_[schedule_[j]])
                .units(units)
                .options(opt);
            s.specs[b].mutableArgs().clear();
            s.specs[b].mutableArgs().add(slot).add(
                static_cast<std::int64_t>(units)).add(
                static_cast<std::int64_t>(s.tags[b]));
        }
        const std::int64_t t0 = nowNs();
        svc_->submitMany(std::span<const sv::JobSpec>(s.specs.data(), n),
                         std::span<sv::JobHandle>(s.handles.data(), n));
        const std::int64_t t1 = nowNs();
        if (log)
            log->add("submitMany", t0, t1, s.handles[0].id());
        for (std::size_t b = 0; b < n; ++b) {
            const sv::JobResult &r = s.handles[b].result();
            const std::int64_t t2 = nowNs();
            s.latency.add(static_cast<double>(t2 - t0) * 1e-6);
            if (log)
                log->add("result", t1, t2, r.id);
            auto &slot = *s.slots[b];
            const std::uint64_t units = sizes_[t][j * n + b];
            const std::uint64_t tag = s.tags[b];
            if (corrupt_ && round == 0 && t == 0 && j == 0 && b == 0)
                slot.host()[0] = expectedValue(0, tag + 1);
            if (!r.ok()) {
                ++s.failed;
                checks_.expect(false, "job " + std::to_string(r.id)
                                          + " failed: " + r.status.toString());
                s.handles[b] = sv::JobHandle();
                continue;
            }
            ++s.completed;
            bool outputOk = true;
            for (std::uint64_t u = 0; u < capacity_ && outputOk; ++u)
                outputOk = slot.host()[u]
                           == (u < units ? expectedValue(u, tag) : sentinel);
            if (!outputOk)
                checks_.expect(false, "job " + std::to_string(r.id)
                                          + ": output buffer does not hold "
                                            "its own closed-form values");
            if (r.report.profiled) {
                checkProductiveBound(r.report, "job " + std::to_string(r.id),
                                     checks_);
                ++s.profiled;
                ++s.keyProfiled[j];
            }
            // Every job runs the cheap winner; warm-burst jobs come
            // from the warmed store and never profile.
            if (r.report.selected != fastVariant
                || (!cold && (r.report.profiled || !r.warmStart)))
                checks_.expect(false, "job " + std::to_string(r.id)
                                          + " ran variant "
                                          + r.report.selectedName
                                          + (r.warmStart ? " warm" : " cold"));
            s.coalesced += r.coalescedWith != 0;
            s.warm += r.warmStart;
            s.batched += r.batchedWith != 0;
            s.virtualNs += static_cast<double>(r.deviceTimeNs);
            s.profiledUnits += r.report.profiledUnits;
            s.totalUnits += units;
            s.handles[b] = sv::JobHandle();
        }
    }
}

RoundResult
ServeBench::round(bool traced)
{
    const bool cold = kind_ == Kind::Cold;
    // Every round starts from an empty store (cold) so each key is
    // never seen again; warm-burst keeps its warmed store.
    if (cold)
        store_.clear();
    const CounterSnapshot before(svc_->metrics());
    std::barrier<> lockstep(static_cast<std::ptrdiff_t>(shape_.submitters));
    std::barrier<> *sync = cold ? &lockstep : nullptr;
    const std::uint64_t r = rounds_++;

    const auto start = Clock::now();
    std::vector<std::thread> helpers;
    for (unsigned t = 1; t < shape_.submitters; ++t)
        helpers.emplace_back([this, t, r, traced, sync] {
            try {
                runSubmitter(t, r, traced, sync);
            } catch (const std::exception &e) {
                checks_.expect(false, std::string("submitter: ") + e.what());
            }
        });
    runSubmitter(0, r, traced, sync);
    for (std::thread &th : helpers)
        th.join();
    RoundResult res;
    res.wallS = seconds(start, Clock::now());

    std::vector<std::uint32_t> keyProfiled(schedule_.size(), 0);
    std::uint64_t profiledUnits = 0, totalUnits = 0, profiledJobs = 0;
    for (const auto &s : subs_) {
        latency_.merge(s->latency);
        res.virtualNs += s->virtualNs;
        res.failed += s->failed;
        profiledUnits += s->profiledUnits;
        totalUnits += s->totalUnits;
        for (std::size_t j = 0; j < keyProfiled.size(); ++j) {
            keyProfiled[j] += s->keyProfiled[j];
            profiledJobs += s->keyProfiled[j];
        }
    }
    res.attempted = schedule_.size() * shape_.burst * shape_.submitters;
    submitted_ += res.attempted;
    if (cold) {
        // No faults and coalescing on: each key profiles exactly once.
        for (std::size_t j = 0; j < keyProfiled.size(); ++j)
            if (keyProfiled[j] != 1)
                checks_.expect(false,
                               "serve-cold: key " + sigs_[schedule_[j]]
                                   + " step " + std::to_string(j)
                                   + " profiled "
                                   + std::to_string(keyProfiled[j])
                                   + " times in one round");
    }

    const CounterSnapshot after(svc_->metrics());
    leadersPerRound_.push_back(after.leaders - before.leaders);
    followersPerRound_.push_back(after.followers - before.followers);
    hitsPerRound_.push_back(after.hits - before.hits);
    const double launches = after.batchLaunches - before.batchLaunches;
    batchJobsPerLaunch_.push_back(
        launches > 0 ? (after.batchJobs - before.batchJobs) / launches : 0.0);
    profiledRatio_.push_back(
        totalUnits ? static_cast<double>(profiledUnits)
                         / static_cast<double>(totalUnits)
                   : 0.0);
    profiledLaunches_.push_back(static_cast<double>(profiledJobs));
    return res;
}

void
ServeBench::finish()
{
    const char *name = kind_ == Kind::Cold ? "serve-cold" : "serve-warm-burst";
    svc_->drain();
    std::uint64_t completed = 0, profiled = 0, coalesced = 0, warm = 0,
                  batched = 0;
    for (const auto &s : subs_) {
        completed += s->completed;
        profiled += s->profiled;
        coalesced += s->coalesced;
        warm += s->warm;
        batched += s->batched;
    }
    const auto &m = svc_->metrics();
    auto same = [&](std::uint64_t tally, const char *counter) {
        const std::uint64_t value = m.counterValue(counter);
        checks_.expect(tally == value,
                       std::string(name) + ": benchmark tally "
                           + std::to_string(tally) + " != service counter "
                           + counter + " = " + std::to_string(value));
    };
    same(profiled, "coalesce.leader");
    same(coalesced, "coalesce.follower");
    same(warm, "store.hit");
    same(batched, "batch.jobs");
    same(submitted_, "jobs.submitted");
    same(submitted_, "jobs.completed");
    checks_.expect(completed == submitted_,
                   std::string(name) + ": " + std::to_string(completed)
                       + " jobs completed of "
                       + std::to_string(submitted_) + " submitted");
    // The store stays readable for the layer probes; the workers go.
    svc_->stop();
}

std::vector<const SpanLog *>
ServeBench::logs() const
{
    std::vector<const SpanLog *> out;
    for (const auto &s : subs_)
        out.push_back(&s->log);
    return out;
}

void
ServeBench::layerMetrics(std::vector<Metric> &out) const
{
    std::vector<double> submit, wait;
    for (const auto &s : subs_) {
        const auto sd = s->log.durationsNs("submitMany");
        submit.insert(submit.end(), sd.begin(), sd.end());
        const auto wd = s->log.durationsNs("result");
        wait.insert(wait.end(), wd.begin(), wd.end());
    }
    const double submitUsPerJob =
        wait.empty() ? 0.0
                     : std::accumulate(submit.begin(), submit.end(), 0.0)
                           * 1e-3 / static_cast<double>(wait.size());
    const double waitUsP50 = median(wait) * 1e-3;
    if (kind_ == Kind::Cold) {
        out.push_back({"serve.cold_submit_us_per_job", submitUsPerJob, "us"});
        out.push_back({"serve.cold_result_wait_us_p50", waitUsP50, "us"});
        out.push_back(
            {"serve.coalesce_leaders", median(leadersPerRound_), "count"});
        out.push_back({"serve.coalesce_followers",
                       median(followersPerRound_), "count"});
        out.push_back({"serve.store_hits", median(hitsPerRound_), "count"});
        out.push_back({"dysel.profiled_unit_ratio", median(profiledRatio_),
                       "ratio"});
        out.push_back({"dysel.profiled_launches",
                       median(profiledLaunches_), "count"});
    } else {
        out.push_back({"serve.submit_us_per_job", submitUsPerJob, "us"});
        out.push_back({"serve.result_wait_us_p50", waitUsP50, "us"});
        out.push_back({"serve.batch_jobs_per_launch",
                       median(batchJobsPerLaunch_), "jobs"});
    }
}

} // namespace perfbench
