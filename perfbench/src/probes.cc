/**
 * @file
 * Layer probes of the traced run.  Each probe times calls into one
 * layer's public functions from outside, on the workloads' own
 * inputs: trace capture (kdp), the cache model, the CPU/GPU cost
 * replay and the event engine (sim), Runtime::launch / launchFused
 * and the selection store (dysel).
 */
#include "kdp/context.hh"
#include "kdp/trace.hh"
#include "sim/cache/cache.hh"
#include "sim/cpu/cpu_cost_model.hh"
#include "sim/cpu/cpu_device.hh"
#include "sim/event_engine.hh"
#include "sim/gpu/gpu_cost_model.hh"
#include "sim/gpu/gpu_device.hh"
#include "support/rng.hh"

#include "bench.hh"

namespace perfbench {

namespace rt = dysel::runtime;
namespace sim = dysel::sim;
using dysel::kdp::WorkGroupTrace;

namespace {

/** Timed passes per probe; the median pass is reported. */
constexpr unsigned passes = 5;
/** Work-groups sampled per paper-select kernel variant. */
constexpr unsigned groupsPerVariant = 6;

/** One recorded work-group with what its cost model needs. */
struct Sample
{
    WorkGroupTrace trace;
    dysel::kdp::VariantTraits traits;
    std::uint32_t groupSize = 0;
    bool gpu = false;
};

/** Median wall ns of @p passes runs of @p fn. */
template <typename Fn>
double
medianPassNs(Fn &&fn)
{
    std::vector<double> ns;
    for (unsigned p = 0; p < passes; ++p) {
        const std::int64_t t0 = nowNs();
        fn();
        ns.push_back(static_cast<double>(nowNs() - t0));
    }
    return median(ns);
}

/**
 * Run the sampled work-groups of every paper-select variant through
 * the variant body into a trace; keeps one copy of each trace.
 */
std::vector<Sample>
recordSamples(PaperSelect &paper, double &nsPerAccess)
{
    std::vector<Sample> samples;
    WorkGroupTrace scratch;
    std::uint64_t accesses = 0;
    auto runAll = [&](bool keep) {
        for (PaperSelect::Case &c : paper.cases())
            for (const auto &v : c.w.variants) {
                const std::uint64_t groups = v.groupsFor(c.w.units);
                for (unsigned i = 0; i < groupsPerVariant; ++i) {
                    const std::uint64_t gid = i * groups / groupsPerVariant;
                    scratch.reset(v.groupSize);
                    dysel::kdp::GroupCtx ctx(gid, v.groupSize, v.waFactor,
                                             &scratch);
                    v.fn(ctx, c.w.args);
                    if (keep) {
                        samples.push_back(
                            {scratch, v.traits, v.groupSize, c.gpu});
                        accesses += scratch.accesses.size();
                    }
                }
            }
    };
    runAll(true);
    nsPerAccess = medianPassNs([&] { runAll(false); })
                  / static_cast<double>(accesses);
    return samples;
}

} // namespace

void
runProbes(const Options &opt, PaperSelect &paper, ServeBench &cold,
          ServeBench &warm, Checks &checks, std::vector<Metric> &out)
{
    // ---- kdp: trace capture ------------------------------------------
    double recordNs = 0.0;
    const std::vector<Sample> samples = recordSamples(paper, recordNs);
    std::uint64_t accesses = 0, cpuGroups = 0, gpuGroups = 0;
    for (const Sample &s : samples) {
        accesses += s.trace.accesses.size();
        (s.gpu ? gpuGroups : cpuGroups)++;
    }
    out.push_back({"kdp.record_ns_per_access", recordNs, "ns"});
    out.push_back({"kdp.accesses", static_cast<double>(accesses), "count"});

    // ---- sim: cache model --------------------------------------------
    const sim::CpuConfig cpu;
    const sim::GpuConfig gpu;
    std::uint64_t lookups = 0, misses = 0;
    auto replayCaches = [&] {
        sim::Cache l1(cpu.l1), l2(cpu.l2), l3(cpu.l3), gl2(gpu.l2);
        for (const Sample &s : samples)
            for (const auto &a : s.trace.accesses) {
                if (s.gpu)
                    gl2.access(a.addr);
                else if (!l1.access(a.addr) && !l2.access(a.addr))
                    l3.access(a.addr);
            }
        lookups = l1.accesses() + l2.accesses() + l3.accesses()
                  + gl2.accesses();
        misses = l1.misses() + l2.misses() + l3.misses() + gl2.misses();
    };
    const double cacheNs = medianPassNs(replayCaches);
    out.push_back({"sim.cache_ns_per_access",
                   cacheNs / static_cast<double>(lookups), "ns"});
    out.push_back({"sim.cache_miss_ratio",
                   static_cast<double>(misses) / static_cast<double>(lookups),
                   "ratio"});

    // ---- sim: CPU / GPU cost replay ----------------------------------
    double cycles = 0.0;
    const double cpuNs = medianPassNs([&] {
        sim::CpuCoreState core(cpu.l1, cpu.l2);
        sim::Cache l3(cpu.l3);
        for (const Sample &s : samples)
            if (!s.gpu)
                cycles += sim::cpuWorkGroupCycles(s.trace, s.traits, core,
                                                  l3, cpu.cost);
    });
    const double gpuNs = medianPassNs([&] {
        sim::GpuSmState sm(gpu.tex);
        sim::Cache l2(gpu.l2);
        for (const Sample &s : samples)
            if (s.gpu)
                cycles += sim::gpuWorkGroupCost(s.trace, s.traits,
                                                s.groupSize, sm, l2, gpu.cost)
                              .throughputCycles;
    });
    checks.expect(cycles > 0.0, "probe: cost replay charged no cycles");
    out.push_back({"sim.cpu_replay_us_per_group",
                   cpuNs * 1e-3 / static_cast<double>(cpuGroups), "us"});
    out.push_back({"sim.gpu_replay_us_per_group",
                   gpuNs * 1e-3 / static_cast<double>(gpuGroups), "us"});

    // ---- sim: event engine -------------------------------------------
    constexpr std::uint64_t events = 200000;
    std::uint64_t fired = 0;
    const double eventNs = medianPassNs([&] {
        sim::EventEngine engine;
        dysel::support::Rng rng(opt.seed);
        for (std::uint64_t i = 0; i < events; ++i)
            engine.schedule(rng.nextBelow(1'000'000'000), [&fired] {
                ++fired;
            });
        engine.run();
    });
    checks.expect(fired == passes * events,
                  "probe: event engine dropped events");
    out.push_back({"sim.event_ns_per_event",
                   eventNs / static_cast<double>(events), "ns"});

    // ---- dysel: Runtime::launch and launchFused ----------------------
    // A runtime configured like the service's, on the service's pool.
    const std::vector<std::string> sigs = {"probe"};
    sim::CpuDevice dev;
    rt::Runtime runtime(dev, serviceConfig(cold.shape()).runtime);
    installPool(runtime, sigs);
    constexpr std::size_t members = 16;
    std::vector<std::unique_ptr<dysel::kdp::Buffer<std::int32_t>>> bufs;
    std::vector<dysel::kdp::KernelArgs> args(members);
    for (std::size_t m = 0; m < members; ++m)
        bufs.push_back(std::make_unique<dysel::kdp::Buffer<std::int32_t>>(
            cold.capacity(), dysel::kdp::MemSpace::Global, "probe.out"));
    auto argsFor = [&](std::size_t m, std::uint64_t units) {
        args[m].clear();
        args[m].add(*bufs[m]).add(static_cast<std::int64_t>(units))
            .add(static_cast<std::int64_t>(m + 1));
        return std::cref(args[m]);
    };
    auto outputOk = [&](std::size_t m, std::uint64_t units) {
        for (std::uint64_t u = 0; u < units; ++u)
            if (bufs[m]->host()[u] != expectedValue(u, m + 1))
                return false;
        return true;
    };

    const auto &coldSizes = cold.sizes();
    const auto &warmSizes = warm.sizes();
    rt::LaunchOptions profiled;
    profiled.profileRepeats = cold.shape().profileRepeats;
    constexpr unsigned profiledLaunches = 24;
    bool allOk = true;
    const double profiledNs = medianPassNs([&] {
        for (unsigned i = 0; i < profiledLaunches; ++i) {
            const std::uint64_t units = coldSizes[i % coldSizes.size()];
            rt::LaunchReport report;
            const auto st =
                runtime.launch("probe", units, argsFor(0, units), profiled,
                               report);
            allOk = allOk && st.ok() && report.profiled
                    && report.selected == fastVariant && outputOk(0, units);
        }
    });
    checks.expect(allOk, "probe: profiled launch failed or picked a decoy");
    out.push_back({"dysel.launch_profiled_ms",
                   profiledNs * 1e-6 / profiledLaunches, "ms"});

    runtime.tryImportSelection("probe", fastVariant).throwIfError();
    rt::LaunchOptions plain;
    plain.profiling = false;
    constexpr unsigned warmLaunches = 2000;
    const double warmNs = medianPassNs([&] {
        for (unsigned i = 0; i < warmLaunches; ++i) {
            const std::uint64_t units = warmSizes[i % warmSizes.size()];
            rt::LaunchReport report;
            allOk = allOk
                    && runtime.launch("probe", units, argsFor(0, units), plain,
                                      report)
                           .ok()
                    && report.fromCache && !report.profiled;
        }
    });
    allOk = allOk && outputOk(0, warmSizes[(warmLaunches - 1)
                                           % warmSizes.size()]);
    checks.expect(allOk, "probe: warm launch failed");
    out.push_back(
        {"dysel.launch_warm_us", warmNs * 1e-3 / warmLaunches, "us"});

    std::vector<rt::FusedSlice> slices(members);
    for (std::size_t m = 0; m < members; ++m) {
        const std::uint64_t units = warmSizes[m % warmSizes.size()];
        slices[m] = {&argsFor(m, units).get(), units, m + 1};
    }
    constexpr unsigned fusedLaunches = 200;
    const double fusedNs = medianPassNs([&] {
        for (unsigned i = 0; i < fusedLaunches; ++i) {
            rt::LaunchReport report;
            allOk = allOk
                    && runtime.launchFused("probe", fastVariant, slices,
                                           plain, report)
                           .ok();
        }
    });
    for (std::size_t m = 0; m < members; ++m)
        allOk = allOk && outputOk(m, slices[m].units);
    checks.expect(allOk, "probe: fused launch failed or mixed outputs");
    out.push_back({"dysel.fused_us_per_member",
                   fusedNs * 1e-3 / (fusedLaunches * members), "us"});

    // ---- dysel: selection store lookup -------------------------------
    constexpr unsigned lookupLoops = 2000;
    std::uint64_t found = 0;
    const double lookupNs = medianPassNs([&] {
        for (unsigned i = 0; i < lookupLoops; ++i)
            for (const std::string &sig : warm.signatures())
                found += warm.store()
                             .peek(sig, warm.fingerprint(),
                                   warmSizes[i % warmSizes.size()])
                             .has_value();
    });
    const std::uint64_t lookups2 =
        std::uint64_t{lookupLoops} * warm.signatures().size();
    checks.expect(found == passes * lookups2,
                  "probe: warm store lookups missed");
    out.push_back({"dysel.store.lookup_ns",
                   lookupNs / static_cast<double>(lookups2), "ns"});
}

} // namespace perfbench
