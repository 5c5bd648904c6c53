/**
 * @file
 * paper-select: the per-kernel experiment of the figure suite on a
 * fixed kernel set that covers both simulated devices, CPU schedule
 * variants, an input-dependent kernel and GPU placement/tiling.
 */
#include <cmath>
#include <string>

#include "workloads/evaluate.hh"
#include "workloads/particlefilter.hh"
#include "workloads/sgemm.hh"
#include "workloads/spmv_csr.hh"

#include "bench.hh"

namespace perfbench {

namespace wl = dysel::workloads;
namespace rt = dysel::runtime;

void
checkProductiveBound(const rt::LaunchReport &r, const std::string &what,
                     Checks &checks)
{
    if (!r.profiled)
        return;
    checks.expect(static_cast<double>(r.productiveUnits)
                      <= rt::RuntimeConfig().maxProfileFraction
                             * static_cast<double>(r.totalUnits),
                  what + ": productive units "
                      + std::to_string(r.productiveUnits)
                      + " exceed the profiling cap of "
                      + std::to_string(r.totalUnits) + " units");
}

namespace {

/** C = A * B on the host, from the workload's own input buffers. */
std::vector<double>
sgemmReference(const wl::Workload &w, unsigned m, unsigned n, unsigned k)
{
    const float *a = w.args.buf<float>(0).host();
    const float *b = w.args.buf<float>(1).host();
    std::vector<double> c(std::size_t{m} * n, 0.0);
    for (unsigned row = 0; row < m; ++row)
        for (unsigned kk = 0; kk < k; ++kk) {
            const double av = a[std::size_t{row} * k + kk];
            for (unsigned col = 0; col < n; ++col)
                c[std::size_t{row} * n + col] +=
                    av * b[std::size_t{kk} * n + col];
        }
    return c;
}

/** y = A x by CSR rows, from the workload's own input buffers. */
std::vector<double>
spmvReference(const wl::Workload &w)
{
    const auto &rowPtr = w.args.buf<std::uint32_t>(0);
    const std::uint32_t *col = w.args.buf<std::uint32_t>(1).host();
    const float *val = w.args.buf<float>(2).host();
    const float *x = w.args.buf<float>(3).host();
    std::vector<double> y(rowPtr.size() - 1, 0.0);
    for (std::size_t r = 0; r + 1 < rowPtr.size(); ++r)
        for (std::uint32_t j = rowPtr.host()[r]; j < rowPtr.host()[r + 1];
             ++j)
            y[r] += static_cast<double>(val[j]) * x[col[j]];
    return y;
}

/** Particle likelihoods, from the workload's own input buffers. */
std::vector<double>
particleReference(const wl::Workload &w)
{
    constexpr unsigned templ = 16, fx = 64, fy = 64, fz = 8;
    const auto &ax = w.args.buf<float>(0);
    const float *ay = w.args.buf<float>(1).host();
    const std::int32_t *objxy = w.args.buf<std::int32_t>(2).host();
    const float *frame = w.args.buf<float>(3).host();
    std::vector<double> lik(ax.size(), 0.0);
    for (std::size_t p = 0; p < ax.size(); ++p) {
        double sum = 0.0;
        for (unsigned t = 0; t < templ; ++t) {
            const auto ix = static_cast<unsigned>(
                (static_cast<std::int64_t>(ax.host()[p]) + objxy[2 * t])
                % fx);
            const auto iy = static_cast<unsigned>(
                (static_cast<std::int64_t>(ay[p]) + objxy[2 * t + 1])
                % fy);
            const double v =
                frame[(std::size_t{p % fz} * fy + iy) * fx + ix];
            sum += (v * v - 100.0) / 50.0;
        }
        lik[p] = sum / templ;
    }
    return lik;
}

/** Per-root totals: for every root span named @p root, the summed
 *  duration (s) of the spans named @p name below it. */
std::vector<double>
perRootSeconds(const SpanLog &log, const char *root, const char *name)
{
    const auto &spans = log.spans();
    std::vector<double> totals;
    std::vector<std::int32_t> slot(spans.size(), -1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.parent < 0) {
            if (std::string(s.name) == root) {
                slot[i] = static_cast<std::int32_t>(totals.size());
                totals.push_back(0.0);
            }
            continue;
        }
        // Parents precede children, so the root's slot is known.
        slot[i] = slot[static_cast<std::size_t>(s.parent)];
        if (slot[i] >= 0 && std::string(s.name) == name)
            totals[static_cast<std::size_t>(slot[i])] +=
                static_cast<double>(s.endNs - s.startNs) * 1e-9;
    }
    return totals;
}

} // namespace

PaperSelect::PaperSelect(const Options &opt, Checks &checks)
    : checks_(checks), corrupt_(opt.corrupt == "paper")
{
    useOneCpu(true); // single-threaded: no migrations either
    // The seed picks sgemm's inner dimension: a different input of the
    // same shape, so both wall and virtual time vary a little by seed.
    const unsigned k = 124 + static_cast<unsigned>(opt.seed % 9);
    auto add = [this](std::string label, wl::Workload w,
                      wl::DeviceFactory f, bool gpu, std::size_t out,
                      std::vector<double> ref) {
        Case c;
        c.label = std::move(label);
        c.w = std::move(w);
        c.factory = std::move(f);
        c.gpu = gpu;
        c.outArg = out;
        c.reference = std::move(ref);
        cases_.push_back(std::move(c));
    };

    // CPU schedule variants (Fig. 8): the six loop orders of sgemm.
    wl::Workload lc = wl::makeSgemmLcCpu(128, 128, k);
    auto lcRef = sgemmReference(lc, 128, 128, k);
    add("sgemm-lc-cpu", std::move(lc), wl::cpuFactory(), false, 2,
        std::move(lcRef));
    // Input-dependent kernel: spmv-csr on the diagonal matrix, where
    // the LC baseline mispredicts (Fig. 8).
    wl::Workload spmv = wl::makeSpmvCsrCpuLc(wl::SpmvInput::Diagonal);
    auto spmvRef = spmvReference(spmv);
    add("spmv-csr-lc-cpu-diagonal", std::move(spmv), wl::cpuFactory(),
        false, 4, std::move(spmvRef));
    // GPU data placement (Fig. 9).
    wl::Workload pf = wl::makeParticleFilterGpu();
    auto pfRef = particleReference(pf);
    add("particlefilter-gpu", std::move(pf), wl::gpuFactory(), true, 4,
        std::move(pfRef));
    // GPU scratchpad tiling + thread coarsening (Fig. 10b).
    wl::Workload mixed = wl::makeSgemmMixed(128, 128, 128);
    auto mixedRef = sgemmReference(mixed, 128, 128, 128);
    add("sgemm-mixed-gpu", std::move(mixed), wl::gpuFactory(), true, 2,
        std::move(mixedRef));
}

bool
PaperSelect::matchesReference(const Case &c) const
{
    const auto &out = c.w.args.buf<float>(c.outArg);
    if (out.size() != c.reference.size())
        return false;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const double want = c.reference[i];
        const double got = out.host()[i];
        if (!(std::fabs(got - want)
              <= c.absTol + c.relTol * std::fabs(want)))
            return false;
    }
    return true;
}

void
PaperSelect::checkCall(Case &c, bool harnessOk, const char *what)
{
    const std::string tag = c.label + " " + what;
    checks_.expect(harnessOk, tag + ": Workload::check rejected the output");
    checks_.expect(matchesReference(c),
                   tag + ": output differs from the host reference");
}

RoundResult
PaperSelect::round(bool traced)
{
    SpanLog *log = traced ? &log_ : nullptr;
    RoundResult res;
    std::vector<double> virt;
    const auto start = Clock::now();
    {
        ScopedSpan roundSpan(log, "round");
        std::uint64_t call = 0;
        auto timed = [&](auto &&fn) {
            const auto a = Clock::now();
            auto r = fn();
            if (callMs_.size() <= call)
                callMs_.resize(call + 1);
            callMs_[call].push_back(seconds(a, Clock::now()) * 1e3);
            ++res.attempted;
            ++call;
            return r;
        };
        for (Case &c : cases_) {
            ScopedSpan kernelSpan(log, "kernel");
            for (std::size_t v = 0; v < c.w.variants.size(); ++v) {
                const wl::VariantRun run = timed([&] {
                    ScopedSpan s(log, "runSingleVariant", call + 1);
                    return wl::runSingleVariant(c.factory, c.w, v);
                });
                if (corrupt_ && !haveFirstRound_ && virt.empty())
                    c.w.args.buf<float>(c.outArg).host()[0] += 1.0f;
                checkCall(c, run.ok, run.name.c_str());
                virt.push_back(static_cast<double>(run.elapsed));
            }
            for (rt::Orchestration orch :
                 {rt::Orchestration::Sync, rt::Orchestration::Async}) {
                rt::LaunchOptions o;
                o.orch = orch;
                const wl::DyselRun run = timed([&] {
                    ScopedSpan s(log, "runDysel", call + 1);
                    return wl::runDysel(c.factory, c.w, o);
                });
                const std::string what =
                    std::string("dysel-") + rt::orchestrationName(orch);
                checkCall(c, run.ok, what.c_str());
                checkProductiveBound(run.firstIteration,
                                     c.label + " " + what, checks_);
                checks_.expect(run.firstIteration.profiled,
                               c.label + " " + what
                                   + ": the first launch did not profile");
                virt.push_back(static_cast<double>(run.elapsed));
                if (traced) {
                    profiledUnits_ += run.firstIteration.profiledUnits;
                    launchedUnits_ += run.firstIteration.totalUnits;
                }
            }
        }
    }
    res.wallS = seconds(start, Clock::now());

    // The simulator is deterministic: every round must reproduce the
    // first round's virtual time of every call bit for bit.
    if (!haveFirstRound_) {
        firstRoundVirtual_ = virt;
        haveFirstRound_ = true;
    } else {
        checks_.expect(virt == firstRoundVirtual_,
                       "paper-select: virtual time differs between rounds");
    }
    for (double v : virt)
        res.virtualNs += v;
    return res;
}

double
PaperSelect::jobLatencyMs(double p) const
{
    std::vector<double> perCall;
    for (const auto &samples : callMs_)
        perCall.push_back(median(samples));
    return percentile(perCall, p);
}

void
PaperSelect::layerMetrics(std::vector<Metric> &out) const
{
    out.push_back({"workloads.oracle_s",
                   median(perRootSeconds(log_, "round",
                                         "runSingleVariant")),
                   "s"});
    out.push_back({"workloads.dysel_s",
                   median(perRootSeconds(log_, "round", "runDysel")), "s"});
    out.push_back({"dysel.paper_profiled_unit_ratio",
                   launchedUnits_ ? static_cast<double>(profiledUnits_)
                                        / static_cast<double>(launchedUnits_)
                                  : 0.0,
                   "ratio"});
}

} // namespace perfbench
