/**
 * @file
 * perfbench: run one workload for a fixed time in whole rounds and
 * print its metrics as one JSON object on the last line of stdout.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--out-dir DIR] [--corrupt paper|serve]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 records spans,
 * runs one traced round of the other workloads and the layer probes,
 * prints the per-layer metrics and writes spans and metrics under
 * DIR.  Exit status 1 when any output, property, or cross-path check
 * failed; 2 on a usage error.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "bench.hh"

namespace perfbench {
namespace {

const char *const workloadNames[] = {"paper-select", "serve-cold",
                                     "serve-warm-burst"};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper-select|serve-cold|serve-warm-burst --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] "
                 "[--corrupt paper|serve]\n",
                 why);
    return 2;
}

bool
parse(int argc, char **argv, Options &opt)
{
    bool known = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val, &end);
        } else if (key == "--trace") {
            opt.trace = std::strcmp(val, "1") == 0;
        } else if (key == "--out-dir") {
            opt.outDir = val;
        } else if (key == "--corrupt") {
            opt.corrupt = val;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    for (const char *n : workloadNames)
        known = known || opt.workload == n;
    return known && argc % 2 == 1 && opt.seconds > 0.0;
}

/**
 * The workloads of one run.  A traced run holds all three: the probes
 * read the paper-select kernels, the cold job sizes and the warmed
 * store.
 */
struct Suite
{
    std::unique_ptr<PaperSelect> paper;
    std::unique_ptr<ServeBench> cold, warm;

    Bench &
    make(const std::string &name, const Options &opt, Checks &checks)
    {
        if (name == "paper-select") {
            paper = std::make_unique<PaperSelect>(opt, checks);
            return *paper;
        }
        auto &slot = name == "serve-cold" ? cold : warm;
        slot = std::make_unique<ServeBench>(
            name == "serve-cold" ? ServeBench::Kind::Cold
                                 : ServeBench::Kind::WarmBurst,
            opt, checks);
        return *slot;
    }

    const Bench &
    get(const std::string &name) const
    {
        if (name == "paper-select")
            return *paper;
        return name == "serve-cold" ? *cold : *warm;
    }
};

/** Rounds of @p bench until @p seconds have passed (at least one). */
std::vector<RoundResult>
runRounds(Bench &bench, double secs, bool traced)
{
    std::vector<RoundResult> rounds;
    const auto start = Clock::now();
    do {
        rounds.push_back(bench.round(traced));
    } while (seconds(start, Clock::now()) < secs);
    bench.finish();
    return rounds;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** All spans of the run as tab-separated lines, one per span. */
void
writeSpans(const std::string &path, const Suite &suite)
{
    std::ofstream f(path);
    f << "workload\tthread\tid\tname\tstart_ns\tend_ns\tparent\tjob\n";
    for (const char *name : workloadNames)
        for (const SpanLog *log : suite.get(name).logs()) {
            const auto &spans = log->spans();
            for (std::size_t i = 0; i < spans.size(); ++i) {
                const Span &s = spans[i];
                f << name << '\t' << log->thread() << '\t' << i << '\t'
                  << s.name << '\t' << s.startNs << '\t' << s.endNs << '\t'
                  << s.parent << '\t' << s.job << '\n';
            }
        }
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": "
             + jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}";
}

int
run(const Options &opt)
{
    Checks checks;
    Suite suite;
    Bench &timed = suite.make(opt.workload, opt, checks);
    const double setupS = seconds(processStart(), Clock::now());
    const std::vector<RoundResult> rounds =
        runRounds(timed, opt.seconds, opt.trace);

    std::vector<double> wall, virt;
    std::uint64_t attempted = 0, failed = 0;
    for (const RoundResult &r : rounds) {
        wall.push_back(r.wallS);
        virt.push_back(r.virtualNs);
        attempted += r.attempted;
        failed += r.failed;
    }

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", setupS, "s"},
            {"run_s", median(wall), "s"},
            {"job_p50_ms", timed.jobLatencyMs(0.50), "ms"},
            {"job_p99_ms", timed.jobLatencyMs(0.99), "ms"},
            {"virtual_ms", median(virt) * 1e-6, "ms"},
            {"peak_rss_mib", peakRssMib(), "MiB"},
        };
    } else {
        // The traced timed phase gives the tracing overhead (against
        // the untraced run's run_s); one traced round of each other
        // workload covers the layers this one does not reach.
        metrics.push_back({"trace.run_s", median(wall), "s"});
        metrics.push_back(
            {"trace.rounds", static_cast<double>(rounds.size()), "count"});
        std::size_t spans = 0;
        for (const char *name : workloadNames) {
            if (opt.workload != name)
                runRounds(suite.make(name, opt, checks), 0.0, true);
            const Bench &bench = suite.get(name);
            bench.layerMetrics(metrics);
            for (const SpanLog *log : bench.logs())
                spans += log->spans().size();
        }
        metrics.push_back(
            {"trace.spans", static_cast<double>(spans), "count"});
        runProbes(opt, *suite.paper, *suite.cold, *suite.warm, checks,
                  metrics);

        std::filesystem::create_directories(opt.outDir);
        const std::string stem = opt.outDir + "/" + opt.workload + "-seed"
                                 + std::to_string(opt.seed);
        writeSpans(stem + ".spans.tsv", suite);
        std::ofstream(stem + ".layers.json") << metricsJson(metrics) << "\n";
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checks.ok() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metricsJson(metrics).c_str());
    std::fflush(stdout);
    return checks.ok() ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    if (!perfbench::parse(argc, argv, opt))
        return perfbench::usage("bad arguments");
    try {
        return perfbench::run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
