#include "common.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

const Clock::time_point startPoint = Clock::now();

/** Failures printed to stderr before the ledger only counts. */
constexpr std::uint64_t maxPrinted = 20;

/** Latency histogram range and resolution: 100 ns .. 1000 s. */
constexpr double histMinMs = 1e-4;
constexpr double histGrowth = 1.002;
const double histLogGrowth = std::log(histGrowth);
const std::size_t histBuckets =
    static_cast<std::size_t>(std::log(1e6 / histMinMs) / histLogGrowth) + 2;

} // namespace

Clock::time_point
processStart()
{
    return startPoint;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - startPoint)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
peakRssMib()
{
    rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
useOneCpu(bool one)
{
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0)
            CPU_ZERO(&set);
        return set;
    }();
    if (CPU_COUNT(&allowed) == 0)
        return;
    cpu_set_t set = allowed;
    if (one) {
        int last = 0;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed))
                last = cpu;
        CPU_ZERO(&set);
        CPU_SET(last, &set);
    }
    if (sched_setaffinity(0, sizeof(set), &set) != 0)
        std::fprintf(stderr, "perfbench: sched_setaffinity failed\n");
}

LatencyHistogram::LatencyHistogram() : counts_(histBuckets, 0) {}

void
LatencyHistogram::add(double ms)
{
    const double pos =
        ms > histMinMs ? std::log(ms / histMinMs) / histLogGrowth + 1 : 0;
    counts_[std::min(static_cast<std::size_t>(pos), histBuckets - 1)]++;
    ++total_;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (std::size_t i = 0; i < histBuckets; ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
}

void
LatencyHistogram::clear()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
}

double
LatencyHistogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(total_)));
    rank = std::clamp<std::uint64_t>(rank, 1, total_);
    std::uint64_t seen = 0;
    std::size_t i = 0;
    for (; i < histBuckets; ++i) {
        seen += counts_[i];
        if (seen >= rank)
            break;
    }
    // Bucket i >= 1 holds [min * g^(i-1), min * g^i).
    return i == 0 ? histMinMs
                  : histMinMs * std::exp((static_cast<double>(i) - 0.5)
                                         * histLogGrowth);
}

std::int32_t
SpanLog::open(const char *name, std::uint64_t job)
{
    Span s;
    s.name = name;
    s.startNs = nowNs();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job;
    spans_.push_back(s);
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
}

void
SpanLog::close(std::int32_t idx)
{
    spans_[static_cast<std::size_t>(idx)].endNs = nowNs();
    stack_.pop_back();
}

void
SpanLog::add(const char *name, std::int64_t start, std::int64_t end,
             std::uint64_t job)
{
    Span s;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job;
    spans_.push_back(s);
}

std::vector<double>
SpanLog::durationsNs(const char *name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0)
            out.push_back(static_cast<double>(s.endNs - s.startNs));
    return out;
}

bool
Checks::expect(bool ok, const std::string &what)
{
    if (ok)
        return true;
    std::lock_guard<std::mutex> lock(printMu_);
    if (failures_.fetch_add(1) < maxPrinted)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    return false;
}

} // namespace perfbench
