#include "obs/trace.hpp"

#include <algorithm>
#include <map>

#include "obs/profiler.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace lookhd::obs {

namespace {

std::atomic<bool> gEnabled{true};

/** Innermost open span of the calling thread. */
thread_local TraceSpan *tCurrent = nullptr;

/** Every registered site. Deliberately leaked: sites are statics
 * whose destruction order is unknown. */
struct SiteRegistry
{
    util::Mutex mutex;
    std::vector<SpanSite *> sites LOOKHD_GUARDED_BY(mutex);
};

SiteRegistry &
registry()
{
    static auto *r = new SiteRegistry;
    return *r;
}

} // namespace

SpanSite::SpanSite(const char *name, const char *category)
    : name_(name), category_(category)
{
    auto &reg = registry();
    const util::MutexLock lock(reg.mutex);
    reg.sites.push_back(this);
}

void
SpanSite::reset()
{
    count_.store(0, std::memory_order_relaxed);
    totalNs_.store(0, std::memory_order_relaxed);
    selfNs_.store(0, std::memory_order_relaxed);
}

std::vector<SpanStats>
spanRollup()
{
    auto &reg = registry();
    std::vector<SpanSite *> sites;
    {
        const util::MutexLock lock(reg.mutex);
        sites = reg.sites;
    }
    // Merge by name: several code sites may legitimately report under
    // one logical span (e.g. the two BaselineEncoder::encode paths).
    std::map<std::string, SpanStats> merged;
    for (const SpanSite *site : sites) {
        const std::uint64_t n = site->count();
        if (n == 0)
            continue;
        SpanStats &s = merged[site->name()];
        if (s.name.empty()) {
            s.name = site->name();
            s.category = site->category();
        }
        s.count += n;
        s.totalNs += site->totalNs();
        s.selfNs += site->selfNs();
    }
    std::vector<SpanStats> out;
    out.reserve(merged.size());
    for (auto &[name, stats] : merged)
        out.push_back(std::move(stats));
    std::sort(out.begin(), out.end(),
              [](const SpanStats &a, const SpanStats &b) {
                  return a.totalNs > b.totalNs;
              });
    return out;
}

std::uint64_t
totalNsOf(const std::vector<SpanStats> &rollup, const std::string &name)
{
    for (const SpanStats &s : rollup) {
        if (s.name == name)
            return s.totalNs;
    }
    return 0;
}

void
resetSpans()
{
    auto &reg = registry();
    const util::MutexLock lock(reg.mutex);
    for (SpanSite *site : reg.sites)
        site->reset();
}

void
setEnabled(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

TraceSpan::TraceSpan(SpanSite &site)
{
    if (!enabled()) {
        site_ = nullptr;
        return;
    }
    site_ = &site;
    parent_ = tCurrent;
    tCurrent = this;
    profilerPublishSite(site_);
    startNs_ = util::Timer::processNanoseconds();
}

TraceSpan::~TraceSpan()
{
    if (!site_)
        return;
    const std::uint64_t dur =
        util::Timer::processNanoseconds() - startNs_;
    site_->accumulate(dur, dur - std::min(childNs_, dur));
    if (parent_)
        parent_->childNs_ += dur;
    tCurrent = parent_;
    profilerPublishSite(parent_ ? parent_->site_ : nullptr);
}

} // namespace lookhd::obs
