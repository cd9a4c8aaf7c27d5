#include "spans.hh"

#include <chrono>
#include <fstream>

#include "common/error.hh"
#include "common/json.hh"

namespace perfbench
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

int
SpanLog::open(const std::string &name, int parent, int thread)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.thread = thread;
    s.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::close(int id)
{
    if (id < 0)
        return;
    std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    Span &s = spans_.at(static_cast<std::size_t>(id));
    s.endNs = t;
    s.busyNs = t - s.startNs;
}

int
SpanLog::fold(const std::string &name, int parent, std::int64_t startNs,
              std::int64_t endNs, std::uint64_t calls,
              std::int64_t busyNs)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.startNs = startNs;
    s.endNs = endNs;
    s.calls = calls;
    s.busyNs = busyNs;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double>
SpanLog::durationsMs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-6);
    }
    return out;
}

void
SpanLog::write(const std::string &path) const
{
    std::vector<Span> all = spans();
    std::int64_t t0 = all.empty() ? 0 : all.front().startNs;
    for (const Span &s : all)
        t0 = std::min(t0, s.startNs);
    afcsim::JsonValue events = afcsim::JsonValue::array();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        afcsim::JsonValue e = afcsim::JsonValue::object();
        e.set("name", s.name);
        e.set("ph", "X");
        e.set("pid", 1);
        e.set("tid", s.thread);
        e.set("ts", static_cast<double>(s.startNs - t0) * 1e-3);
        e.set("dur", static_cast<double>(s.endNs - s.startNs) * 1e-3);
        afcsim::JsonValue args = afcsim::JsonValue::object();
        args.set("id", static_cast<std::int64_t>(i));
        args.set("parent", s.parent);
        args.set("calls", s.calls);
        args.set("busy_us", static_cast<double>(s.busyNs) * 1e-3);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    afcsim::JsonValue doc = afcsim::JsonValue::object();
    doc.set("traceEvents", std::move(events));
    std::ofstream out(path);
    out << doc.dump() << "\n";
    if (!out)
        AFCSIM_CONFIG_ERROR("cannot write span log '", path, "'");
}

} // namespace perfbench
