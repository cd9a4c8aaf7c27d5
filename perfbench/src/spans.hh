/**
 * @file
 * In-memory span log for the benchmark's traced runs. Spans are
 * recorded around the calls the benchmark makes into the simulator's
 * public entry points and written out once, when the run ends.
 *
 * A span covers [startNs, endNs] on the steady clock. Calls too short
 * to record one by one (Network::step on a 3x3 mesh takes about a
 * microsecond) are folded: one span per batch stands for `calls`
 * calls whose summed duration is `busyNs`. For an unfolded span
 * busyNs is the span's own duration.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Steady-clock time in nanoseconds. */
std::int64_t nowNs();

/** Seconds elapsed since a nowNs() reading. */
double secondsSince(std::int64_t t0);

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; ///< index of the enclosing span, -1 at top level
    int thread = 0;  ///< worker ordinal (search grid), else 0
    std::uint64_t calls = 1;
    std::int64_t busyNs = 0;
};

/**
 * Thread-safe append-only span log. A disabled log records nothing
 * and open() returns -1, so untraced runs pay one branch per call.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Start a span now; returns its index (-1 when disabled). */
    int open(const std::string &name, int parent = -1, int thread = 0);

    /** End span `id` now (no-op for -1). */
    void close(int id);

    /** Record a folded span for `calls` calls totalling `busyNs`;
     *  returns its index (-1 when disabled). */
    int fold(const std::string &name, int parent, std::int64_t startNs,
              std::int64_t endNs, std::uint64_t calls,
              std::int64_t busyNs);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Durations of the spans named `name`, in milliseconds. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Write every span as a Chrome trace-event JSON file. */
    void write(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, int parent = -1,
               int thread = 0)
        : log_(log), id_(log.open(name, parent, thread))
    {
    }
    ~ScopedSpan() { log_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
