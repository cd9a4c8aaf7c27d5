/**
 * @file
 * Sample statistics for the benchmark's timings.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <vector>

namespace perfbench
{

/**
 * The q-quantile (0..1) of `values` by linear interpolation between
 * the order statistics (the "inclusive" definition). Empty input
 * gives 0.
 */
double quantile(std::vector<double> values, double q);

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** Peak resident set size of this process, in MiB. */
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
