// Percentile and mean helpers used by metrics collection.
#pragma once

#include <vector>

namespace swallow::common {

/// Percentile of a sample using linear interpolation (R-7, the spreadsheet
/// default). `p` in [0, 1]. The input is copied and sorted.
double percentile(std::vector<double> sample, double p);

double mean(const std::vector<double>& sample);

}  // namespace swallow::common
