// catlift/spice/waveform.h
//
// Simulation results: a shared time axis plus named voltage traces.
// AnaFAULT's comparator interpolates into these when applying its
// amplitude/time tolerance test, so interpolation lives here.

#pragma once

#include "geom/base.h"

#include <map>
#include <string>
#include <vector>

namespace catlift::spice {

/// Time-series results of one analysis.
class Waveforms {
public:
    /// Append a time point with a full vector of values (one per trace,
    /// order of trace registration).
    void add_trace(const std::string& name);

    /// Record one sample row; `values` order must match trace registration.
    void append(double t, const std::vector<double>& values);

    /// Rebuild from whole columns (the result store's nominal record):
    /// `names` in registration order, one `data` column per name, each as
    /// long as `time`.  The columns are moved in, not copied.
    static Waveforms from_columns(std::vector<std::string> names,
                                  std::vector<double> time,
                                  std::vector<std::vector<double>> data);

    const std::vector<double>& time() const { return time_; }
    std::size_t points() const { return time_.size(); }

    bool has(const std::string& name) const { return index_.count(name) > 0; }
    const std::vector<double>& trace(const std::string& name) const;
    std::vector<std::string> trace_names() const;

    /// Linear interpolation of trace `name` at time t (clamped to range).
    double at(const std::string& name, double t) const;

    /// Minimum / maximum of a trace over the full run.
    double min_of(const std::string& name) const;
    double max_of(const std::string& name) const;

    /// CSV rendering: header "time,<traces...>" then one row per point.
    std::string to_csv(const std::vector<std::string>& names = {}) const;

private:
    std::vector<double> time_;
    std::vector<std::string> names_;
    std::map<std::string, std::size_t> index_;
    std::vector<std::vector<double>> data_;  // per trace
};

} // namespace catlift::spice
