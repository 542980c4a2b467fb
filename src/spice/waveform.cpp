#include "spice/waveform.h"

#include <algorithm>
#include <sstream>

namespace catlift::spice {

void Waveforms::add_trace(const std::string& name) {
    require(index_.count(name) == 0, "duplicate trace " + name);
    index_[name] = names_.size();
    names_.push_back(name);
    data_.emplace_back();
}

void Waveforms::append(double t, const std::vector<double>& values) {
    require(values.size() == names_.size(),
            "Waveforms::append: value count mismatch");
    require(time_.empty() || t >= time_.back(),
            "Waveforms::append: time must be monotonic");
    time_.push_back(t);
    for (std::size_t i = 0; i < values.size(); ++i)
        data_[i].push_back(values[i]);
}

Waveforms Waveforms::from_columns(std::vector<std::string> names,
                                  std::vector<double> time,
                                  std::vector<std::vector<double>> data) {
    require(names.size() == data.size(),
            "Waveforms::from_columns: trace count mismatch");
    Waveforms wf;
    for (std::size_t i = 0; i < names.size(); ++i) {
        require(data[i].size() == time.size(),
                "Waveforms::from_columns: column length mismatch");
        require(wf.index_.emplace(names[i], i).second,
                "duplicate trace " + names[i]);
    }
    require(std::is_sorted(time.begin(), time.end()),
            "Waveforms::from_columns: time must be monotonic");
    wf.names_ = std::move(names);
    wf.time_ = std::move(time);
    wf.data_ = std::move(data);
    return wf;
}

const std::vector<double>& Waveforms::trace(const std::string& name) const {
    auto it = index_.find(name);
    require(it != index_.end(), "no trace named " + name);
    return data_[it->second];
}

std::vector<std::string> Waveforms::trace_names() const { return names_; }

double Waveforms::at(const std::string& name, double t) const {
    const auto& y = trace(name);
    require(!time_.empty(), "empty waveform");
    if (t <= time_.front()) return y.front();
    if (t >= time_.back()) return y.back();
    // Binary search for the bracketing interval.
    auto it = std::upper_bound(time_.begin(), time_.end(), t);
    const std::size_t i = static_cast<std::size_t>(it - time_.begin());
    const double t0 = time_[i - 1], t1 = time_[i];
    const double y0 = y[i - 1], y1 = y[i];
    if (t1 == t0) return y1;
    return y0 + (y1 - y0) * (t - t0) / (t1 - t0);
}

double Waveforms::min_of(const std::string& name) const {
    const auto& y = trace(name);
    require(!y.empty(), "empty trace " + name);
    return *std::min_element(y.begin(), y.end());
}

double Waveforms::max_of(const std::string& name) const {
    const auto& y = trace(name);
    require(!y.empty(), "empty trace " + name);
    return *std::max_element(y.begin(), y.end());
}

std::string Waveforms::to_csv(const std::vector<std::string>& names) const {
    const std::vector<std::string> cols = names.empty() ? names_ : names;
    std::ostringstream os;
    os << "time";
    for (const auto& n : cols) os << ',' << n;
    os << '\n';
    for (std::size_t i = 0; i < time_.size(); ++i) {
        os << time_[i];
        for (const auto& n : cols) os << ',' << trace(n)[i];
        os << '\n';
    }
    return os.str();
}

} // namespace catlift::spice
