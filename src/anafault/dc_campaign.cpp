#include "anafault/dc_campaign.h"

#include "anafault/campaign_core.h"
#include "netlist/writer.h"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace catlift::anafault {

using netlist::Circuit;

namespace {

/// The DC screen: the nominal operating point is the reference; each
/// faulty operating point is compared node by node.  detect_time is 0 on
/// detection (a screen has no sweep coordinate) and metric carries the
/// worst |dV|.  The solve strategy is not part of the record; the policy
/// keeps it per queue slot for the screen's own result.
///
/// The deviation measurement validates the faulty operating point's node
/// set up front instead of indexing it blind: injection can legitimately
/// leave an observed node out of the faulty circuit (an open that
/// isolates it, a short that merges it away).  A missing node is a
/// deterministic measurement gap, not a solver failure: the fault retires
/// `failed` without burning ladder attempts.
class DcPolicy final : public AnalysisPolicy {
public:
    DcPolicy(const Circuit& ckt, const DcScreenOptions& opt, std::size_t n)
        : AnalysisPolicy("dc", nullptr, "steps_saved"), ckt_(ckt), opt_(opt),
          strategies_(n) {}

    NominalRun nominal() override {
        spice::Simulator sim(ckt_, opt_.sim);
        const spice::DcResult op = sim.dc_op();
        require(op.converged, "dc screen: nominal operating point failed");
        nominal_op_ = op.voltages;
        nominal_iterations_ = op.iterations;
        for (const std::string& n : opt_.observed)
            require(nominal_op_.count(n) > 0,
                    "dc screen: observed node missing: " + n);
        return {sim.stats(), sim.symbolic_cache()};
    }

    bool attempt(const Circuit& faulty, const spice::SimOptions& so,
                 std::size_t slot, FaultSimResult& r) override {
        spice::Simulator sim(faulty, so);
        const spice::DcResult op =
            opt_.warm_start ? sim.dc_op(nominal_op_) : sim.dc_op();
        record_kernel_stats(sim, r);
        r.nr_iterations = static_cast<std::size_t>(std::max(0, op.iterations));
        strategies_[slot] = op.strategy;
        if (!op.converged) {
            r.error = "operating point did not converge";
            return true;
        }
        if (op.strategy == "warm") {
            warm_hits_.fetch_add(1, std::memory_order_relaxed);
            // Saved vs the nominal circuit's own cold cost -- the best
            // available baseline for a one-shot faulty solve.
            if (nominal_iterations_ > op.iterations)
                nr_saved_.fetch_add(
                    static_cast<std::size_t>(nominal_iterations_ -
                                             op.iterations),
                    std::memory_order_relaxed);
        }
        bool missing = false;
        for (const std::string& n : opt_.observed)
            if (op.voltages.find(n) == op.voltages.end()) {
                r.error = "observed node missing from faulty operating "
                          "point: " + n;
                missing = true;
            }
        if (missing) return false;
        for (const std::string& n : opt_.observed)
            r.metric = std::max(
                r.metric, std::fabs(op.voltages.at(n) - nominal_op_.at(n)));
        r.simulated = true;
        if (r.metric > opt_.v_tol) r.detect_time = 0.0;
        return true;
    }

    void span_args(obs::Span& sp, std::size_t slot,
                   const FaultSimResult& r) const override {
        sp.arg("max_deviation_v", r.metric);
        sp.arg("strategy", strategies_[slot]);
    }

    /// The screen result of one slot: a store record reports its strategy
    /// as "stored", a fresh solve (or a fan-out of one) its real one.
    DcFaultResult result(const FaultSimResult& r, std::size_t source) const {
        DcFaultResult d = dc_from_record(r);
        if (!strategies_[source].empty()) d.strategy = strategies_[source];
        return d;
    }

    void fill(DcScreenResult& res) {
        res.nominal_op = std::move(nominal_op_);
        res.nominal_iterations = nominal_iterations_;
        res.batch.warm_start_solves = warm_hits_.load();
        res.batch.nr_saved_warm = nr_saved_.load();
    }

private:
    const Circuit& ckt_;
    const DcScreenOptions& opt_;
    std::map<std::string, double> nominal_op_;
    int nominal_iterations_ = 0;
    /// Written by each slot's own worker only.
    std::vector<std::string> strategies_;
    std::atomic<std::size_t> warm_hits_{0}, nr_saved_{0};
};

} // namespace

std::size_t DcScreenResult::detected() const {
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const DcFaultResult& r) { return r.detected; }));
}

double DcScreenResult::coverage() const {
    if (results.empty()) return 0.0;
    return 100.0 * static_cast<double>(detected()) /
           static_cast<double>(results.size());
}

std::vector<int> DcScreenResult::undetected_ids() const {
    std::vector<int> out;
    for (const DcFaultResult& r : results)
        if (!r.detected) out.push_back(r.fault_id);
    return out;
}

std::size_t DcScreenResult::failed() const {
    return static_cast<std::size_t>(std::count_if(
        results.begin(), results.end(), [](const DcFaultResult& r) {
            return !r.converged && !r.quarantined;
        }));
}

std::size_t DcScreenResult::quarantined() const {
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const DcFaultResult& r) { return r.quarantined; }));
}

std::uint64_t dc_screen_manifest(const Circuit& ckt,
                                 const lift::FaultList& faults,
                                 const DcScreenOptions& opt) {
    std::uint64_t h =
        chain_fault_manifest(batch::fnv1a(netlist::write_spice(ckt)), faults);
    std::string o = "dc";
    const auto field = [&o](const std::string& v) {
        o += '|';
        o += v;
    };
    field(to_string(opt.injection.model));
    field(manifest_double(opt.injection.short_resistance));
    field(manifest_double(opt.injection.open_resistance));
    field(manifest_double(opt.v_tol));
    for (const std::string& n : opt.observed) field(n);
    o += engine_manifest(opt.sim, opt.share_symbolic, opt.collapse,
                         opt.warm_start ? "|warm" : "|cold", opt.max_retries);
    return batch::fnv1a(o, h);
}

batch::FaultSimResult dc_to_record(const DcFaultResult& r) {
    batch::FaultSimResult rec;
    rec.fault_id = r.fault_id;
    rec.description = r.description;
    rec.probability = r.probability;
    rec.simulated = r.converged;
    if (r.detected) rec.detect_time = 0.0;
    rec.metric = r.max_deviation;
    rec.nr_iterations = static_cast<std::size_t>(
        std::max(0, r.nr_iterations));
    rec.symbolic_cache_hits = r.symbolic_cache_hits;
    rec.ordering_seconds = r.ordering_seconds;
    rec.numeric_seconds = r.numeric_seconds;
    rec.carried = r.carried;
    rec.error = r.error;
    rec.attempts = r.attempts;
    rec.quarantined = r.quarantined;
    rec.retry_log = r.retry_log;
    return rec;
}

DcFaultResult dc_from_record(const batch::FaultSimResult& rec) {
    DcFaultResult r;
    r.fault_id = rec.fault_id;
    r.description = rec.description;
    r.probability = rec.probability;
    r.converged = rec.simulated;
    r.detected = rec.detect_time.has_value();
    r.max_deviation = rec.metric;
    r.nr_iterations = static_cast<int>(rec.nr_iterations);
    r.strategy = rec.simulated ? "stored" : "";
    r.symbolic_cache_hits = rec.symbolic_cache_hits;
    r.ordering_seconds = rec.ordering_seconds;
    r.numeric_seconds = rec.numeric_seconds;
    r.carried = rec.carried;
    r.error = rec.error;
    r.attempts = rec.attempts;
    r.quarantined = rec.quarantined;
    r.retry_log = rec.retry_log;
    return r;
}

DcScreenResult run_dc_screen_bound(const Circuit& ckt,
                                   const lift::FaultList& faults,
                                   const DcScreenOptions& opt,
                                   StoreBinding binding) {
    DcPolicy policy(ckt, opt, faults.size());
    const CoreResult core = run_campaign_core(
        policy, CoreConfig::of(opt), fault_metas(faults),
        [&](std::size_t i) {
            return inject(ckt, faults.faults[i], opt.injection);
        },
        std::move(binding));
    DcScreenResult res;
    res.batch = core.batch;
    policy.fill(res);
    res.results.reserve(core.results.size());
    for (std::size_t i = 0; i < core.results.size(); ++i)
        res.results.push_back(policy.result(core.results[i], core.source[i]));
    return res;
}

DcScreenResult run_dc_screen(const Circuit& ckt,
                             const lift::FaultList& faults,
                             const DcScreenOptions& opt) {
    StoreBinding binding;
    if (!opt.result_store.empty())
        binding.manifest = dc_screen_manifest(ckt, faults, opt);
    return run_dc_screen_bound(ckt, faults, opt, std::move(binding));
}

} // namespace catlift::anafault
