#include "anafault/ac_campaign.h"

#include "anafault/campaign_core.h"
#include "anafault/comparator.h"
#include "netlist/writer.h"

#include <algorithm>
#include <utility>

namespace catlift::anafault {

using netlist::Circuit;

namespace {

/// The AC analysis: the nominal sweep is the reference; each faulty sweep
/// streams every frequency point into an AcStreamingDetector so it can
/// stop at the first dB violation.  detect_time carries the detection
/// frequency, metric the worst dB deviation, steps_saved the sweep points
/// the abort skipped.
class AcPolicy final : public AnalysisPolicy {
public:
    AcPolicy(const Circuit& ckt, const AcCampaignOptions& opt)
        : AnalysisPolicy("ac", "detect_freq_hz", "freq_points_saved"),
          ckt_(ckt), opt_(opt) {}

    NominalRun nominal() override {
        spice::Simulator sim(ckt_, opt_.sim);
        nominal_ = sim.ac(opt_.sweep);
        for (const std::string& node : opt_.observed)
            require(nominal_.has(node),
                    "ac campaign: observed node missing: " + node);
        return {sim.stats(), sim.symbolic_cache()};
    }

    bool attempt(const Circuit& faulty, const spice::SimOptions& so,
                 std::size_t, FaultSimResult& r) override {
        AcStreamingDetector detector(nominal_, opt_.observed, opt_.db_tol);
        spice::Simulator sim(faulty, so);
        const spice::AcPointObserver observer =
            [&](double, const spice::AcResult& partial) {
                return !(detector.feed(partial) && opt_.early_abort);
            };
        sim.ac(opt_.sweep, observer);
        record_kernel_stats(sim, r);
        r.steps_saved = sim.stats().ac_points_saved;
        r.simulated = true;
        if (detector.detected())
            r.detect_time = detector.detect_freq().value_or(0.0);
        r.metric = detector.max_deviation_db();
        return true;
    }

    void span_args(obs::Span& sp, std::size_t,
                   const FaultSimResult& r) const override {
        sp.arg("max_deviation_db", r.metric);
    }

    spice::AcResult take_nominal() { return std::move(nominal_); }

private:
    const Circuit& ckt_;
    const AcCampaignOptions& opt_;
    spice::AcResult nominal_;
};

} // namespace

std::size_t AcCampaignResult::detected() const {
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const AcFaultResult& r) { return r.detected; }));
}

double AcCampaignResult::coverage() const {
    if (results.empty()) return 0.0;
    return 100.0 * static_cast<double>(detected()) /
           static_cast<double>(results.size());
}

std::size_t AcCampaignResult::failed() const {
    return static_cast<std::size_t>(std::count_if(
        results.begin(), results.end(), [](const AcFaultResult& r) {
            return !r.simulated && !r.quarantined;
        }));
}

std::size_t AcCampaignResult::quarantined() const {
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const AcFaultResult& r) { return r.quarantined; }));
}

std::uint64_t ac_campaign_manifest(const Circuit& ckt,
                                   const lift::FaultList& faults,
                                   const AcCampaignOptions& opt) {
    std::uint64_t h =
        chain_fault_manifest(batch::fnv1a(netlist::write_spice(ckt)), faults);
    std::string o = "ac";
    const auto field = [&o](const std::string& v) {
        o += '|';
        o += v;
    };
    field(to_string(opt.injection.model));
    field(manifest_double(opt.injection.short_resistance));
    field(manifest_double(opt.injection.open_resistance));
    field(manifest_double(opt.sweep.fstart));
    field(manifest_double(opt.sweep.fstop));
    field(std::to_string(opt.sweep.points_per_decade));
    field(manifest_double(opt.db_tol));
    for (const std::string& n : opt.observed) field(n);
    o += engine_manifest(opt.sim, opt.share_symbolic, opt.collapse,
                         opt.early_abort ? "|abort" : "|noabort",
                         opt.max_retries);
    return batch::fnv1a(o, h);
}

batch::FaultSimResult ac_to_record(const AcFaultResult& r) {
    batch::FaultSimResult rec;
    rec.fault_id = r.fault_id;
    rec.description = r.description;
    rec.probability = r.probability;
    rec.simulated = r.simulated;
    rec.error = r.error;
    if (r.detected) rec.detect_time = r.detect_freq.value_or(0.0);
    rec.metric = r.max_deviation_db;
    rec.steps_saved = r.points_saved;
    rec.sim_seconds = r.sim_seconds;
    rec.nr_iterations = r.nr_iterations;
    rec.symbolic_cache_hits = r.symbolic_cache_hits;
    rec.ordering_seconds = r.ordering_seconds;
    rec.numeric_seconds = r.numeric_seconds;
    rec.carried = r.carried;
    rec.attempts = r.attempts;
    rec.quarantined = r.quarantined;
    rec.retry_log = r.retry_log;
    return rec;
}

AcFaultResult ac_from_record(const batch::FaultSimResult& rec) {
    AcFaultResult r;
    r.fault_id = rec.fault_id;
    r.description = rec.description;
    r.probability = rec.probability;
    r.simulated = rec.simulated;
    r.error = rec.error;
    r.detected = rec.detect_time.has_value();
    if (rec.detect_time) r.detect_freq = rec.detect_time;
    r.max_deviation_db = rec.metric;
    r.points_saved = rec.steps_saved;
    r.sim_seconds = rec.sim_seconds;
    r.nr_iterations = rec.nr_iterations;
    r.symbolic_cache_hits = rec.symbolic_cache_hits;
    r.ordering_seconds = rec.ordering_seconds;
    r.numeric_seconds = rec.numeric_seconds;
    r.carried = rec.carried;
    r.attempts = rec.attempts;
    r.quarantined = rec.quarantined;
    r.retry_log = rec.retry_log;
    return r;
}

AcCampaignResult run_ac_campaign_bound(const Circuit& ckt,
                                       const lift::FaultList& faults,
                                       const AcCampaignOptions& opt,
                                       StoreBinding binding) {
    AcPolicy policy(ckt, opt);
    const CoreResult core = run_campaign_core(
        policy, CoreConfig::of(opt), fault_metas(faults),
        [&](std::size_t i) {
            return inject(ckt, faults.faults[i], opt.injection);
        },
        std::move(binding));
    AcCampaignResult res;
    res.nominal = policy.take_nominal();
    res.batch = core.batch;
    // The core counts skipped work as steps_saved; for a sweep that is
    // frequency points.
    res.batch.freq_points_saved = std::exchange(res.batch.steps_saved, 0);
    res.results.reserve(core.results.size());
    for (const FaultSimResult& r : core.results)
        res.results.push_back(ac_from_record(r));
    return res;
}

AcCampaignResult run_ac_campaign(const Circuit& ckt,
                                 const lift::FaultList& faults,
                                 const AcCampaignOptions& opt) {
    StoreBinding binding;
    if (!opt.result_store.empty())
        binding.manifest = ac_campaign_manifest(ckt, faults, opt);
    return run_ac_campaign_bound(ckt, faults, opt, std::move(binding));
}

} // namespace catlift::anafault
