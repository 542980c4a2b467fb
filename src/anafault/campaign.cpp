#include "anafault/campaign.h"

#include "anafault/campaign_core.h"
#include "batch/collapse.h"
#include "netlist/writer.h"

#include <algorithm>
#include <cstdio>
#include <optional>

namespace catlift::anafault {

using netlist::Circuit;
using netlist::TranSpec;
using spice::Simulator;
using spice::Waveforms;

namespace {

TranSpec resolve_tran(const Circuit& ckt, const CampaignOptions& opt) {
    if (opt.tran) return *opt.tran;
    require(ckt.tran.has_value(),
            "campaign: no .tran card and no explicit TranSpec");
    return *ckt.tran;
}

std::string hexd(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

} // namespace

std::string manifest_double(double v) { return hexd(v); }

std::uint64_t chain_fault_manifest(std::uint64_t h,
                                   const lift::FaultList& faults) {
    for (const lift::Fault& f : faults.faults) {
        // Delimited: without separators, distinct identity tuples could
        // chain to the same bytes.
        h = batch::fnv1a(std::to_string(f.id) + "|" + f.describe() + "|" +
                             hexd(f.probability) + "|" +
                             batch::effect_signature(f) + "\n",
                         h);
    }
    return h;
}

std::string sim_knob_signature(const spice::SimOptions& sim) {
    std::string o;
    o += sim.method == spice::Method::Trapezoidal ? "|trap" : "|be";
    o += sim.uic ? "|uic" : "|op";
    // Every solver knob alters waveforms (and hence verdicts) -- a store
    // written under different numerics must never be resumed.
    o += "|" + hexd(sim.gmin) + "|" + hexd(sim.cmin);
    o += "|" + hexd(sim.abstol) + "|" + hexd(sim.vntol);
    o += "|" + hexd(sim.reltol) + "|" + hexd(sim.dv_limit);
    o += "|" + std::to_string(sim.max_nr);
    o += "|" + std::to_string(sim.max_step_cuts);
    // Adaptive stepping changes the waveforms (within LTE tolerance, but
    // changed is changed): a store written under the other stepping mode
    // or a different LTE knob must not be resumed.
    o += sim.adaptive ? "|adaptive" : "|fixedgrid";
    o += "|" + hexd(sim.lte_tol);
    o += "|" + std::to_string(sim.max_stride);
    // Kernel selection changes waveform rounding (and the bypass mode may
    // perturb within its tolerance): a store written under a different
    // kernel configuration must never be resumed.
    o += "|sparse:" + std::to_string(sim.sparse_threshold);
    if (sim.bypass) {
        o += "|bypass:" + hexd(sim.bypass_tol);
        o += ":" + hexd(sim.device_bypass_tol);
    } else {
        o += "|nobypass";
    }
    o += "|amd";  // store compatibility: keeps every manifest hash unchanged
    // Execution budgets fail slow faults instead of waiting them out --
    // verdict-affecting, so a store written under different budgets is
    // foreign.
    o += "|wall:" + hexd(sim.max_wall_seconds);
    o += "|nrb:" + std::to_string(sim.max_nr_total);
    o += "|stb:" + std::to_string(sim.max_tran_steps);
    return o;
}

std::string engine_manifest(const spice::SimOptions& sim,
                            bool share_symbolic, bool collapse,
                            const char* mode, int max_retries) {
    std::string o = sim_knob_signature(sim);
    o += share_symbolic ? "|sharesym" : "|nosharesym";
    // Engine shortcuts do not change verdicts, but a user toggling them
    // (e.g. --no-collapse to rule out a collapse bug) wants faults
    // actually re-simulated -- treat the store as foreign.
    o += collapse ? "|collapse" : "|nocollapse";
    o += mode;
    // The retry ladder can converge a fault the base config fails, so a
    // store written under a different retry depth is foreign.
    o += "|retries:" + std::to_string(max_retries);
    return o;
}

namespace {

/// Campaign manifest: hashes everything that determines the per-fault
/// verdicts, so a result store is only ever resumed against the campaign
/// that wrote it.
std::uint64_t manifest_hash(const Circuit& ckt,
                            const std::vector<JobMeta>& metas,
                            const TranSpec& ts, const CampaignOptions& opt) {
    std::uint64_t h = batch::fnv1a(netlist::write_spice(ckt));
    for (const JobMeta& m : metas) {
        // Delimited: without separators, distinct (id, description,
        // probability, signature) tuples could chain to the same bytes.
        h = batch::fnv1a(std::to_string(m.fault_id) + "|" + m.description +
                             "|" + hexd(m.probability) + "|" + m.signature +
                             "\n",
                         h);
    }
    std::string o;
    o += to_string(opt.injection.model);
    o += "|" + hexd(opt.injection.short_resistance);
    o += "|" + hexd(opt.injection.open_resistance);
    o += "|" + hexd(opt.detection.v_tol) + "|" + hexd(opt.detection.t_tol);
    o += "|" + hexd(opt.detection.i_tol);
    for (const std::string& n : opt.detection.observed) o += "|" + n;
    for (const std::string& s : opt.detection.observed_supplies)
        o += "|i:" + s;
    o += "|" + hexd(ts.tstep) + "|" + hexd(ts.tstop) + "|" + hexd(ts.tstart);
    o += engine_manifest(opt.sim, opt.share_symbolic, opt.collapse,
                         opt.early_abort ? "|abort" : "|noabort",
                         opt.max_retries);
    return batch::fnv1a(o, h);
}

/// The transient analysis: the nominal waveforms are the reference (and
/// the store's nominal record); each faulty run streams every accepted
/// step into a StreamingDetector so it can stop at the first confirmed
/// detection.
class TranPolicy final : public AnalysisPolicy {
public:
    TranPolicy(const Circuit& ckt, const TranSpec& ts,
               const CampaignOptions& opt)
        : AnalysisPolicy("tran", "detect_time_s", "steps_saved"), ckt_(ckt),
          ts_(ts), opt_(opt) {}

    NominalRun nominal() override {
        Simulator sim(ckt_, opt_.sim);
        record_.waveforms = sim.tran(ts_);
        return {sim.stats(), sim.symbolic_cache()};
    }

    bool attempt(const Circuit& faulty, const spice::SimOptions& so,
                 std::size_t, FaultSimResult& r) override {
        std::optional<StreamingDetector> detector;
        try {
            detector.emplace(record_.waveforms, opt_.detection);
            Simulator sim(faulty, so);
            r.matrix_size = sim.unknowns();
            const spice::StepObserver observer =
                [&](double, const Waveforms& wf) {
                    return !(detector->feed(wf) && opt_.early_abort);
                };
            sim.tran(ts_, observer);
            record_kernel_stats(sim, r);
            r.simulated = true;
            r.detect_time = detector->detect_time();
        } catch (const std::exception& e) {
            r.error = e.what();
            // Detection is confirmed the instant the cumulative mismatch
            // crosses t_tol; a solver failure later in the run cannot
            // un-detect it.  Keeping the verdict makes early-abort on/off
            // agree even when the faulty circuit stops converging after
            // the detection instant (with early abort the failure is
            // never reached at all).
            if (detector && detector->detected()) {
                r.detect_time = detector->detect_time();
                r.simulated = true;
            }
        }
        return true;
    }

    void span_args(obs::Span&, std::size_t,
                   const FaultSimResult&) const override {}

    batch::NominalRecord* nominal_record() override { return &record_; }

    spice::Waveforms take_nominal() { return std::move(record_.waveforms); }

private:
    const Circuit& ckt_;
    const TranSpec ts_;
    const CampaignOptions& opt_;
    batch::NominalRecord record_;
};

/// Run the transient cycle over `metas`; the store binds to the
/// campaign's own manifest unless `bound` names one (and a carry seed).
CampaignResult run_tran(const Circuit& ckt, const std::vector<JobMeta>& metas,
                        const MakeFaulty& make, const CampaignOptions& opt,
                        std::optional<StoreBinding> bound) {
    const TranSpec ts = resolve_tran(ckt, opt);
    StoreBinding binding;
    if (bound)
        binding = std::move(*bound);
    else if (!opt.result_store.empty())
        binding.manifest = manifest_hash(ckt, metas, ts, opt);
    TranPolicy policy(ckt, ts, opt);
    CoreResult core = run_campaign_core(policy, CoreConfig::of(opt), metas,
                                        make, std::move(binding));
    CampaignResult res;
    res.nominal = policy.take_nominal();
    res.nominal_seconds = core.nominal_seconds;
    res.total_seconds = core.total_seconds;
    res.tstop = ts.tstop;
    res.results = std::move(core.results);
    res.batch = core.batch;
    return res;
}

CampaignResult run_lift_tran(const Circuit& ckt,
                             const lift::FaultList& faults,
                             const CampaignOptions& opt,
                             std::optional<StoreBinding> bound) {
    return run_tran(
        ckt, fault_metas(faults),
        [&](std::size_t i) {
            return inject(ckt, faults.faults[i], opt.injection);
        },
        opt, std::move(bound));
}

} // namespace

CampaignResult run_campaign(const Circuit& ckt, const lift::FaultList& faults,
                            const CampaignOptions& opt) {
    return run_lift_tran(ckt, faults, opt, std::nullopt);
}

CampaignResult run_campaign_bound(const Circuit& ckt,
                                  const lift::FaultList& faults,
                                  const CampaignOptions& opt,
                                  StoreBinding binding) {
    return run_lift_tran(ckt, faults, opt, std::move(binding));
}

std::uint64_t campaign_manifest(const Circuit& ckt,
                                const lift::FaultList& faults,
                                const CampaignOptions& opt) {
    return manifest_hash(ckt, fault_metas(faults), resolve_tran(ckt, opt),
                         opt);
}

CampaignResult run_parametric_campaign(
    const Circuit& ckt, const std::vector<ParametricFault>& faults,
    const CampaignOptions& opt) {
    std::vector<JobMeta> metas;
    metas.reserve(faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
        JobMeta m;
        m.fault_id = static_cast<int>(i) + 1;
        m.description = faults[i].describe();
        m.probability = 1.0;
        m.signature = "PAR:" + faults[i].device + ":" + faults[i].param +
                      ":" + hexd(faults[i].factor);
        metas.push_back(std::move(m));
    }
    return run_tran(
        ckt, metas,
        [&](std::size_t i) { return inject_parametric(ckt, faults[i]); },
        opt, std::nullopt);
}

// ---------------------------------------------------------------------------
// CampaignResult

std::size_t CampaignResult::detected() const {
    return static_cast<std::size_t>(std::count_if(
        results.begin(), results.end(),
        [](const FaultSimResult& r) { return r.detect_time.has_value(); }));
}

std::size_t CampaignResult::undetected() const {
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const FaultSimResult& r) {
                          return r.simulated && !r.detect_time;
                      }));
}

std::size_t CampaignResult::failed() const {
    return static_cast<std::size_t>(std::count_if(
        results.begin(), results.end(), [](const FaultSimResult& r) {
            return !r.simulated && !r.quarantined;
        }));
}

std::size_t CampaignResult::quarantined() const {
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const FaultSimResult& r) { return r.quarantined; }));
}

std::size_t CampaignResult::retries() const {
    std::size_t n = 0;
    for (const FaultSimResult& r : results)
        if (r.attempts > 1) n += r.attempts - 1;
    return n;
}

double CampaignResult::coverage_at(double t) const {
    if (results.empty()) return 0.0;
    std::size_t det = 0;
    for (const FaultSimResult& r : results)
        if (r.detect_time && *r.detect_time <= t) ++det;
    return 100.0 * static_cast<double>(det) /
           static_cast<double>(results.size());
}

double CampaignResult::weighted_coverage() const {
    double total = 0.0, det = 0.0;
    for (const FaultSimResult& r : results) {
        total += r.probability;
        if (r.detect_time) det += r.probability;
    }
    return total > 0 ? 100.0 * det / total : 0.0;
}

std::optional<double> CampaignResult::time_of_last_detection() const {
    std::optional<double> last;
    for (const FaultSimResult& r : results)
        if (r.detect_time && (!last || *r.detect_time > *last))
            last = r.detect_time;
    return last;
}

std::vector<std::pair<double, double>> CampaignResult::coverage_curve(
    std::size_t points) const {
    std::vector<std::pair<double, double>> out;
    out.reserve(points + 1);
    for (std::size_t i = 0; i <= points; ++i) {
        const double t = tstop * static_cast<double>(i) /
                         static_cast<double>(points);
        out.emplace_back(t, coverage_at(t));
    }
    return out;
}

} // namespace catlift::anafault
