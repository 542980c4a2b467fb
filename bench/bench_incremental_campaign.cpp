// Incremental cross-revision campaign on the paper's VCO.
//
// The workflow the paper implies is iterative: revise the layout, re-run
// LIFT, re-run the campaign.  A cold re-run pays the kernel for all ~64
// faults again; the incremental engine diffs the two fault lists, carries
// the verdicts of signature-identical faults out of the baseline result
// store, and simulates only the added/changed remainder.  This bench
// applies the canonical deterministic layout revision (widen the
// charge-rail track, slide a contact, flip two terminals' contact
// redundancy), checks the merged verdicts are identical to a cold full
// campaign on the revision, and emits BENCH_incremental_campaign.json --
// including whether the incremental run reused the baseline store's
// nominal record and how its wall time splits between nominal, fault
// kernels and everything else.

#include "anafault/incremental.h"
#include "core/cat.h"
#include "layout/revise.h"
#include "lift/extract_faults.h"
#include "obs/obs.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

using namespace catlift;

namespace {

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::string verdict_string(const anafault::CampaignResult& res) {
    std::string v;
    for (const auto& r : res.results)
        v += r.detect_time ? 'D' : (r.simulated ? 'u' : 'x');
    return v;
}

} // namespace

int main() {
    std::printf("== incremental cross-revision campaign: VCO ==\n\n");
    obs::enable_metrics(true);  // phase histograms for the BENCH JSON
    const core::VcoExperiment e = core::make_vco_experiment();
    const auto base_lift =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);

    const layout::Layout revised =
        layout::revise_layout(e.layout, layout::vco_revision_spec());
    const auto rev_lift =
        lift::extract_faults(revised, e.config.tech, e.config.lift);

    const auto diff = lift::diff_faultlists(base_lift.faults, rev_lift.faults);
    std::printf("  baseline faults: %zu   revision faults: %zu\n",
                base_lift.faults.size(), rev_lift.faults.size());
    std::printf("  diff: %zu carried, %zu changed, %zu added, %zu removed\n\n",
                diff.carried.size(), diff.probability_changed.size(),
                diff.only_b.size(), diff.only_a.size());

    const std::string baseline_store = "BENCH_incremental_baseline.store";
    const std::string merged_store = "BENCH_incremental_merged.store";
    std::filesystem::remove(baseline_store);

    // Baseline campaign (revision N): one cold run writing the store the
    // incremental run will carry from.  Doubles as the warmup.
    anafault::CampaignOptions copt = e.config.campaign;
    copt.result_store = baseline_store;
    const auto base_res =
        anafault::run_campaign(e.sim_circuit, base_lift.faults, copt);
    std::printf("  baseline campaign: %zu/%zu detected\n",
                base_res.detected(), base_res.results.size());

    // Cold full campaign on revision N+1 (what today's flow pays).
    anafault::CampaignOptions cold_opt = e.config.campaign;
    double cold_wall = 1e300;
    anafault::CampaignResult cold_res;
    for (int rep = 0; rep < 2; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        cold_res =
            anafault::run_campaign(e.sim_circuit, rev_lift.faults, cold_opt);
        cold_wall = std::min(cold_wall, seconds_since(t0));
    }

    // Incremental run on the same revision.
    anafault::IncrementalOptions iopt;
    iopt.campaign = e.config.campaign;
    iopt.campaign.result_store = merged_store;
    iopt.baseline_store = baseline_store;
    double inc_wall = 1e300;
    anafault::IncrementalResult inc_res;
    for (int rep = 0; rep < 2; ++rep) {
        std::filesystem::remove(merged_store);
        const auto t0 = std::chrono::steady_clock::now();
        anafault::IncrementalResult r = anafault::run_incremental_campaign(
            e.sim_circuit, base_lift.faults, rev_lift.faults, iopt);
        const double wall = seconds_since(t0);
        if (wall < inc_wall) {
            inc_wall = wall;
            inc_res = std::move(r);
        }
    }
    // Wall split of the fastest incremental run.
    const double inc_nominal_s = inc_res.campaign.nominal_seconds;
    const double inc_faults_s = inc_res.campaign.total_seconds;
    const double inc_other_s =
        std::max(0.0, inc_wall - inc_nominal_s - inc_faults_s);
    const bool nominal_reused = inc_res.campaign.batch.nominal_reused;
    std::printf("  %s", anafault::incremental_summary(inc_res).c_str());

    const bool verdicts_identical =
        verdict_string(cold_res) == verdict_string(inc_res.campaign);
    const double speedup = inc_wall > 0 ? cold_wall / inc_wall : 0.0;
    const double carried_fraction =
        rev_lift.faults.size() > 0
            ? static_cast<double>(inc_res.inc.carried) /
                  static_cast<double>(rev_lift.faults.size())
            : 0.0;

    std::printf("\n  %-16s %10s %10s\n", "config", "wall [s]", "detected");
    std::printf("  %-16s %10.3f %10zu\n", "cold-revision", cold_wall,
                cold_res.detected());
    std::printf("  %-16s %10.3f %10zu\n", "incremental", inc_wall,
                inc_res.campaign.detected());
    std::printf("\n  verdicts identical to cold run: %s\n",
                verdicts_identical ? "yes" : "NO");
    std::printf("  carried fraction: %.0f%%   speedup vs cold: %.2fx\n",
                100.0 * carried_fraction, speedup);
    std::printf("  incremental split: nominal %.4f s (%s), fault kernels "
                "%.4f s, other %.4f s\n\n",
                inc_nominal_s,
                nominal_reused ? "reused from store" : "simulated",
                inc_faults_s, inc_other_s);

    std::ofstream js("BENCH_incremental_campaign.json");
    js << "{\n  \"bench\": \"incremental_campaign\",\n";
    js << "  \"circuit\": \"vco\",\n";
    js << "  \"baseline_faults\": " << base_lift.faults.size() << ",\n";
    js << "  \"revision_faults\": " << rev_lift.faults.size() << ",\n";
    js << "  \"carried\": " << inc_res.inc.carried << ",\n";
    js << "  \"resimulated\": " << inc_res.inc.resimulated << ",\n";
    js << "  \"added\": " << inc_res.inc.added << ",\n";
    js << "  \"removed\": " << inc_res.inc.removed << ",\n";
    js << "  \"probability_changed\": " << inc_res.inc.probability_changed
       << ",\n";
    js << "  \"detected\": " << inc_res.campaign.detected() << ",\n";
    js << "  \"verdicts_identical\": "
       << (verdicts_identical ? "true" : "false") << ",\n";
    js << "  \"carried_fraction\": " << carried_fraction << ",\n";
    js << "  \"cold_wall_s\": " << cold_wall << ",\n";
    js << "  \"incremental_wall_s\": " << inc_wall << ",\n";
    js << "  \"speedup_vs_cold\": " << speedup << ",\n";
    js << "  \"nominal_reused\": " << (nominal_reused ? "true" : "false")
       << ",\n";
    js << "  \"incremental_split\": {\"nominal_s\": " << inc_nominal_s
       << ", \"fault_kernel_s\": " << inc_faults_s
       << ", \"other_s\": " << inc_other_s << "},\n";
    js << "  \"metrics\": " << obs::Registry::global().to_json("  ") << "\n";
    js << "}\n";
    std::printf("  wrote BENCH_incremental_campaign.json\n");

    std::filesystem::remove(baseline_store);
    std::filesystem::remove(merged_store);
    return verdicts_identical ? 0 : 1;
}
