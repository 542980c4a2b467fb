// catlift/anafault/campaign_core.h -- internal to the anafault layer.
//
// The one fault-campaign cycle (paper, ch. V) behind the transient, AC and
// DC runners: "After the execution of the nominal simulation, the
// automatic analogue fault simulation is performed in a repetitive cycle
// of three main phases: the preprocessing of the original input file, the
// call of the kernel simulator and a post-processing phase that compares
// results and generates statistics."
//
// run_campaign_core owns everything that is not analysis physics: the
// result store (manifest binding, the transient nominal record, the
// incremental carry seed, resumed/carried records), fault collapsing and
// class jobs, injection, the retry/degradation ladder and quarantine, the
// contained store append, the collapse fan-out, every lifecycle event and
// the per-fault span/counter publication, and the BatchStats aggregation.
// An analysis plugs in through an AnalysisPolicy: its nominal run, one
// attempt on a faulty circuit, and its own span args.  Results are
// scheduled and persisted as batch::FaultSimResult (the transient result
// type and the AC/DC store record alike); AC/DC convert at their
// boundary with ac_from_record/dc_from_record.

#pragma once

#include "anafault/ac_campaign.h"
#include "anafault/campaign.h"
#include "anafault/dc_campaign.h"
#include "obs/obs.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace catlift::anafault {

/// Static identity of one fault in the batch queue: everything that is
/// known before the kernel runs.
struct JobMeta {
    int fault_id = 0;
    std::string description;
    double probability = 0.0;
    /// Electrical-effect signature; jobs sharing one are simulated once.
    std::string signature;
};

/// Queue identities of a LIFT fault list, in list order.
std::vector<JobMeta> fault_metas(const lift::FaultList& faults);

/// The manifest tail every analysis hashes, in one order: the solver
/// knobs (sim_knob_signature), symbolic sharing, collapsing, the
/// analysis' own engine switch (`mode`, e.g. "|abort"), the retry depth.
std::string engine_manifest(const spice::SimOptions& sim,
                            bool share_symbolic, bool collapse,
                            const char* mode, int max_retries);

/// What the fault-free run hands the core: the nominal kernel's counters
/// (folded into BatchStats) and its elimination order (the
/// campaign-shared symbolic analysis; null on the dense path).
struct NominalRun {
    spice::SimStats stats;
    std::shared_ptr<const spice::SymbolicCache> symbolic;
};

/// The physics of one analysis.  The policy keeps its own nominal
/// reference between nominal() and the attempts; attempt() runs
/// concurrently on the scheduler's workers and must only read it.
class AnalysisPolicy {
public:
    /// `analysis`: campaign_start's `analysis` arg ("tran"/"ac"/"dc").
    /// `detect_arg`: span/event arg carrying detect_time (nullptr: none).
    /// `saved_arg`: span arg, and `campaign.<saved_arg>` counter, carrying
    /// FaultSimResult::steps_saved.
    AnalysisPolicy(const char* analysis, const char* detect_arg,
                   const char* saved_arg)
        : analysis_(analysis), detect_arg_(detect_arg),
          saved_arg_(saved_arg) {}
    virtual ~AnalysisPolicy() = default;
    AnalysisPolicy(const AnalysisPolicy&) = delete;
    AnalysisPolicy& operator=(const AnalysisPolicy&) = delete;

    const char* analysis() const { return analysis_; }
    const char* detect_arg() const { return detect_arg_; }
    const char* saved_arg() const { return saved_arg_; }

    /// Run the fault-free analysis and validate the observed nodes
    /// against it (throws catlift::Error: the campaign cannot start).
    virtual NominalRun nominal() = 0;

    /// Run one attempt on `faulty` under `sim` (the base configuration or
    /// a retry-ladder rung), filling verdict (`simulated`, `detect_time`),
    /// `metric`, `error` and the kernel counters of `r`.  `slot` is the
    /// fault's index in the queue.  Returns false when a failure is
    /// deterministic and must not be retried.  A thrown exception is a
    /// failed, retryable attempt.
    virtual bool attempt(const netlist::Circuit& faulty,
                         const spice::SimOptions& sim, std::size_t slot,
                         FaultSimResult& r) = 0;

    /// Analysis-specific args of a simulated fault's span.
    virtual void span_args(obs::Span& sp, std::size_t slot,
                           const FaultSimResult& r) const = 0;

    /// The reference as a store nominal record, for analyses that persist
    /// one (the transient); null otherwise.  The core fills it from the
    /// store instead of calling nominal() when the store holds one.
    virtual batch::NominalRecord* nominal_record() { return nullptr; }

private:
    const char* analysis_;
    const char* detect_arg_;
    const char* saved_arg_;
};

/// The analysis-independent knobs, copied from an options struct.
struct CoreConfig {
    spice::SimOptions sim;
    unsigned threads = 1;
    bool collapse = true;
    bool share_symbolic = true;
    int max_retries = kDefaultMaxRetries;
    std::string result_store;
    batch::Durability store_durability = batch::Durability::Flush;
    bool resume = false;

    template <typename Options>
    static CoreConfig of(const Options& opt) {
        CoreConfig c;
        c.sim = opt.sim;
        c.threads = opt.threads;
        c.collapse = opt.collapse;
        c.share_symbolic = opt.share_symbolic;
        c.max_retries = opt.max_retries;
        c.result_store = opt.result_store;
        c.store_durability = opt.store_durability;
        c.resume = opt.resume;
        return c;
    }
};

/// What the result store is bound to and seeded with.  `manifest` is only
/// read when CoreConfig::result_store is set.  The seed is the incremental
/// engine's carry: the baseline's nominal record and the carried records,
/// appended (nominal first, then every carried id the store does not
/// already hold) right after the store opens.
struct StoreBinding {
    std::uint64_t manifest = 0;
    std::optional<batch::NominalRecord> nominal;
    std::vector<FaultSimResult> carried;
};

struct CoreResult {
    std::vector<FaultSimResult> results;  ///< queue order
    /// Slot whose kernel run or store record each result's verdict came
    /// from: itself, or the class member it was fanned out from.
    std::vector<std::size_t> source;
    batch::BatchStats batch;
    double nominal_seconds = 0.0;
    double total_seconds = 0.0;  ///< sim_seconds of this run's faults
};

/// Copy a faulty kernel's counters (matrix size, NR iterations, steps,
/// bypass / refactor / stamp-skip / symbolic-cache counts, sparse time
/// split) into its result.
void record_kernel_stats(const spice::Simulator& sim, FaultSimResult& r);

/// Build the faulty circuit of queue slot `i` (throws on injection
/// failure: the fault retires `failed`).
using MakeFaulty = std::function<netlist::Circuit(std::size_t)>;

CoreResult run_campaign_core(AnalysisPolicy& policy, const CoreConfig& cfg,
                             const std::vector<JobMeta>& metas,
                             const MakeFaulty& make_faulty,
                             StoreBinding binding);

// -- per-analysis runners with an explicit store binding --------------------
// The public run_campaign / run_ac_campaign / run_dc_screen bind the store
// to their own manifest; the fabric worker and the incremental engine bind
// it to the full (revision) campaign's manifest and seed it.

CampaignResult run_campaign_bound(const netlist::Circuit& ckt,
                                  const lift::FaultList& faults,
                                  const CampaignOptions& opt,
                                  StoreBinding binding);
AcCampaignResult run_ac_campaign_bound(const netlist::Circuit& ckt,
                                       const lift::FaultList& faults,
                                       const AcCampaignOptions& opt,
                                       StoreBinding binding);
DcScreenResult run_dc_screen_bound(const netlist::Circuit& ckt,
                                   const lift::FaultList& faults,
                                   const DcScreenOptions& opt,
                                   StoreBinding binding);

} // namespace catlift::anafault
