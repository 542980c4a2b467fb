#include "anafault/campaign.h"

#include "batch/collapse.h"
#include "batch/result_store.h"
#include "netlist/writer.h"
#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

namespace catlift::anafault {

using netlist::Circuit;
using netlist::TranSpec;
using spice::Simulator;
using spice::Waveforms;

namespace {

double seconds_since(
    const std::chrono::steady_clock::time_point& t0) {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

TranSpec resolve_tran(const Circuit& ckt, const CampaignOptions& opt) {
    if (opt.tran) return *opt.tran;
    require(ckt.tran.has_value(),
            "campaign: no .tran card and no explicit TranSpec");
    return *ckt.tran;
}

/// Static identity of one fault in the batch queue: everything that is
/// known before the kernel runs.
struct JobMeta {
    int fault_id = 0;
    std::string description;
    double probability = 0.0;
    /// Electrical-effect signature; jobs sharing one are simulated once.
    std::string signature;
};

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
    o += sim.ordering == spice::SparseOrdering::Amd ? "|amd" : "|mark";
    // Execution budgets fail slow faults instead of waiting them out --
    // verdict-affecting, so a store written under different budgets is
    // foreign.
    o += "|wall:" + hexd(sim.max_wall_seconds);
    o += "|nrb:" + std::to_string(sim.max_nr_total);
    o += "|stb:" + std::to_string(sim.max_tran_steps);
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
    o += sim_knob_signature(opt.sim);
    o += opt.share_symbolic ? "|sharesym" : "|nosharesym";
    // Engine shortcuts do not change verdicts, but a user toggling them
    // (e.g. --no-collapse to rule out a collapse bug) wants faults
    // actually re-simulated -- treat the store as foreign.
    o += opt.collapse ? "|collapse" : "|nocollapse";
    o += opt.early_abort ? "|abort" : "|noabort";
    // The retry ladder can converge a fault the base config fails, so a
    // store written under a different retry depth is foreign.
    o += "|retries:" + std::to_string(opt.max_retries);
    return batch::fnv1a(o, h);
}

/// Run one mutated circuit against the shared nominal baseline, streaming
/// every accepted step into the detector so the run can stop at the first
/// confirmed detection.
FaultSimResult simulate_one(const Circuit& faulty, const Waveforms& nominal,
                            const TranSpec& ts, const CampaignOptions& opt) {
    FaultSimResult r;
    const auto t0 = std::chrono::steady_clock::now();
    std::optional<StreamingDetector> detector;
    try {
        detector.emplace(nominal, opt.detection);
        Simulator sim(faulty, opt.sim);
        r.matrix_size = sim.unknowns();
        const spice::StepObserver observer =
            [&](double, const Waveforms& wf) {
                return !(detector->feed(wf) && opt.early_abort);
            };
        sim.tran(ts, observer);
        r.sim_seconds = seconds_since(t0);
        r.nr_iterations = sim.stats().nr_iterations;
        r.steps_saved = sim.stats().steps_saved;
        r.steps_integrated = sim.stats().tran_steps;
        r.steps_interpolated = sim.stats().grid_points_interpolated;
        r.bypass_solves = sim.stats().bypass_solves;
        r.sparse_refactors = sim.stats().sparse_refactors;
        r.device_stamp_skips = sim.stats().device_stamp_skips;
        r.symbolic_cache_hits = sim.stats().symbolic_cache_hits;
        r.ordering_seconds = sim.stats().ordering_seconds;
        r.numeric_seconds = sim.stats().numeric_seconds;
        r.simulated = true;
        r.detect_time = detector->detect_time();
    } catch (const std::exception& e) {
        // std::exception, not just catlift::Error: a stray
        // std::out_of_range (or any library exception) must retire this
        // fault, never escape to the scheduler and kill the campaign.
        r.sim_seconds = seconds_since(t0);
        r.error = e.what();
        // Detection is confirmed the instant the cumulative mismatch
        // crosses t_tol; a solver failure later in the run cannot
        // un-detect it.  Keeping the verdict makes early-abort on/off
        // agree even when the faulty circuit stops converging after the
        // detection instant (with early abort the failure is never
        // reached at all).
        if (detector && detector->detected()) {
            r.detect_time = detector->detect_time();
            r.simulated = true;
        }
    }
    return r;
}

const char* verdict_of(const FaultSimResult& r) {
    if (r.detect_time) return "detected";
    if (r.simulated) return "undetected";
    return r.quarantined ? "quarantined" : "failed";
}

/// Run one fault through the retry/degradation ladder: the campaign's own
/// configuration first, then each rung of anafault/retry.h until an
/// attempt simulates or the ladder is exhausted (-> quarantined).  Every
/// failed attempt lands in the retry log; every re-attempt is counted and
/// published.
FaultSimResult simulate_with_retries(const Circuit& faulty,
                                     const Waveforms& nominal,
                                     const TranSpec& ts,
                                     const CampaignOptions& opt,
                                     int fault_id,
                                     std::atomic<std::size_t>& retries) {
    const int attempts_allowed = 1 + std::max(0, opt.max_retries);
    FaultSimResult r;
    std::string retry_log;
    for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
        CampaignOptions aopt = opt;
        if (attempt > 0) {
            aopt.sim = degrade_sim(opt.sim, attempt);
            retries.fetch_add(1, std::memory_order_relaxed);
            if (obs::metrics_enabled())
                obs::Registry::global().counter("campaign.retries").add(1);
            if (obs::events_enabled())
                obs::emit_event(
                    "fault_retry",
                    {obs::arg("fault_id",
                              static_cast<std::int64_t>(fault_id)),
                     obs::arg("attempt",
                              static_cast<std::int64_t>(attempt + 1)),
                     obs::arg("config", attempt_label(attempt)),
                     obs::arg("error", r.error)});
        }
        r = simulate_one(faulty, nominal, ts, aopt);
        r.attempts = static_cast<std::uint32_t>(attempt + 1);
        if (r.simulated) break;
        log_attempt(retry_log, attempt, r.error);
    }
    r.retry_log = std::move(retry_log);
    if (!r.simulated && opt.max_retries > 0) {
        r.quarantined = true;
        if (obs::metrics_enabled())
            obs::Registry::global().counter("campaign.quarantined").add(1);
        if (obs::events_enabled())
            obs::emit_event(
                "fault_quarantined",
                {obs::arg("fault_id", static_cast<std::int64_t>(fault_id)),
                 obs::arg("attempts",
                          static_cast<std::int64_t>(r.attempts)),
                 obs::arg("error", r.error)});
    }
    return r;
}

/// Close a fault-simulation span and publish the per-fault observability
/// record: span args (the per-fault slice of the campaign counters, so a
/// trace viewer -- or the aggregation test -- can reconstruct the batch
/// totals from the spans alone), registry counters incremented by exactly
/// the same values, and the retirement event.
void publish_fault_obs(obs::Span& sp, const FaultSimResult& r,
                       const std::string& signature) {
    const unsigned mask = obs::enabled_mask();
    const bool ev = obs::events_enabled();
    if (mask == 0 && !ev) {
        sp.end();
        return;
    }
    const auto i64 = [](auto v) { return static_cast<std::int64_t>(v); };
    if (mask & obs::kTracingBit) {
        sp.arg("fault_id", i64(r.fault_id));
        sp.arg("signature", signature);
        sp.arg("verdict", std::string(verdict_of(r)));
        if (r.detect_time) sp.arg("detect_time_s", *r.detect_time);
        sp.arg("steps_saved", i64(r.steps_saved));
        sp.arg("nr_iterations", i64(r.nr_iterations));
        sp.arg("steps_integrated", i64(r.steps_integrated));
        sp.arg("bypass_solves", i64(r.bypass_solves));
        sp.arg("device_stamp_skips", i64(r.device_stamp_skips));
        sp.arg("symbolic_cache_hits", i64(r.symbolic_cache_hits));
        sp.arg("sim_seconds", r.sim_seconds);
        sp.arg("attempts", i64(r.attempts));
    }
    sp.end();
    if (mask & obs::kMetricsBit) {
        struct Counters {
            obs::Counter& retired;
            obs::Counter& detected;
            obs::Counter& nr_iterations;
            obs::Counter& steps_integrated;
            obs::Counter& steps_saved;
            obs::Counter& bypass_solves;
            obs::Counter& device_stamp_skips;
            obs::Counter& symbolic_cache_hits;
        };
        obs::Registry& reg = obs::Registry::global();
        static Counters c{reg.counter("campaign.retired"),
                          reg.counter("campaign.detected"),
                          reg.counter("campaign.nr_iterations"),
                          reg.counter("campaign.steps_integrated"),
                          reg.counter("campaign.steps_saved"),
                          reg.counter("campaign.bypass_solves"),
                          reg.counter("campaign.device_stamp_skips"),
                          reg.counter("campaign.symbolic_cache_hits")};
        c.retired.add(1);
        if (r.detect_time) c.detected.add(1);
        c.nr_iterations.add(r.nr_iterations);
        c.steps_integrated.add(r.steps_integrated);
        c.steps_saved.add(r.steps_saved);
        c.bypass_solves.add(r.bypass_solves);
        c.device_stamp_skips.add(r.device_stamp_skips);
        c.symbolic_cache_hits.add(r.symbolic_cache_hits);
    }
    if (ev) {
        std::vector<obs::TraceArg> fields{
            obs::arg("fault_id", i64(r.fault_id)),
            obs::arg("verdict", std::string(verdict_of(r))),
            obs::arg("sim_seconds", r.sim_seconds)};
        if (r.detect_time)
            fields.push_back(obs::arg("detect_time_s", *r.detect_time));
        obs::emit_event("fault_retired", fields);
    }
}

/// Copy a class representative's verdict to another member of the same
/// equivalence class: identity fields come from the member, kernel cost
/// stays attributed to the representative alone.
FaultSimResult fan_out(const FaultSimResult& rep, const JobMeta& meta) {
    FaultSimResult c = rep;
    c.fault_id = meta.fault_id;
    c.description = meta.description;
    c.probability = meta.probability;
    // Retry cost, like kernel cost, stays attributed to the
    // representative; the verdict (quarantined included) fans out.
    c.attempts = 1;
    c.retry_log.clear();
    c.sim_seconds = 0.0;
    c.nr_iterations = 0;
    c.steps_saved = 0;
    c.steps_integrated = 0;
    c.steps_interpolated = 0;
    c.bypass_solves = 0;
    c.sparse_refactors = 0;
    c.device_stamp_skips = 0;
    c.symbolic_cache_hits = 0;
    c.ordering_seconds = 0.0;
    c.numeric_seconds = 0.0;
    return c;
}

template <typename MakeCircuit>
CampaignResult run_generic(const Circuit& ckt, std::vector<JobMeta> metas,
                           MakeCircuit make, const CampaignOptions& opt) {
    CampaignResult res;
    const TranSpec ts = resolve_tran(ckt, opt);
    res.tstop = ts.tstop;
    const std::size_t n = metas.size();
    res.batch.threads = std::max(1u, opt.threads);
    if (obs::events_enabled())
        obs::emit_event(
            "campaign_start",
            {obs::arg("analysis", std::string("tran")),
             obs::arg("faults", static_cast<std::int64_t>(n)),
             obs::arg("threads",
                      static_cast<std::int64_t>(res.batch.threads))});

    // Result store: load whatever a previous run of this exact campaign
    // (or the incremental engine's seeding) already wrote -- the nominal
    // reference and finished verdicts.
    std::unique_ptr<batch::ResultStore> store;
    if (!opt.result_store.empty()) {
        const std::uint64_t manifest =
            opt.manifest_override ? *opt.manifest_override
                                  : manifest_hash(ckt, metas, ts, opt);
        if (!opt.resume) {
            std::error_code ec;
            std::filesystem::remove(opt.result_store, ec);
        }
        store = std::make_unique<batch::ResultStore>(opt.result_store,
                                                     manifest,
                                                     opt.store_durability);
    }

    std::atomic<std::size_t> store_errors{0};
    // Contained store write: an I/O failure (disk full, injected torn
    // write) must not fail the campaign -- the record is already computed
    // and stays in memory; it is merely not persisted, so a later resume
    // recomputes it.  The failure is counted and published.
    auto contained_write = [&](int fault_id, auto&& write) {
        try {
            write();
        } catch (const std::exception& e) {
            store_errors.fetch_add(1, std::memory_order_relaxed);
            if (obs::metrics_enabled())
                obs::Registry::global()
                    .counter("store.append_errors")
                    .add(1);
            if (obs::events_enabled())
                obs::emit_event(
                    "store_error",
                    {obs::arg("fault_id", static_cast<std::int64_t>(fault_id)),
                     obs::arg("error", std::string(e.what()))});
        }
    };

    // Nominal reference first (paper, ch. V); the baseline Waveforms are
    // shared read-only by every worker.  Its kernel's elimination order is
    // the campaign-shared symbolic analysis: every faulty variant adopts
    // it (patched with its injected unknowns) instead of re-running the
    // one-time ordering -- null when the nominal kernel is dense, in which
    // case every variant simply analyzes itself as before.  A store bound
    // to this manifest that already holds the nominal record proves the
    // circuit, grid and knobs unchanged, so the record replaces the
    // simulation bit for bit.
    CampaignOptions wopt = opt;
    std::optional<batch::NominalRecord> stored;
    if (store) stored = store->take_nominal();
    if (stored) {
        res.nominal = std::move(stored->waveforms);
        if (opt.share_symbolic && stored->symbolic)
            wopt.sim.symbolic_cache =
                std::make_shared<const spice::SymbolicCache>(
                    std::move(*stored->symbolic));
        res.batch.nominal_reused = true;
        if (obs::metrics_enabled())
            obs::Registry::global().counter("campaign.nominal_reused").add(1);
        if (obs::events_enabled())
            obs::emit_event(
                "nominal_reused",
                {obs::arg("source", std::string(stored->carried
                                                    ? "baseline"
                                                    : "resume"))});
    } else {
        batch::NominalRecord rec;
        std::shared_ptr<const spice::SymbolicCache> symbolic;
        {
            obs::Span nsp(obs::Phase::Nominal);
            const auto t0 = std::chrono::steady_clock::now();
            Simulator sim(ckt, opt.sim);
            nsp.arg("unknowns", static_cast<std::int64_t>(sim.unknowns()));
            rec.waveforms = sim.tran(ts);
            res.nominal_seconds = seconds_since(t0);
            res.batch.steps_integrated = sim.stats().tran_steps;
            res.batch.steps_interpolated =
                sim.stats().grid_points_interpolated;
            res.batch.bypass_solves = sim.stats().bypass_solves;
            res.batch.sparse_refactors = sim.stats().sparse_refactors;
            res.batch.device_stamp_skips = sim.stats().device_stamp_skips;
            res.batch.ordering_seconds = sim.stats().ordering_seconds;
            res.batch.numeric_seconds = sim.stats().numeric_seconds;
            symbolic = sim.symbolic_cache();
        }
        if (opt.share_symbolic) wopt.sim.symbolic_cache = symbolic;
        if (store) {
            if (symbolic) rec.symbolic = *symbolic;
            contained_write(0, [&] { store->append_nominal(rec); });
        }
        res.nominal = std::move(rec.waveforms);
    }

    res.results.resize(n);
    std::vector<char> done(n, 0);

    if (store) {
        std::map<int, std::size_t> by_id;
        for (std::size_t i = 0; i < n; ++i) by_id[metas[i].fault_id] = i;
        for (const FaultSimResult& r : store->loaded()) {
            const auto it = by_id.find(r.fault_id);
            if (it == by_id.end() || done[it->second]) continue;
            res.results[it->second] = r;
            done[it->second] = 1;
            // Provenance split: a record the incremental engine carried
            // across a layout revision is not prior-run work of *this*
            // campaign, and is reported separately.
            if (r.carried)
                ++res.batch.carried_from_store;
            else
                ++res.batch.resumed;
            if (obs::events_enabled())
                obs::emit_event(
                    "fault_resumed",
                    {obs::arg("fault_id",
                              static_cast<std::int64_t>(r.fault_id)),
                     obs::arg("carried",
                              static_cast<std::int64_t>(r.carried)),
                     obs::arg("verdict", std::string(verdict_of(r)))});
        }
    }

    // Snapshot of which slots were filled from the store, before workers
    // start marking their own slots done.
    const std::vector<char> resumed_here = done;

    // Equivalence classes over the *whole* list (so a resumed member can
    // still donate its verdict to unfinished members of its class).
    std::vector<batch::CollapsedClass> classes;
    if (opt.collapse) {
        std::vector<std::string> sigs;
        sigs.reserve(n);
        for (const JobMeta& m : metas) sigs.push_back(m.signature);
        classes = batch::collapse_by_signature(sigs);
    } else {
        classes = batch::singleton_classes(n);
    }
    res.batch.classes = classes.size();

    // One job per class that still has unfinished members; the scheduler
    // simulates the likeliest faults first so weighted coverage converges
    // early.
    std::vector<batch::Job> jobs = batch::class_jobs(
        classes, [&](std::size_t m) { return metas[m].probability; });
    std::erase_if(jobs, [&](const batch::Job& j) {
        const auto& members = classes[j.index].members;
        return std::all_of(members.begin(), members.end(),
                           [&](std::size_t m) { return done[m] != 0; });
    });
    if (obs::events_enabled())
        for (const batch::Job& j : jobs) {
            const auto& members = classes[j.index].members;
            const auto rep =
                std::find_if(members.begin(), members.end(),
                             [&](std::size_t m) { return !done[m]; });
            if (rep == members.end()) continue;
            obs::emit_event(
                "fault_scheduled",
                {obs::arg("fault_id", static_cast<std::int64_t>(
                                          metas[*rep].fault_id)),
                 obs::arg("priority", j.priority),
                 obs::arg("class_size",
                          static_cast<std::int64_t>(members.size()))});
        }

    std::atomic<std::size_t> kernel_runs{0};
    std::atomic<std::size_t> retries{0};
    auto safe_append = [&](const FaultSimResult& r) {
        if (store) contained_write(r.fault_id, [&] { store->append(r); });
    };
    auto run_class = [&](std::size_t c) {
        const std::vector<std::size_t>& members = classes[c].members;

        // A member finished by a previous run seeds the class verdict.
        const FaultSimResult* verdict = nullptr;
        for (std::size_t m : members)
            if (done[m]) {
                verdict = &res.results[m];
                break;
            }

        if (!verdict) {
            const std::size_t rep =
                *std::find_if(members.begin(), members.end(),
                              [&](std::size_t m) { return !done[m]; });
            if (obs::events_enabled())
                obs::emit_event(
                    "fault_started",
                    {obs::arg("fault_id", static_cast<std::int64_t>(
                                              metas[rep].fault_id))});
            // The fault span brackets injection, simulation and the
            // store append, so the store_append child span nests inside.
            obs::Span sp(obs::Phase::FaultSim);
            FaultSimResult base;
            base.fault_id = metas[rep].fault_id;
            base.description = metas[rep].description;
            base.probability = metas[rep].probability;
            FaultSimResult r;
            try {
                const Circuit faulty = make(rep);
                // Counted only once injection succeeded: a fault that
                // cannot even be injected never reaches the kernel.
                kernel_runs.fetch_add(1, std::memory_order_relaxed);
                r = simulate_with_retries(faulty, res.nominal, ts, wopt,
                                          base.fault_id, retries);
            } catch (const std::exception& e) {
                // Injection failure (or any exception the kernel path did
                // not already contain): the fault retires `failed` --
                // injection is deterministic, so the retry ladder has
                // nothing to offer.
                r.simulated = false;
                r.error = e.what();
            }
            r.fault_id = base.fault_id;
            r.description = base.description;
            r.probability = base.probability;
            res.results[rep] = std::move(r);
            done[rep] = 1;
            safe_append(res.results[rep]);
            publish_fault_obs(sp, res.results[rep], metas[rep].signature);
            verdict = &res.results[rep];
        }

        for (std::size_t m : members) {
            if (done[m]) continue;
            res.results[m] = fan_out(*verdict, metas[m]);
            done[m] = 1;
            safe_append(res.results[m]);
            if (obs::metrics_enabled())
                obs::Registry::global()
                    .counter("campaign.fanned_out")
                    .add(1);
            if (obs::events_enabled())
                obs::emit_event(
                    "fault_retired",
                    {obs::arg("fault_id",
                              static_cast<std::int64_t>(
                                  metas[m].fault_id)),
                     obs::arg("verdict",
                              std::string(verdict_of(res.results[m]))),
                     obs::arg("via", std::string("collapse"))});
        }
    };

    const batch::Scheduler scheduler(opt.threads);
    // RecordAndContinue: the per-fault handling above already retires
    // every failure; an exception still reaching the scheduler (an
    // injected worker fault, an allocation failure between faults) is
    // recorded and the remaining faults keep their verdicts.
    const batch::SchedulerStats sstats =
        scheduler.run(jobs, run_class, batch::ErrorPolicy::RecordAndContinue);
    res.batch.steals = sstats.steals;
    res.batch.job_errors = sstats.failed_jobs;
    res.batch.retries = retries.load();
    res.batch.store_errors = store_errors.load();
    // Kernel simulations actually run -- a class completed purely by
    // fanning out a resumed member's verdict does not count.
    res.batch.scheduled = kernel_runs.load();

    // Aggregate kernel cost over *this run's* work only: records loaded
    // from the store carry their original sim_seconds/steps_saved in the
    // per-fault results, but a warm resume must not re-report them as
    // kernel time spent now.
    for (std::size_t i = 0; i < n; ++i) {
        if (resumed_here[i]) continue;
        const FaultSimResult& r = res.results[i];
        res.total_seconds += r.sim_seconds;
        res.batch.steps_integrated += r.steps_integrated;
        res.batch.steps_interpolated += r.steps_interpolated;
        res.batch.bypass_solves += r.bypass_solves;
        res.batch.sparse_refactors += r.sparse_refactors;
        res.batch.device_stamp_skips += r.device_stamp_skips;
        res.batch.symbolic_cache_hits += r.symbolic_cache_hits;
        res.batch.ordering_seconds += r.ordering_seconds;
        res.batch.numeric_seconds += r.numeric_seconds;
        if (r.steps_saved > 0) {
            ++res.batch.early_aborts;
            res.batch.steps_saved += r.steps_saved;
        }
        if (r.quarantined) ++res.batch.quarantined;
    }
    res.batch.collapsed = n - classes.size();
    if (obs::events_enabled())
        obs::emit_event(
            "campaign_end",
            {obs::arg("faults", static_cast<std::int64_t>(n)),
             obs::arg("detected",
                      static_cast<std::int64_t>(res.detected())),
             obs::arg("scheduled",
                      static_cast<std::int64_t>(res.batch.scheduled)),
             obs::arg("resumed",
                      static_cast<std::int64_t>(res.batch.resumed)),
             obs::arg("carried_from_store",
                      static_cast<std::int64_t>(
                          res.batch.carried_from_store))});
    return res;
}

std::vector<JobMeta> fault_metas(const lift::FaultList& faults) {
    std::vector<JobMeta> metas;
    metas.reserve(faults.size());
    for (const lift::Fault& f : faults.faults) {
        JobMeta m;
        m.fault_id = f.id;
        m.description = f.describe();
        m.probability = f.probability;
        m.signature = batch::effect_signature(f);
        metas.push_back(std::move(m));
    }
    return metas;
}

} // namespace

CampaignResult run_campaign(const Circuit& ckt, const lift::FaultList& faults,
                            const CampaignOptions& opt) {
    return run_generic(
        ckt, fault_metas(faults),
        [&](std::size_t i) {
            return inject(ckt, faults.faults[i], opt.injection);
        },
        opt);
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
    return run_generic(
        ckt, std::move(metas),
        [&](std::size_t i) { return inject_parametric(ckt, faults[i]); },
        opt);
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
