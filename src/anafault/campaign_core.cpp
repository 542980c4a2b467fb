#include "anafault/campaign_core.h"

#include "batch/collapse.h"
#include "batch/result_store.h"
#include "batch/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>

namespace catlift::anafault {

const char* verdict_name(const FaultSimResult& r) {
    if (r.detect_time) return "detected";
    if (r.simulated) return "undetected";
    return r.quarantined ? "quarantined" : "failed";
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

void record_kernel_stats(const spice::Simulator& sim, FaultSimResult& r) {
    const spice::SimStats& s = sim.stats();
    r.matrix_size = sim.unknowns();
    r.nr_iterations = s.nr_iterations;
    r.steps_saved = s.steps_saved;
    r.steps_integrated = s.tran_steps;
    r.steps_interpolated = s.grid_points_interpolated;
    r.bypass_solves = s.bypass_solves;
    r.sparse_refactors = s.sparse_refactors;
    r.device_stamp_skips = s.device_stamp_skips;
    r.symbolic_cache_hits = s.symbolic_cache_hits;
    r.ordering_seconds = s.ordering_seconds;
    r.numeric_seconds = s.numeric_seconds;
}

namespace {

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::int64_t i64(std::size_t v) { return static_cast<std::int64_t>(v); }

/// Registry counters of the per-fault path, looked up once per process
/// (the registry keeps every counter alive; reset() only zeroes them).
struct FaultCounters {
    obs::Counter& retired;
    obs::Counter& detected;
    obs::Counter& nr_iterations;
    obs::Counter& steps_integrated;
    obs::Counter& steps_saved;
    obs::Counter& freq_points_saved;
    obs::Counter& bypass_solves;
    obs::Counter& device_stamp_skips;
    obs::Counter& symbolic_cache_hits;
    obs::Counter& fanned_out;
    obs::Counter& retries;
    obs::Counter& quarantined;
    obs::Counter& append_errors;
};

FaultCounters& fault_counters() {
    obs::Registry& reg = obs::Registry::global();
    static FaultCounters c{reg.counter("campaign.retired"),
                           reg.counter("campaign.detected"),
                           reg.counter("campaign.nr_iterations"),
                           reg.counter("campaign.steps_integrated"),
                           reg.counter("campaign.steps_saved"),
                           reg.counter("campaign.freq_points_saved"),
                           reg.counter("campaign.bypass_solves"),
                           reg.counter("campaign.device_stamp_skips"),
                           reg.counter("campaign.symbolic_cache_hits"),
                           reg.counter("campaign.fanned_out"),
                           reg.counter("campaign.retries"),
                           reg.counter("campaign.quarantined"),
                           reg.counter("store.append_errors")};
    return c;
}

/// Run one fault through the retry/degradation ladder: the campaign's own
/// configuration first, then each rung of anafault/retry.h until an
/// attempt simulates, fails deterministically, or the ladder is exhausted
/// (-> quarantined).  Every failed attempt lands in the retry log; every
/// re-attempt is counted and published.  sim_seconds is the wall time of
/// every attempt together.
FaultSimResult run_ladder(AnalysisPolicy& policy,
                          const netlist::Circuit& faulty,
                          const spice::SimOptions& base_sim, int max_retries,
                          std::size_t slot, int fault_id,
                          std::atomic<std::size_t>& retries) {
    const int attempts_allowed = 1 + std::max(0, max_retries);
    FaultSimResult r;
    std::string retry_log;
    double seconds = 0.0;
    bool retryable = true;
    for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
        if (attempt > 0) {
            retries.fetch_add(1, std::memory_order_relaxed);
            if (obs::metrics_enabled()) fault_counters().retries.add(1);
            if (obs::events_enabled())
                obs::emit_event(
                    "fault_retry",
                    {obs::arg("fault_id", static_cast<std::int64_t>(fault_id)),
                     obs::arg("attempt",
                              static_cast<std::int64_t>(attempt + 1)),
                     obs::arg("config", attempt_label(attempt)),
                     obs::arg("error", r.error)});
        }
        FaultSimResult a;
        const auto t0 = std::chrono::steady_clock::now();
        try {
            retryable = policy.attempt(
                faulty,
                attempt == 0 ? base_sim : degrade_sim(base_sim, attempt),
                slot, a);
        } catch (const std::exception& e) {
            // std::exception, not just catlift::Error: a stray
            // std::out_of_range (or any library exception) must retire
            // this fault, never escape to the scheduler.
            a.simulated = false;
            a.error = e.what();
            retryable = true;
        }
        seconds += seconds_since(t0);
        a.attempts = static_cast<std::uint32_t>(attempt + 1);
        r = std::move(a);
        if (r.simulated || !retryable) break;
        log_attempt(retry_log, attempt, r.error);
    }
    r.sim_seconds = seconds;
    r.retry_log = std::move(retry_log);
    if (!r.simulated && retryable && max_retries > 0) {
        r.quarantined = true;
        if (obs::metrics_enabled()) fault_counters().quarantined.add(1);
        if (obs::events_enabled())
            obs::emit_event(
                "fault_quarantined",
                {obs::arg("fault_id", static_cast<std::int64_t>(fault_id)),
                 obs::arg("attempts", static_cast<std::int64_t>(r.attempts)),
                 obs::arg("error", r.error)});
    }
    return r;
}

/// Close a fault-simulation span and publish the per-fault observability
/// record: span args (the per-fault slice of the campaign counters, so a
/// trace viewer -- or the aggregation test -- can reconstruct the batch
/// totals from the spans alone), registry counters incremented by exactly
/// the same values, and the retirement event.
void publish_fault_obs(obs::Span& sp, const AnalysisPolicy& policy,
                       std::size_t slot, const FaultSimResult& r,
                       const std::string& signature) {
    const unsigned mask = obs::enabled_mask();
    const bool ev = obs::events_enabled();
    if (mask == 0 && !ev) {
        sp.end();
        return;
    }
    const std::string verdict = verdict_name(r);
    if (mask & obs::kTracingBit) {
        sp.arg("fault_id", static_cast<std::int64_t>(r.fault_id));
        sp.arg("signature", signature);
        sp.arg("verdict", verdict);
        if (r.detect_time && policy.detect_arg())
            sp.arg(policy.detect_arg(), *r.detect_time);
        sp.arg(policy.saved_arg(), i64(r.steps_saved));
        sp.arg("nr_iterations", i64(r.nr_iterations));
        sp.arg("steps_integrated", i64(r.steps_integrated));
        sp.arg("bypass_solves", i64(r.bypass_solves));
        sp.arg("device_stamp_skips", i64(r.device_stamp_skips));
        sp.arg("symbolic_cache_hits", i64(r.symbolic_cache_hits));
        sp.arg("sim_seconds", r.sim_seconds);
        sp.arg("attempts", static_cast<std::int64_t>(r.attempts));
        policy.span_args(sp, slot, r);
    }
    sp.end();
    if (mask & obs::kMetricsBit) {
        FaultCounters& c = fault_counters();
        c.retired.add(1);
        if (r.detect_time) c.detected.add(1);
        c.nr_iterations.add(r.nr_iterations);
        c.steps_integrated.add(r.steps_integrated);
        (std::strcmp(policy.saved_arg(), "freq_points_saved") == 0
             ? c.freq_points_saved
             : c.steps_saved)
            .add(r.steps_saved);
        c.bypass_solves.add(r.bypass_solves);
        c.device_stamp_skips.add(r.device_stamp_skips);
        c.symbolic_cache_hits.add(r.symbolic_cache_hits);
    }
    if (ev) {
        std::vector<obs::TraceArg> fields{
            obs::arg("fault_id", static_cast<std::int64_t>(r.fault_id)),
            obs::arg("verdict", verdict),
            obs::arg("sim_seconds", r.sim_seconds)};
        if (r.detect_time && policy.detect_arg())
            fields.push_back(obs::arg(policy.detect_arg(), *r.detect_time));
        obs::emit_event("fault_retired", fields);
    }
}

/// Copy a class representative's verdict to another member of the same
/// equivalence class: identity fields come from the member; kernel cost
/// and retry cost stay attributed to the representative alone, while the
/// verdict (quarantined included) fans out.
FaultSimResult fan_out(const FaultSimResult& rep, const JobMeta& meta) {
    FaultSimResult c = rep;
    c.fault_id = meta.fault_id;
    c.description = meta.description;
    c.probability = meta.probability;
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

} // namespace

CoreResult run_campaign_core(AnalysisPolicy& policy, const CoreConfig& cfg,
                             const std::vector<JobMeta>& metas,
                             const MakeFaulty& make_faulty,
                             StoreBinding binding) {
    CoreResult res;
    const std::size_t n = metas.size();
    res.batch.threads = std::max(1u, cfg.threads);
    if (obs::events_enabled())
        obs::emit_event(
            "campaign_start",
            {obs::arg("analysis", std::string(policy.analysis())),
             obs::arg("faults", i64(n)),
             obs::arg("threads",
                      static_cast<std::int64_t>(res.batch.threads))});

    std::atomic<std::size_t> store_errors{0};
    std::unique_ptr<batch::ResultStore> store;
    // Contained store write: an I/O failure (disk full, injected torn
    // write) must not fail the campaign -- the record is already computed
    // and stays in memory; it is merely not persisted, so a later resume
    // recomputes it.  The failure is counted and published.
    auto contained_write = [&](int fault_id, auto&& write) {
        if (!store) return;
        try {
            write();
        } catch (const std::exception& e) {
            store_errors.fetch_add(1, std::memory_order_relaxed);
            if (obs::metrics_enabled()) fault_counters().append_errors.add(1);
            if (obs::events_enabled())
                obs::emit_event(
                    "store_error",
                    {obs::arg("fault_id", static_cast<std::int64_t>(fault_id)),
                     obs::arg("error", std::string(e.what()))});
        }
    };

    // Result store: whatever a previous run of this exact campaign already
    // wrote (the nominal reference and finished verdicts), plus the
    // incremental engine's carry seed -- nominal first, then the carried
    // records the store does not hold yet -- so a crash mid-campaign never
    // costs them and the store resumes (and serves as the next revision's
    // baseline) as if a cold full campaign had written it.
    batch::NominalRecord* const record = policy.nominal_record();
    std::optional<batch::NominalRecord> stored;
    if (!cfg.result_store.empty()) {
        if (!cfg.resume) {
            std::error_code ec;
            std::filesystem::remove(cfg.result_store, ec);
        }
        store = std::make_unique<batch::ResultStore>(
            cfg.result_store, binding.manifest, cfg.store_durability);
        if (record) stored = store->take_nominal();
        if (!stored && binding.nominal) {
            stored = std::move(binding.nominal);
            contained_write(0, [&] { store->append_nominal(*stored); });
        }
        std::set<int> present;
        for (const FaultSimResult& r : store->loaded())
            present.insert(r.fault_id);
        for (const FaultSimResult& r : binding.carried)
            if (!present.count(r.fault_id))
                contained_write(r.fault_id, [&] { store->append(r); });
    }

    // Nominal reference first (paper, ch. V); it is shared read-only by
    // every worker.  Its kernel's elimination order is the campaign-shared
    // symbolic analysis: every faulty variant adopts it (patched with its
    // injected unknowns) instead of re-running the one-time ordering --
    // null when the nominal kernel is dense.  A store bound to this
    // manifest that already holds the nominal record proves the circuit,
    // grid and knobs unchanged, so the record replaces the simulation bit
    // for bit.
    std::shared_ptr<const spice::SymbolicCache> symbolic;
    if (record && stored) {
        *record = std::move(*stored);
        if (record->symbolic)
            symbolic = std::make_shared<const spice::SymbolicCache>(
                std::move(*record->symbolic));
        record->symbolic.reset();
        res.batch.nominal_reused = true;
        if (obs::metrics_enabled())
            obs::Registry::global().counter("campaign.nominal_reused").add(1);
        if (obs::events_enabled())
            obs::emit_event(
                "nominal_reused",
                {obs::arg("source", std::string(record->carried ? "baseline"
                                                                : "resume"))});
    } else {
        NominalRun nominal;
        {
            obs::Span nsp(obs::Phase::Nominal);
            const auto t0 = std::chrono::steady_clock::now();
            nominal = policy.nominal();
            res.nominal_seconds = seconds_since(t0);
            nsp.arg("unknowns", i64(nominal.stats.matrix_size));
        }
        const spice::SimStats& s = nominal.stats;
        res.batch.steps_integrated = s.tran_steps;
        res.batch.steps_interpolated = s.grid_points_interpolated;
        res.batch.bypass_solves = s.bypass_solves;
        res.batch.sparse_refactors = s.sparse_refactors;
        res.batch.device_stamp_skips = s.device_stamp_skips;
        res.batch.ordering_seconds = s.ordering_seconds;
        res.batch.numeric_seconds = s.numeric_seconds;
        symbolic = std::move(nominal.symbolic);
        if (record && store) {
            if (symbolic) record->symbolic = *symbolic;
            contained_write(0, [&] { store->append_nominal(*record); });
            record->symbolic.reset();
        }
    }
    spice::SimOptions fault_sim = cfg.sim;
    if (cfg.share_symbolic) fault_sim.symbolic_cache = symbolic;

    res.results.resize(n);
    res.source.resize(n);
    std::vector<char> done(n, 0);
    if (store) {
        std::map<int, std::size_t> by_id;
        for (std::size_t i = 0; i < n; ++i) by_id[metas[i].fault_id] = i;
        for (const FaultSimResult& r : store->loaded()) {
            const auto it = by_id.find(r.fault_id);
            if (it == by_id.end() || done[it->second]) continue;
            res.results[it->second] = r;
            res.source[it->second] = it->second;
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
                     obs::arg("carried", static_cast<std::int64_t>(r.carried)),
                     obs::arg("verdict", std::string(verdict_name(r)))});
        }
    }
    // Snapshot of which slots were filled from the store, before workers
    // start marking their own slots done.
    const std::vector<char> resumed_here = done;

    // Equivalence classes over the *whole* list (so a resumed member can
    // still donate its verdict to unfinished members of its class).
    std::vector<batch::CollapsedClass> classes;
    if (cfg.collapse) {
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
                {obs::arg("fault_id",
                          static_cast<std::int64_t>(metas[*rep].fault_id)),
                 obs::arg("priority", j.priority),
                 obs::arg("class_size", i64(members.size()))});
        }

    std::atomic<std::size_t> kernel_runs{0};
    std::atomic<std::size_t> retries{0};
    auto safe_append = [&](const FaultSimResult& r) {
        contained_write(r.fault_id, [&] { store->append(r); });
    };
    auto run_class = [&](std::size_t c) {
        const std::vector<std::size_t>& members = classes[c].members;

        // A member finished by a previous run seeds the class verdict.
        const auto finished = std::find_if(
            members.begin(), members.end(),
            [&](std::size_t m) { return done[m] != 0; });
        std::size_t from = finished != members.end() ? *finished : n;

        if (from == n) {
            from = *std::find_if(members.begin(), members.end(),
                                 [&](std::size_t m) { return !done[m]; });
            const JobMeta& meta = metas[from];
            if (obs::events_enabled())
                obs::emit_event(
                    "fault_started",
                    {obs::arg("fault_id",
                              static_cast<std::int64_t>(meta.fault_id))});
            // The fault span brackets injection, simulation and the
            // store append, so the store_append child span nests inside.
            obs::Span sp(obs::Phase::FaultSim);
            FaultSimResult r;
            try {
                const netlist::Circuit faulty = make_faulty(from);
                // Counted only once injection succeeded: a fault that
                // cannot even be injected never reaches the kernel.
                kernel_runs.fetch_add(1, std::memory_order_relaxed);
                r = run_ladder(policy, faulty, fault_sim, cfg.max_retries,
                               from, meta.fault_id, retries);
            } catch (const std::exception& e) {
                // Injection failure (or any exception the ladder did not
                // already contain): the fault retires `failed` --
                // injection is deterministic, so the retry ladder has
                // nothing to offer.
                r = FaultSimResult{};
                r.error = e.what();
            }
            r.fault_id = meta.fault_id;
            r.description = meta.description;
            r.probability = meta.probability;
            res.results[from] = std::move(r);
            res.source[from] = from;
            done[from] = 1;
            safe_append(res.results[from]);
            publish_fault_obs(sp, policy, from, res.results[from],
                              meta.signature);
        }

        for (std::size_t m : members) {
            if (done[m]) continue;
            res.results[m] = fan_out(res.results[from], metas[m]);
            res.source[m] = from;
            done[m] = 1;
            safe_append(res.results[m]);
            if (obs::metrics_enabled()) fault_counters().fanned_out.add(1);
            if (obs::events_enabled())
                obs::emit_event(
                    "fault_retired",
                    {obs::arg("fault_id",
                              static_cast<std::int64_t>(metas[m].fault_id)),
                     obs::arg("verdict",
                              std::string(verdict_name(res.results[m]))),
                     obs::arg("via", std::string("collapse"))});
        }
    };

    const batch::Scheduler scheduler(cfg.threads);
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
    res.batch.collapsed = n - classes.size();

    // Aggregate kernel cost over *this run's* work only: records loaded
    // from the store carry their original cost in the per-fault results,
    // but a warm resume must not re-report it as kernel time spent now.
    std::size_t detected = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const FaultSimResult& r = res.results[i];
        if (r.detect_time) ++detected;
        if (resumed_here[i]) continue;
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
    if (obs::events_enabled())
        obs::emit_event(
            "campaign_end",
            {obs::arg("faults", i64(n)), obs::arg("detected", i64(detected)),
             obs::arg("scheduled", i64(res.batch.scheduled)),
             obs::arg("resumed", i64(res.batch.resumed)),
             obs::arg("carried_from_store",
                      i64(res.batch.carried_from_store))});
    return res;
}

} // namespace catlift::anafault
