// anafaultc -- the AnaFAULT tool as a command-line program.
//
// Reads a SPICE deck (with its .tran card) and a LIFT fault list, runs the
// automatic fault simulation cycle for every fault, and reports coverage.
//
//   anafaultc <deck.sp> <faults.flt> [options]
//     --observe <node>   monitored node (repeatable; default: .save nodes)
//     --supply <vsrc>    also monitor the branch current of this source
//     --model <m>        hard fault model: resistor (default) | source
//     --v-tol <V>        amplitude tolerance (default 2.0)
//     --t-tol <s>        time tolerance (default 0.2e-6)
//     --threads <n>      parallel workers (default 1)
//     --store <file>     append-only result store (crash-resumable log)
//     --resume           reuse finished faults from --store
//     --workers <n>      multi-process fabric: shard the fault list by id
//                        range across n supervised worker processes (each
//                        a self-exec of this binary with --worker), merge
//                        the shards into --store and report as usual.
//                        Workers that crash or hang are respawned with
//                        backoff; a fault that kills its worker twice in
//                        a row is retired `quarantined` (requires --store)
//     --worker-timeout <s>  SIGKILL a worker silent for s seconds
//                        (default 30)
//     --worker-failpoints <slot[.spawn]>=<spec>  arm <spec> in one worker
//                        slot (every spawn, or only spawn index <spawn>);
//                        repeatable -- how the kill-worker CI smoke aims
//                        torn_crash / poison at specific workers
//     --worker           (internal) run as a fabric worker process
//     --fault-range <lo:hi>  (internal) fault-id range of this worker
//     --heartbeat-fd <fd>    (internal) supervision pipe fd
//     --merge-shards <base>  fold every <base>.shard-* into the canonical
//                        store at <base> for the campaign of the given
//                        deck + fault list, report, and exit
//     --baseline-store <file>   result store of a previous layout revision
//     --baseline-faults <file>  fault list that baseline store was run for;
//                               with --baseline-store, the campaign runs
//                               incrementally: signature-identical faults
//                               carry their baseline verdicts, only the
//                               added/changed remainder is simulated, and
//                               --store receives the merged (full) log
//     --diff-tol <frac>  probability tolerance of the revision diff (0.05)
//     --no-early-abort   integrate every faulty run to tstop
//     --no-collapse      skip the fault-collapsing pre-pass
//     --no-adaptive      fixed-grid integration (no LTE stride control)
//     --lte-tol <tol>    adaptive LTE acceptance tolerance (default 5e-3)
//     --no-sparse        force the dense kernel at every size
//     --sparse           force the sparse kernel at every size
//     --no-bypass        disable the modified-Newton Jacobian bypass
//     --bypass-tol <tol> bypass movement tolerance (default 1e-7)
//     --device-bypass-tol <tol>  per-device stamp-reuse tolerance
//                        (campaign default 0: replay only bitwise-unchanged
//                        devices -- margin-safe; raise to skip settled
//                        devices' model evaluations)
//     --no-share-symbolic  every faulty kernel runs its own ordering
//                        instead of adopting the nominal one
//     --wall-budget <s>  per-fault wall-clock deadline (0 = unlimited)
//     --nr-budget <n>    per-fault total-NR-iteration budget (0 = unlimited)
//     --step-budget <n>  per-fault transient-step budget (0 = unlimited)
//     --max-retries <n>  degraded re-attempts before quarantine (default 4;
//                        0 = first failure retires the fault as failed)
//     --store-durability <d>  flush (default: survives process death) |
//                        fsync (survives power loss; one fsync per append)
//     --repair-store <file>  offline store repair: trim the file to its
//                        last intact record, report records kept / bytes
//                        dropped, and exit (no deck/fault list needed);
//                        every <file>.shard-* gets the same treatment,
//                        reported as a per-shard records/bytes-kept table
//     --failpoints <spec>  arm deterministic failpoints, e.g.
//                        "store.append=torn@3;kernel.factor=singular"
//                        (also read from env CATLIFT_FAILPOINTS;
//                        see docs/robustness.md for the site catalog)
//     --stats            batch/kernel counter block (scheduler, bypass,
//                        symbolic cache, ordering/numeric time split,
//                        per-phase latency percentiles)
//     --trace <file>     record per-fault spans and write a Chrome
//                        trace_event JSON (open in Perfetto)
//     --metrics-json <file>  write the metrics registry snapshot as JSON
//     --events <file>    stream campaign lifecycle events as JSONL
//     --progress         live [k/n] progress line on stderr
//     --table            per-fault result table
//     --plot             ASCII coverage plot
//     --csv <file>       coverage curve CSV

#include "anafault/campaign.h"
#include "anafault/incremental.h"
#include "anafault/report.h"
#include "anafault/worker.h"
#include "batch/fabric.h"
#include "batch/shard.h"
#include "lift/fault.h"
#include "netlist/parser.h"
#include "obs/obs.h"
#include "robust/failpoint.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace {

[[noreturn]] void usage() {
    std::fprintf(
        stderr,
        "usage: anafaultc <deck.sp> <faults.flt> [--observe node]... "
        "[--supply vsrc] [--model resistor|source] [--v-tol V] [--t-tol s] "
        "[--threads n] [--store file] [--resume] "
        "[--workers n] [--worker-timeout s] "
        "[--worker-failpoints slot[.spawn]=spec] [--merge-shards base] "
        "[--baseline-store file --baseline-faults file] [--diff-tol frac] "
        "[--no-early-abort] "
        "[--no-collapse] [--no-adaptive] [--lte-tol tol] [--no-sparse] "
        "[--sparse] [--no-bypass] [--bypass-tol tol] "
        "[--device-bypass-tol tol] "
        "[--no-share-symbolic] [--wall-budget s] [--nr-budget n] "
        "[--step-budget n] [--max-retries n] "
        "[--store-durability flush|fsync] [--repair-store file] "
        "[--failpoints spec] [--stats] [--trace file] "
        "[--metrics-json file] [--events file] [--progress] [--table] "
        "[--plot] [--csv file]\n");
    std::exit(2);
}

catlift::lift::FaultList read_faults_file(const std::string& path) {
    std::ifstream f(path);
    if (!f.good()) throw catlift::Error("cannot open fault list " + path);
    return catlift::lift::read_faultlist(f);
}

/// Path of this very binary, for the fabric's worker self-exec.
std::string self_exe(const char* argv0) {
#if defined(__linux__)
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
#endif
    return argv0;
}

/// One --worker-failpoints directive: arm `spec` in worker `slot`, on
/// every spawn (spawn < 0) or only on spawn index `spawn`.
struct WorkerFailpoint {
    std::size_t slot = 0;
    int spawn = -1;
    std::string spec;
};

WorkerFailpoint parse_worker_failpoint(const std::string& s) {
    const auto eq = s.find('=');
    if (eq == std::string::npos || eq == 0) usage();
    const std::string key = s.substr(0, eq);
    WorkerFailpoint wf;
    wf.spec = s.substr(eq + 1);
    try {
        const auto dot = key.find('.');
        wf.slot = std::stoull(key.substr(0, dot));
        if (dot != std::string::npos)
            wf.spawn = std::stoi(key.substr(dot + 1));
    } catch (const std::exception&) {
        usage();
    }
    if (wf.spec.empty()) usage();
    return wf;
}

/// Flags forwarded verbatim from the fabric parent to every worker:
/// everything that shapes the campaign (manifest or execution), nothing
/// that is per-process plumbing (store paths, reporting, failpoints).
const std::set<std::string>& forwarded_flags() {
    static const std::set<std::string> kForward = {
        "--observe", "--supply", "--model", "--v-tol", "--t-tol",
        "--threads", "--no-early-abort", "--no-collapse", "--no-adaptive",
        "--lte-tol", "--no-sparse", "--sparse", "--no-bypass",
        "--bypass-tol", "--device-bypass-tol",
        "--no-share-symbolic", "--wall-budget", "--nr-budget",
        "--step-budget", "--max-retries", "--store-durability"};
    return kForward;
}

} // namespace

int main(int argc, char** argv) {
    using namespace catlift;
    // Env-armed failpoints first, so an explicit --failpoints wins when
    // both name the same site.
    try {
        robust::arm_from_env();
    } catch (const Error& e) {
        std::fprintf(stderr, "anafaultc: CATLIFT_FAILPOINTS: %s\n", e.what());
        return 2;
    }
    std::string deck_path, flt_path, csv_path;
    std::string baseline_store, baseline_flt_path;
    std::string trace_path, metrics_path, events_path;
    std::string repair_path, merge_base, fault_range;
    unsigned fabric_workers = 0;
    double worker_timeout = 30.0;
    bool worker_mode = false;
    int heartbeat_fd = -1;
    std::vector<WorkerFailpoint> worker_failpoints;
    std::vector<std::string> forward_args;  ///< parent argv slices workers get
    double diff_tol = 0.05;
    anafault::CampaignOptions opt;
    opt.detection.observed.clear();
    bool table = false, plot = false, stats = false, progress = false;

    for (int i = 1; i < argc; ++i) {
        const int arg_start = i;
        const std::string a = argv[i];
        auto next = [&]() -> const char* {
            if (++i >= argc) usage();
            return argv[i];
        };
        if (a == "--observe") opt.detection.observed.push_back(next());
        else if (a == "--supply")
            opt.detection.observed_supplies.push_back(next());
        else if (a == "--model") {
            const std::string m = next();
            if (m == "resistor")
                opt.injection.model = anafault::HardFaultModel::Resistor;
            else if (m == "source")
                opt.injection.model = anafault::HardFaultModel::Source;
            else
                usage();
        } else if (a == "--v-tol") opt.detection.v_tol = std::atof(next());
        else if (a == "--t-tol") opt.detection.t_tol = std::atof(next());
        else if (a == "--threads")
            opt.threads = static_cast<unsigned>(std::atoi(next()));
        else if (a == "--store") opt.result_store = next();
        else if (a == "--resume") opt.resume = true;
        else if (a == "--workers") {
            fabric_workers = static_cast<unsigned>(std::atoi(next()));
            if (fabric_workers < 1) {
                std::fprintf(stderr,
                             "anafaultc: --workers needs a positive count\n");
                return 2;
            }
        }
        else if (a == "--worker-timeout") {
            worker_timeout = std::atof(next());
            if (!(worker_timeout > 0.0)) {
                std::fprintf(stderr,
                             "anafaultc: --worker-timeout needs a positive "
                             "number of seconds\n");
                return 2;
            }
        }
        else if (a == "--worker-failpoints")
            worker_failpoints.push_back(parse_worker_failpoint(next()));
        else if (a == "--worker") worker_mode = true;
        else if (a == "--fault-range") fault_range = next();
        else if (a == "--heartbeat-fd") heartbeat_fd = std::atoi(next());
        else if (a == "--merge-shards") merge_base = next();
        else if (a == "--baseline-store") baseline_store = next();
        else if (a == "--baseline-faults") baseline_flt_path = next();
        else if (a == "--diff-tol") {
            diff_tol = std::atof(next());
            if (!(diff_tol >= 0.0)) {
                std::fprintf(
                    stderr,
                    "anafaultc: --diff-tol needs a non-negative number\n");
                return 2;
            }
        }
        else if (a == "--no-early-abort") opt.early_abort = false;
        else if (a == "--no-collapse") opt.collapse = false;
        else if (a == "--no-adaptive") opt.sim.adaptive = false;
        else if (a == "--lte-tol") {
            opt.sim.lte_tol = std::atof(next());
            if (!(opt.sim.lte_tol > 0.0)) {
                std::fprintf(stderr,
                             "anafaultc: --lte-tol needs a positive number\n");
                return 2;
            }
        }
        else if (a == "--no-sparse")
            opt.sim.sparse_threshold = static_cast<std::size_t>(-1);
        else if (a == "--sparse") opt.sim.sparse_threshold = 0;
        else if (a == "--no-bypass") opt.sim.bypass = false;
        else if (a == "--bypass-tol") {
            opt.sim.bypass_tol = std::atof(next());
            if (!(opt.sim.bypass_tol > 0.0)) {
                std::fprintf(
                    stderr,
                    "anafaultc: --bypass-tol needs a positive number\n");
                return 2;
            }
        }
        else if (a == "--device-bypass-tol") {
            opt.sim.device_bypass_tol = std::atof(next());
            if (!(opt.sim.device_bypass_tol >= 0.0)) {
                std::fprintf(stderr,
                             "anafaultc: --device-bypass-tol needs a "
                             "non-negative number\n");
                return 2;
            }
        }
        else if (a == "--no-share-symbolic") opt.share_symbolic = false;
        else if (a == "--wall-budget") {
            opt.sim.max_wall_seconds = std::atof(next());
            if (!(opt.sim.max_wall_seconds >= 0.0)) {
                std::fprintf(stderr,
                             "anafaultc: --wall-budget needs a non-negative "
                             "number of seconds\n");
                return 2;
            }
        }
        else if (a == "--nr-budget")
            opt.sim.max_nr_total =
                static_cast<std::size_t>(std::atoll(next()));
        else if (a == "--step-budget")
            opt.sim.max_tran_steps =
                static_cast<std::size_t>(std::atoll(next()));
        else if (a == "--max-retries") {
            opt.max_retries = std::atoi(next());
            if (opt.max_retries < 0) {
                std::fprintf(stderr,
                             "anafaultc: --max-retries needs a non-negative "
                             "count\n");
                return 2;
            }
        }
        else if (a == "--store-durability") {
            const std::string d = next();
            if (d == "flush") opt.store_durability = batch::Durability::Flush;
            else if (d == "fsync")
                opt.store_durability = batch::Durability::Fsync;
            else
                usage();
        }
        else if (a == "--repair-store") repair_path = next();
        else if (a == "--failpoints") {
            try {
                robust::arm(next());
            } catch (const Error& e) {
                std::fprintf(stderr, "anafaultc: %s\n", e.what());
                return 2;
            }
        }
        else if (a == "--stats") stats = true;
        else if (a == "--trace") trace_path = next();
        else if (a == "--metrics-json") metrics_path = next();
        else if (a == "--events") events_path = next();
        else if (a == "--progress") progress = true;
        else if (a == "--table") table = true;
        else if (a == "--plot") plot = true;
        else if (a == "--csv") csv_path = next();
        else if (!a.empty() && a[0] == '-') usage();
        else if (deck_path.empty()) deck_path = a;
        else if (flt_path.empty()) flt_path = a;
        else usage();
        if (forwarded_flags().count(a))
            for (int j = arg_start; j <= i; ++j)
                forward_args.emplace_back(argv[j]);
    }
    // --repair-store is a standalone command: repair, report, exit.  The
    // canonical file's shards (a fabric campaign that died before its
    // merge) get the same tail-trim, reported as a per-shard table.
    if (!repair_path.empty()) {
        try {
            const std::vector<std::string> shards =
                batch::list_shards(repair_path);
            const bool base_exists = std::filesystem::exists(repair_path);
            if (!base_exists && shards.empty())
                throw Error("repair-store: no such file: " + repair_path);
            int rc = 0;
            if (base_exists) {
                const batch::RepairReport rep =
                    batch::repair_store(repair_path);
                if (!rep.header_ok) {
                    std::printf("repair %s: no valid store header -- "
                                "nothing recoverable, file left untouched\n",
                                repair_path.c_str());
                    rc = 1;
                } else {
                    std::printf("repair %s: manifest %016llx, %zu records "
                                "kept (nominal record %s), %zu of %zu bytes "
                                "kept (%zu trimmed)\n",
                                repair_path.c_str(),
                                static_cast<unsigned long long>(rep.manifest),
                                rep.records_kept,
                                rep.nominal_kept ? "kept" : "absent",
                                rep.bytes_kept,
                                rep.bytes_total,
                                rep.bytes_total - rep.bytes_kept);
                }
            }
            if (!shards.empty()) {
                std::printf("%-40s %8s %12s %10s\n", "shard", "records",
                            "bytes kept", "trimmed");
                for (const std::string& shard : shards) {
                    const batch::RepairReport rep =
                        batch::repair_store(shard);
                    if (!rep.header_ok) {
                        std::printf("%-40s %8s %12s %10s\n", shard.c_str(),
                                    "-", "no header", "-");
                        rc = 1;
                        continue;
                    }
                    std::printf("%-40s %8zu %12zu %10zu\n", shard.c_str(),
                                rep.records_kept, rep.bytes_kept,
                                rep.bytes_total - rep.bytes_kept);
                }
            }
            return rc;
        } catch (const Error& e) {
            std::fprintf(stderr, "anafaultc: %s\n", e.what());
            return 1;
        }
    }
    if (deck_path.empty() || flt_path.empty()) usage();
    if (opt.resume && opt.result_store.empty()) {
        std::fprintf(stderr, "anafaultc: --resume needs --store <file>\n");
        return 2;
    }
    if (baseline_store.empty() != baseline_flt_path.empty()) {
        std::fprintf(stderr,
                     "anafaultc: --baseline-store and --baseline-faults "
                     "must be given together\n");
        return 2;
    }
    if (fabric_workers >= 1 && opt.result_store.empty()) {
        std::fprintf(stderr, "anafaultc: --workers needs --store <file>\n");
        return 2;
    }
    if (fabric_workers >= 1 && (!baseline_store.empty() || worker_mode)) {
        std::fprintf(stderr,
                     "anafaultc: --workers cannot be combined with --worker "
                     "or an incremental (--baseline-store) campaign\n");
        return 2;
    }
    if (worker_mode &&
        (opt.result_store.empty() || fault_range.find(':') ==
                                         std::string::npos)) {
        std::fprintf(stderr,
                     "anafaultc: --worker needs --store <shard> and "
                     "--fault-range lo:hi\n");
        return 2;
    }

    // Observation must be switched on before the campaign runs; --stats
    // needs the metrics bit too so the phase histograms fill in.
    if (stats || !metrics_path.empty()) obs::enable_metrics(true);
    if (!trace_path.empty()) obs::enable_tracing(true);
    if (!events_path.empty()) {
        auto sink = std::make_shared<obs::JsonlSink>(events_path);
        if (!sink->good()) {
            std::fprintf(stderr, "anafaultc: cannot write %s\n",
                         events_path.c_str());
            return 1;
        }
        obs::attach_event_sink(sink);
    }
    if (progress) obs::attach_event_sink(std::make_shared<obs::ProgressSink>());

    try {
        const netlist::Circuit ckt = netlist::parse_spice_file(deck_path);
        const lift::FaultList faults = read_faults_file(flt_path);

        if (opt.detection.observed.empty())
            opt.detection.observed = ckt.save_nodes;
        if (opt.detection.observed.empty())
            throw Error("no observed nodes: pass --observe or add .save to "
                        "the deck");

        // Internal fabric-worker mode: run the assigned id subrange into
        // the shard and exit quietly -- the supervisor owns all reporting.
        if (worker_mode) {
            anafault::WorkerOptions w;
            const auto colon = fault_range.find(':');
            w.id_lo = std::atoi(fault_range.substr(0, colon).c_str());
            w.id_hi = std::atoi(fault_range.substr(colon + 1).c_str());
            w.shard = opt.result_store;
            w.heartbeat_fd = heartbeat_fd;
            anafault::run_worker_campaign(ckt, faults, opt, w);
            obs::detach_event_sinks();
            return 0;
        }

        // --merge-shards is a standalone command: fold, report, exit.
        if (!merge_base.empty()) {
            const std::uint64_t manifest =
                anafault::campaign_manifest(ckt, faults, opt);
            const batch::ShardMergeReport m = batch::merge_shards(
                merge_base, manifest, batch::list_shards(merge_base),
                opt.store_durability);
            std::printf("merge %s: %zu shards, %zu records in, %zu kept, "
                        "%zu duplicates%s\n",
                        merge_base.c_str(), m.shards_merged, m.records_in,
                        m.records_kept, m.duplicates,
                        m.changed ? "" : " (store already canonical)");
            obs::detach_event_sinks();
            return 0;
        }

        anafault::CampaignResult res;
        if (fabric_workers >= 1) {
            const std::uint64_t manifest =
                anafault::campaign_manifest(ckt, faults, opt);
            std::vector<int> ids;
            ids.reserve(faults.faults.size());
            for (const lift::Fault& f : faults.faults) ids.push_back(f.id);

            batch::FabricOptions fo;
            fo.workers = fabric_workers;
            fo.worker_timeout_s = worker_timeout;
            fo.durability = opt.store_durability;
            const std::string exe = self_exe(argv[0]);
            batch::WorkerCommand cmd = [&](const batch::WorkerSlot& s) {
                std::vector<std::string> v = {
                    exe, deck_path, flt_path, "--worker", "--fault-range",
                    std::to_string(s.range.lo) + ":" +
                        std::to_string(s.range.hi),
                    "--store", s.shard, "--heartbeat-fd",
                    std::to_string(s.heartbeat_fd)};
                v.insert(v.end(), forward_args.begin(), forward_args.end());
                for (const WorkerFailpoint& wf : worker_failpoints)
                    if (wf.slot == s.slot &&
                        (wf.spawn < 0 || wf.spawn == s.spawn_index)) {
                        v.push_back("--failpoints");
                        v.push_back(wf.spec);
                    }
                return v;
            };
            batch::PoisonRecord poison = [&](int id, int deaths,
                                             const std::string& log) {
                return anafault::quarantine_record(faults, id, deaths, log);
            };
            const batch::FabricReport frep = batch::run_fabric(
                ids, manifest, opt.result_store, cmd, poison, fo);
            // Merge whatever the workers produced: even an abandoned
            // fabric leaves a maximal, resumable canonical store behind.
            batch::merge_shards(opt.result_store, manifest,
                                batch::list_shards(opt.result_store),
                                opt.store_durability);
            if (!frep.completed) {
                for (const batch::SlotReport& sr : frep.slots)
                    if (!sr.completed)
                        std::fprintf(stderr,
                                     "anafaultc: worker %zu (faults %d..%d) "
                                     "abandoned after %d deaths\n",
                                     sr.slot, sr.range.lo, sr.range.hi,
                                     sr.deaths);
                return 1;
            }
            res = anafault::load_campaign_result(ckt, faults, opt,
                                                 opt.result_store);
            res.batch.threads = opt.threads;
            res.batch.worker_processes = frep.slots.size();
            res.batch.worker_spawns = frep.spawns;
            res.batch.worker_deaths = frep.deaths;
            res.batch.worker_timeouts = frep.timeouts;
            res.batch.poisoned = frep.poisoned;
        } else if (!baseline_store.empty()) {
            anafault::IncrementalOptions iopt;
            iopt.campaign = opt;
            iopt.baseline_store = baseline_store;
            iopt.rel_tol = diff_tol;
            auto inc = anafault::run_incremental_campaign(
                ckt, read_faults_file(baseline_flt_path), faults, iopt);
            std::printf("%s", anafault::incremental_summary(inc).c_str());
            res = std::move(inc.campaign);
        } else {
            res = anafault::run_campaign(ckt, faults, opt);
        }
        std::printf("%s", anafault::campaign_summary(res).c_str());
        if (stats) {
            const batch::BatchStats& b = res.batch;
            std::printf("\nbatch/kernel counters (current process):\n");
            std::printf("  threads %u, classes %zu, collapsed %zu\n",
                        b.threads, b.classes, b.collapsed);
            std::printf("  scheduled %zu, resumed %zu, carried from store "
                        "%zu\n",
                        b.scheduled, b.resumed, b.carried_from_store);
            std::printf("  early aborts %zu (steps saved %zu)\n",
                        b.early_aborts, b.steps_saved);
            std::printf("  steps integrated %zu, interpolated %zu\n",
                        b.steps_integrated, b.steps_interpolated);
            std::printf("  bypass solves %zu, device stamp skips %zu, "
                        "sparse refactors %zu\n",
                        b.bypass_solves, b.device_stamp_skips,
                        b.sparse_refactors);
            const double hit_rate =
                b.scheduled > 0 ? 100.0 *
                                      static_cast<double>(
                                          b.symbolic_cache_hits) /
                                      static_cast<double>(b.scheduled)
                                : 0.0;
            std::printf("  symbolic cache hits %zu / %zu kernels (%.1f%%)\n",
                        b.symbolic_cache_hits, b.scheduled, hit_rate);
            std::printf("  containment: retries %zu, quarantined %zu, "
                        "job errors %zu, store errors %zu\n",
                        b.retries, b.quarantined, b.job_errors,
                        b.store_errors);
            if (b.worker_processes > 0)
                std::printf("  fabric: %zu workers, %zu spawns, %zu deaths "
                            "(%zu timeouts), %zu poisoned\n",
                            b.worker_processes, b.worker_spawns,
                            b.worker_deaths, b.worker_timeouts, b.poisoned);
            for (const robust::FailpointStatus& fs : robust::status())
                std::printf("  failpoint %-20s hits %llu fired %llu\n",
                            fs.name.c_str(),
                            static_cast<unsigned long long>(fs.hits),
                            static_cast<unsigned long long>(fs.fired));
            // The ordering/numeric split as shares of the total kernel
            // time this run spent solving (nominal + faulty).
            const double kernel_s = res.nominal_seconds + res.total_seconds;
            auto pct = [kernel_s](double s) {
                return kernel_s > 0.0 ? 100.0 * s / kernel_s : 0.0;
            };
            if (b.nominal_reused)
                std::printf("  kernel time %.4f s (nominal: reused from "
                            "store + faulty %.4f)\n",
                            kernel_s, res.total_seconds);
            else
                std::printf("  kernel time %.4f s (nominal %.4f + faulty "
                            "%.4f)\n",
                            kernel_s, res.nominal_seconds,
                            res.total_seconds);
            std::printf("  ordering time %.4f s (%.1f%% of kernel), "
                        "numeric refactor time %.4f s (%.1f%%)\n",
                        b.ordering_seconds, pct(b.ordering_seconds),
                        b.numeric_seconds, pct(b.numeric_seconds));
            std::printf("  phase latencies (seconds, current process):\n");
            for (std::uint8_t p = 0;
                 p < static_cast<std::uint8_t>(obs::Phase::kCount); ++p) {
                const auto ph = static_cast<obs::Phase>(p);
                const obs::HistogramSnapshot h =
                    obs::phase_histogram(ph).snapshot();
                if (h.count == 0) continue;
                std::printf("    %-12s count %-7llu p50 %.3e  p95 %.3e  "
                            "max %.3e\n",
                            obs::phase_name(ph),
                            static_cast<unsigned long long>(h.count),
                            h.p50(), h.p95(), h.max);
            }
        }
        if (plot)
            std::printf("\n%s",
                        anafault::coverage_plot_ascii(res).c_str());
        if (table)
            std::printf("\n%s", anafault::campaign_table(res).c_str());
        if (!csv_path.empty()) {
            std::ofstream f(csv_path);
            if (!f.good()) throw Error("cannot write " + csv_path);
            f << anafault::coverage_csv(res);
        }
        if (!trace_path.empty() &&
            !obs::write_chrome_trace_file(trace_path))
            throw Error("cannot write " + trace_path);
        if (!metrics_path.empty()) {
            std::ofstream f(metrics_path);
            if (!f.good()) throw Error("cannot write " + metrics_path);
            f << obs::Registry::global().to_json() << "\n";
        }
        obs::detach_event_sinks();
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "anafaultc: %s\n", e.what());
        return 1;
    }
}
