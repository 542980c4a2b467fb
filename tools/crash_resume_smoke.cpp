// crash_resume_smoke -- kill a fault campaign mid-run and prove the
// resumed verdicts are byte-identical to an uninterrupted reference.
//
// The CI crash-resume job drives the paper's VCO campaign (layout-
// extracted fault list, early abort and collapsing on) through three
// invocations of this binary:
//
//   crash_resume_smoke reference <store>      cold run, print verdict digest
//   crash_resume_smoke crash     <store> [N]  arm store.append=torn_crash@N:
//                                             the Nth append tears mid-record
//                                             and the process _Exit(137)s
//   crash_resume_smoke resume    <store>      reopen the torn store, resume,
//                                             print verdict digest; fails
//                                             unless the nominal reference
//                                             came from the store instead
//                                             of a fresh simulation
//
// The kill-worker fabric smoke runs the same campaign through the
// multi-process supervisor (batch/fabric.h) with two injected disasters
// -- one worker SIGKILLed mid-campaign by a torn_crash append, and one
// deterministically-crashing poison fault -- and asserts the supervised
// campaign still converges to the single-process reference:
//
//   crash_resume_smoke fabric <store> <workers> <poison-fault-id> <ref.txt>
//       supervise <workers> self-exec'd `fworker` processes; the slot
//       *not* owning the poison fault gets store.append=torn_crash@5 on
//       its first spawn, the owning slot gets worker.fault=poison:<id> on
//       every spawn.  Asserts: the fabric completes, the poison fault is
//       retired `quarantined` with a populated retry_log, and the merged
//       store's digest matches <ref.txt> byte-for-byte on every other
//       fault.
//   crash_resume_smoke fworker <shard> <lo> <hi> <fd> [failpoints]
//       (internal) one fabric worker: run fault ids [lo, hi] into <shard>
//
// The digest is one sorted line per fault -- id, verdict, detection time
// and metric in hex-float -- so `diff reference.txt resumed.txt` is the
// whole byte-identity assertion.  Everything runs at threads=1 so the
// failpoint's hit ordering (and therefore which fault's record tears) is
// deterministic.

#include "anafault/worker.h"
#include "batch/fabric.h"
#include "batch/shard.h"
#include "core/cat.h"
#include "robust/failpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

namespace {

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: crash_resume_smoke reference|crash|resume <store> "
                 "[crash-at-append-N]\n"
                 "       crash_resume_smoke fabric <store> <workers> "
                 "<poison-fault-id> <reference.txt>\n"
                 "       crash_resume_smoke fworker <shard> <lo> <hi> <fd> "
                 "[failpoints]\n");
    std::exit(2);
}

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

std::string digest_line(const catlift::anafault::FaultSimResult& r) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%d %s t=%a m=%a\n", r.fault_id,
                  catlift::anafault::verdict_name(r),
                  r.detect_time.value_or(-1.0), r.metric);
    return buf;
}

int run_fabric_smoke(const char* argv0, const std::string& store,
                     unsigned workers, int poison_id,
                     const std::string& ref_path) {
    using namespace catlift;
    const core::VcoExperiment e = core::make_vco_experiment();
    const lift::LiftResult lifted =
        lift::extract_faults(e.layout, e.config.tech, e.config.lift);
    anafault::CampaignOptions opt = e.config.campaign;
    opt.threads = 1;
    opt.result_store = store;
    const std::uint64_t manifest =
        anafault::campaign_manifest(e.sim_circuit, lifted.faults, opt);

    std::vector<int> ids;
    for (const lift::Fault& f : lifted.faults.faults) ids.push_back(f.id);
    const std::vector<batch::FaultRange> ranges =
        batch::partition_fault_ranges(ids, workers);
    if (ranges.size() < 2) {
        std::fprintf(stderr, "fabric smoke: need >= 2 worker ranges\n");
        return 1;
    }
    std::size_t poison_slot = ranges.size();
    for (std::size_t k = 0; k < ranges.size(); ++k)
        if (poison_id >= ranges[k].lo && poison_id <= ranges[k].hi)
            poison_slot = k;
    if (poison_slot == ranges.size()) {
        std::fprintf(stderr, "fabric smoke: poison fault %d not in any "
                     "range\n", poison_id);
        return 1;
    }
    // The SIGKILL goes to a *different* slot, so the two disasters exercise
    // independent recovery paths (plain respawn+resume vs quarantine).
    const std::size_t kill_slot = (poison_slot + 1) % ranges.size();

    std::error_code ec;
    std::filesystem::remove(store, ec);
    for (const std::string& shard : batch::list_shards(store))
        std::filesystem::remove(shard, ec);

    batch::FabricOptions fo;
    fo.workers = workers;
    fo.worker_timeout_s = 120.0;  // deaths here come from crashes, not hangs
    fo.backoff_base_s = 0.05;
    const std::string exe = self_exe(argv0);

    batch::WorkerCommand cmd = [&](const batch::WorkerSlot& s) {
        std::vector<std::string> v = {
            exe, "fworker", s.shard, std::to_string(s.range.lo),
            std::to_string(s.range.hi), std::to_string(s.heartbeat_fd)};
        if (s.slot == kill_slot && s.spawn_index == 0)
            v.push_back("store.append=torn_crash@5");
        else if (s.slot == poison_slot)
            v.push_back("worker.fault=poison:" + std::to_string(poison_id));
        return v;
    };
    batch::PoisonRecord poison = [&](int id, int deaths,
                                     const std::string& log) {
        return anafault::quarantine_record(lifted.faults, id, deaths, log);
    };

    const batch::FabricReport frep =
        batch::run_fabric(ids, manifest, store, cmd, poison, fo);
    if (!frep.completed) {
        std::fprintf(stderr, "fabric smoke: fabric did not complete\n");
        return 1;
    }
    batch::merge_shards(store, manifest, batch::list_shards(store));
    const anafault::CampaignResult res = anafault::load_campaign_result(
        e.sim_circuit, lifted.faults, opt, store);

    // The poison fault must be retired `quarantined` with provenance.
    bool poison_ok = false;
    for (const anafault::FaultSimResult& r : res.results)
        if (r.fault_id == poison_id)
            poison_ok = r.quarantined && !r.retry_log.empty();
    if (!poison_ok || frep.poisoned != 1) {
        std::fprintf(stderr,
                     "fabric smoke: poison fault %d not quarantined "
                     "(poisoned=%zu)\n",
                     poison_id, frep.poisoned);
        return 1;
    }
    // One death from the SIGKILLed worker, two from convicting the poison
    // fault.
    if (frep.deaths < 3) {
        std::fprintf(stderr, "fabric smoke: expected >= 3 worker deaths, "
                     "saw %zu\n", frep.deaths);
        return 1;
    }

    // Byte-identity against the single-process reference for every fault
    // except the quarantined one.
    std::vector<std::string> got;
    for (const anafault::FaultSimResult& r : res.results)
        if (r.fault_id != poison_id) got.push_back(digest_line(r));
    std::vector<std::string> want;
    std::ifstream ref(ref_path);
    if (!ref.good()) {
        std::fprintf(stderr, "fabric smoke: cannot read %s\n",
                     ref_path.c_str());
        return 1;
    }
    std::string line;
    while (std::getline(ref, line))
        if (std::atoi(line.c_str()) != poison_id) want.push_back(line + "\n");
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) {
        std::fprintf(stderr,
                     "fabric smoke: merged digest differs from the "
                     "single-process reference (%zu vs %zu lines)\n",
                     got.size(), want.size());
        for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
            const std::string& g = i < got.size() ? got[i] : "<missing>\n";
            const std::string& w = i < want.size() ? want[i] : "<missing>\n";
            if (g != w)
                std::fprintf(stderr, "  got: %s  want: %s", g.c_str(),
                             w.c_str());
        }
        return 1;
    }
    std::fprintf(stderr,
                 "fabric smoke PASS: %zu workers, %zu spawns, %zu deaths "
                 "(%zu timeouts), fault %d quarantined, %zu verdicts "
                 "byte-identical to reference\n",
                 frep.slots.size(), frep.spawns, frep.deaths, frep.timeouts,
                 poison_id, got.size());
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    using namespace catlift;
    if (argc < 3) usage();
    const std::string mode = argv[1];
    const std::string store = argv[2];

    try {
        if (mode == "fworker") {
            if (argc < 6) usage();
            if (argc > 6) robust::arm(argv[6]);
            const core::VcoExperiment e = core::make_vco_experiment();
            const lift::LiftResult lifted =
                lift::extract_faults(e.layout, e.config.tech, e.config.lift);
            anafault::CampaignOptions opt = e.config.campaign;
            opt.threads = 1;
            anafault::WorkerOptions w;
            w.id_lo = std::atoi(argv[3]);
            w.id_hi = std::atoi(argv[4]);
            w.shard = store;
            w.heartbeat_fd = std::atoi(argv[5]);
            anafault::run_worker_campaign(e.sim_circuit, lifted.faults, opt,
                                          w);
            return 0;
        }
        if (mode == "fabric") {
            if (argc < 6) usage();
            return run_fabric_smoke(argv[0], store,
                                    static_cast<unsigned>(std::atoi(argv[3])),
                                    std::atoi(argv[4]), argv[5]);
        }
        if (mode != "reference" && mode != "crash" && mode != "resume")
            usage();

        if (mode == "crash") {
            const int n = argc > 3 ? std::atoi(argv[3]) : 20;
            robust::arm("store.append=torn_crash@" + std::to_string(n));
        }

        const core::VcoExperiment e = core::make_vco_experiment();
        const lift::LiftResult lifted =
            lift::extract_faults(e.layout, e.config.tech, e.config.lift);
        anafault::CampaignOptions opt = e.config.campaign;
        opt.threads = 1;  // deterministic failpoint hit ordering
        opt.result_store = store;
        opt.resume = mode == "resume";
        const anafault::CampaignResult res =
            anafault::run_campaign(e.sim_circuit, lifted.faults, opt);

        // In crash mode the failpoint should have killed the process long
        // before this point; reaching it means the campaign was too small
        // for the chosen append index.
        if (mode == "crash") {
            std::fprintf(stderr,
                         "crash_resume_smoke: campaign finished without "
                         "hitting the crash failpoint (lower N)\n");
            return 1;
        }

        // The nominal record precedes every fault record, so a crash at a
        // fault append leaves it intact: the resume must not re-simulate.
        if (mode == "resume" && !res.batch.nominal_reused) {
            std::fprintf(stderr,
                         "crash_resume_smoke: the resumed campaign "
                         "re-simulated the nominal reference\n");
            return 1;
        }

        std::vector<std::string> lines;
        lines.reserve(res.results.size());
        for (const anafault::FaultSimResult& r : res.results)
            lines.push_back(digest_line(r));
        std::sort(lines.begin(), lines.end());
        for (const std::string& l : lines) std::fputs(l.c_str(), stdout);
        std::fprintf(stderr,
                     "crash_resume_smoke %s: %zu faults, %zu resumed, "
                     "%zu simulated, nominal %s\n",
                     mode.c_str(), res.results.size(), res.batch.resumed,
                     res.batch.scheduled,
                     res.batch.nominal_reused ? "reused" : "simulated");
        return 0;
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "crash_resume_smoke: %s\n", ex.what());
        return 1;
    }
}
