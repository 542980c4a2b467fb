#include "anafault/worker.h"

#include "anafault/campaign_core.h"
#include "geom/base.h"
#include "obs/obs.h"

#include <map>
#include <memory>

namespace catlift::anafault {

CampaignResult run_worker_campaign(const netlist::Circuit& ckt,
                                   const lift::FaultList& full,
                                   const CampaignOptions& opt,
                                   const WorkerOptions& w) {
    require(!w.shard.empty(), "worker campaign: needs a shard store path");
    require(w.id_lo <= w.id_hi, "worker campaign: empty fault-id range");

    // The shard identifies as the *full* campaign: manifest over the whole
    // fault list, exactly like the incremental engine's subset runs.
    StoreBinding binding;
    binding.manifest = campaign_manifest(ckt, full, opt);

    lift::FaultList sub;
    sub.circuit = full.circuit;
    for (const lift::Fault& f : full.faults)
        if (f.id >= w.id_lo && f.id <= w.id_hi) sub.faults.push_back(f);
    require(!sub.faults.empty(),
            "worker campaign: no faults in the assigned id range");

    CampaignOptions wopt = opt;
    wopt.result_store = w.shard;
    wopt.resume = true;  // a respawn must skip its predecessor's records

    std::unique_ptr<batch::HeartbeatEmitter> hb;
    if (w.heartbeat_fd >= 0) {
        hb = std::make_unique<batch::HeartbeatEmitter>(
            w.heartbeat_fd, w.heartbeat_interval_s);
        obs::attach_event_sink(std::make_shared<batch::HeartbeatSink>(*hb));
    }
    CampaignResult res =
        run_campaign_bound(ckt, sub, wopt, std::move(binding));
    if (hb) {
        // The sink holds a reference into `hb`; it must never outlive it.
        // Worker processes attach no other sinks, so a full detach is the
        // whole story.
        obs::detach_event_sinks();
        hb.reset();
    }
    return res;
}

CampaignResult load_campaign_result(const netlist::Circuit& ckt,
                                    const lift::FaultList& faults,
                                    const CampaignOptions& opt,
                                    const std::string& store_path) {
    const std::uint64_t manifest = campaign_manifest(ckt, faults, opt);
    auto snap = batch::load_store(store_path);
    require(snap.has_value(),
            "fabric: merged store unreadable or not a store: " + store_path);
    require(snap->manifest == manifest,
            "fabric: merged store " + store_path +
                " identifies as a different campaign");

    std::map<int, const batch::FaultSimResult*> by_id;
    for (const batch::FaultSimResult& r : snap->records)
        by_id.emplace(r.fault_id, &r);

    CampaignResult res;
    // The workers' nominal reference, from the merged store's one nominal
    // record: the parent aggregates, it never simulates.
    if (snap->nominal) {
        res.nominal = std::move(snap->nominal->waveforms);
        res.batch.nominal_reused = true;
    }
    if (opt.tran)
        res.tstop = opt.tran->tstop;
    else if (ckt.tran)
        res.tstop = ckt.tran->tstop;
    res.results.reserve(faults.faults.size());
    for (const lift::Fault& f : faults.faults) {
        const auto it = by_id.find(f.id);
        if (it != by_id.end()) {
            res.results.push_back(*it->second);
            ++res.batch.resumed;
            res.total_seconds += it->second->sim_seconds;
        } else {
            batch::FaultSimResult miss;
            miss.fault_id = f.id;
            miss.description = f.describe();
            miss.probability = f.probability;
            miss.simulated = false;
            miss.error = "missing from merged store (worker range "
                         "abandoned?)";
            res.results.push_back(std::move(miss));
        }
    }
    res.batch.threads = 1;
    return res;
}

batch::FaultSimResult quarantine_record(const lift::FaultList& faults,
                                        int fault_id, int attempts,
                                        const std::string& retry_log) {
    batch::FaultSimResult r;
    r.fault_id = fault_id;
    for (const lift::Fault& f : faults.faults)
        if (f.id == fault_id) {
            r.description = f.describe();
            r.probability = f.probability;
            break;
        }
    r.simulated = false;
    r.quarantined = true;
    r.attempts = static_cast<std::uint32_t>(attempts > 0 ? attempts : 1);
    r.error = "poison fault: killed its worker process at two consecutive "
              "deaths";
    r.retry_log = retry_log;
    return r;
}

} // namespace catlift::anafault
