// Single-process CAT-flow benchmark.
//
// Drives the paper's flow -- layout -> LIFT fault list -> LVS -> AnaFAULT
// campaign -> coverage report -- through the library's public entry
// points, one process and one thread, in a closed loop: the next flow
// starts when the previous one has returned its report.  Workloads (see
// METRICS.md for why each exists):
//
//   vco_cat     the section-VI VCO, full transient campaign (dense kernel)
//   chain_lift  a 128-stage inverter chain; LIFT-heavy, campaign on the
//               8 most probable faults (sparse kernel)
//   vco_revise  a VCO layout revision, incremental campaign against a
//               baseline result store written during set-up
//
// Usage (normally through run.py, which builds this binary first):
//
//   flowbench --workload vco_cat --seed 0 --seconds 20 --trace 0
//             --reference perfbench/reference --work-dir <dir>
//             --ledger <dir>
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1.  The exit code is non-zero when any correctness check fails.

#include "anafault/campaign.h"
#include "anafault/incremental.h"
#include "anafault/report.h"
#include "circuits/vco.h"
#include "extract/extractor.h"
#include "layout/cellgen.h"
#include "layout/revise.h"
#include "lift/extract_faults.h"
#include "lift/fault.h"
#include "netlist/compare.h"
#include "obs/obs.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

using namespace catlift;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

// Captured during static initialisation: the start of set-up time.
const Clock::time_point g_process_start = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Seed 0 selects the canonical inputs named in METRICS.md; its verdict
/// digests are committed under reference/.
constexpr std::uint64_t kCanonicalSeed = 0;
/// Set-up is repeated this many times per run and reported as a median.
constexpr int kSetupRepeats = 5;
constexpr int kChainStages = 128;
constexpr std::size_t kChainCampaignFaults = 8;

struct Args {
    std::string workload;
    std::uint64_t seed = kCanonicalSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string reference_dir;
    std::string work_dir;
    std::string ledger_dir;
};

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v);
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = std::stoi(v) != 0;
        else if (k == "--reference") a.reference_dir = v;
        else if (k == "--work-dir") a.work_dir = v;
        else if (k == "--ledger") a.ledger_dir = v;
        else throw std::runtime_error("unknown argument " + k);
    }
    if (a.workload != "vco_cat" && a.workload != "chain_lift" &&
        a.workload != "vco_revise")
        throw std::runtime_error("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
    if (a.reference_dir.empty() || a.work_dir.empty() || a.ledger_dir.empty())
        throw std::runtime_error(
            "--reference, --work-dir and --ledger are required");
    return a;
}

// ---------------------------------------------------------------------------
// Seeded input generation.  The library only ever sees the generated
// circuits, layouts and revision specs.

/// splitmix64: a fixed, platform-independent stream for a given seed.
struct Rng {
    std::uint64_t s;
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n) {
        return static_cast<std::size_t>(next() % n);
    }
};

/// A revision of the same size as layout::vco_revision_spec(): one track
/// widened, one single contact slid, one single contact made redundant and
/// one redundant poly-gate contact pair stripped to a single cut, each
/// drawn from the VCO's own tracks and terminals.
layout::RevisionSpec seeded_vco_revision(const layout::Layout& lo,
                                         std::uint64_t seed) {
    Rng rng{seed};
    const layout::CellgenOptions cg = layout::vco_cellgen_options();
    // The top track has no neighbour above it to approach.
    const std::vector<std::string> tracks(cg.track_order.begin(),
                                          cg.track_order.end() - 1);
    std::vector<std::string> singles = cg.single_contact_terminals;

    std::map<std::string, int> gate_cuts;
    for (const layout::Shape& s : lo.shapes)
        if (s.layer == layout::Layer::Contact && s.owner.size() > 2 &&
            s.owner.compare(s.owner.size() - 2, 2, ":g") == 0)
            ++gate_cuts[s.owner];
    std::vector<std::string> redundant_gates;
    for (const auto& [owner, n] : gate_cuts)
        if (n >= 2) redundant_gates.push_back(owner);
    if (redundant_gates.empty() || singles.size() < 2)
        throw std::runtime_error("VCO layout lacks revision candidates");

    layout::RevisionSpec spec;
    spec.widen_tracks = {{tracks[rng.below(tracks.size())],
                          static_cast<geom::Coord>(1000 + 500 * rng.below(3))}};
    const std::size_t shifted = rng.below(singles.size());
    const geom::Coord dx = static_cast<geom::Coord>(100 * (1 + rng.below(3)));
    spec.shift_contacts = {{singles[shifted], rng.below(2) ? dx : -dx}};
    singles.erase(singles.begin() + static_cast<std::ptrdiff_t>(shifted));
    spec.make_redundant = {singles[rng.below(singles.size())]};
    spec.make_single = {redundant_gates[rng.below(redundant_gates.size())]};
    return spec;
}

/// vco_revise keeps the canonical revision's targets, so every seed
/// resimulates the same faults (which bridge a widened track touches
/// would otherwise swing the incremental campaign's per-fault work by a
/// factor of several between seeds): the seed draws how far the charge
/// rail widens and which single contact slides by how much.
layout::RevisionSpec seeded_vco_respin(std::uint64_t seed) {
    Rng rng{seed};
    layout::RevisionSpec spec = layout::vco_revision_spec();
    spec.widen_tracks.front().second =
        static_cast<geom::Coord>(1500 + 500 * rng.below(3));
    const std::vector<std::string> singles =
        layout::vco_cellgen_options().single_contact_terminals;
    const geom::Coord dx = static_cast<geom::Coord>(100 * (1 + rng.below(3)));
    spec.shift_contacts = {
        {singles[rng.below(singles.size())], rng.below(2) ? dx : -dx}};
    return spec;
}

/// Per-stage widths at L = 2 um, whole microns within 1 um of the
/// canonical seed's 20/10 um (build_inverter_chain's widths).
void apply_chain_widths(netlist::Circuit& ckt, std::uint64_t seed) {
    if (seed == kCanonicalSeed) return;
    Rng rng{seed};
    for (int i = 1; i <= kChainStages; ++i) {
        const double wp = 1e-6 * static_cast<double>(19 + rng.below(3));
        const double wn = 1e-6 * static_cast<double>(9 + rng.below(3));
        for (netlist::Device& d : ckt.devices) {
            if (d.name == "MP" + std::to_string(i)) d.w = wp;
            if (d.name == "MN" + std::to_string(i)) d.w = wn;
        }
    }
}

// ---------------------------------------------------------------------------
// Workload set-up.

struct Workload {
    bool incremental = false;        ///< vco_revise
    netlist::Circuit sim;            ///< simulatable deck (sources + .tran)
    netlist::Circuit devices;        ///< LVS golden
    layout::Technology tech = layout::Technology::single_poly_double_metal();
    layout::Layout layout;           ///< the layout each flow starts from
    layout::RevisionSpec revision;   ///< applied by each vco_revise flow
    lift::LiftOptions lift_opt;
    anafault::CampaignOptions campaign;
    std::size_t campaign_faults = 0; ///< 0: the whole ranked list
    lift::FaultList baseline;        ///< list every flow's list is diffed
                                     ///< against
    std::string baseline_store;      ///< vco_revise: the carried verdicts
    std::string flow_store;
    double synth_s = 0.0;
};

Workload make_workload(const Args& a) {
    Workload w;
    w.campaign.threads = 1;
    w.flow_store = (fs::path(a.work_dir) / (a.workload + ".store")).string();

    if (a.workload == "chain_lift") {
        w.sim = circuits::build_inverter_chain(kChainStages, true);
        w.devices = circuits::build_inverter_chain(kChainStages, false);
        apply_chain_widths(w.sim, a.seed);
        apply_chain_widths(w.devices, a.seed);
        std::string output = "c";
        output += std::to_string(kChainStages);
        w.campaign.detection.observed = {output};
        w.campaign_faults = kChainCampaignFaults;
        const auto t0 = Clock::now();
        w.layout = layout::generate_cell_layout(w.devices);
        w.synth_s = seconds_between(t0, Clock::now());
        return w;
    }

    w.sim = circuits::build_vco();
    circuits::VcoOptions dev_opt;
    dev_opt.with_sources = false;
    w.devices = circuits::build_vco(dev_opt);
    w.lift_opt.net_blocks = circuits::vco_net_blocks();
    w.campaign.detection.observed = {circuits::kVcoOutput};
    const auto t0 = Clock::now();
    w.layout = layout::generate_cell_layout(w.devices,
                                            layout::vco_cellgen_options());
    w.synth_s = seconds_between(t0, Clock::now());

    const bool canonical = a.seed == kCanonicalSeed;
    if (a.workload == "vco_cat") {
        if (!canonical)
            w.layout = layout::revise_layout(
                w.layout, seeded_vco_revision(w.layout, a.seed));
        return w;
    }

    // vco_revise: the baseline campaign writes the store the incremental
    // runs carry from.
    w.incremental = true;
    w.revision = canonical ? layout::vco_revision_spec()
                           : seeded_vco_respin(a.seed);
    w.baseline = lift::extract_faults(w.layout, w.tech, w.lift_opt).faults;
    w.baseline_store =
        (fs::path(a.work_dir) / "vco_revise-baseline.store").string();
    anafault::CampaignOptions bopt = w.campaign;
    bopt.result_store = w.baseline_store;
    anafault::run_campaign(w.sim, w.baseline, bopt);
    return w;
}

// ---------------------------------------------------------------------------
// Spans recorded from outside the library around each layer call.

struct SpanRecord {
    std::string name;
    Clock::time_point start, end;
    int flow = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for a flow span
};

struct Tracer {
    std::vector<SpanRecord> spans;
    int flow = 0;
    int flow_span = -1;

    void write_chrome(const std::string& path) const {
        std::ofstream os(path);
        os << "{\"traceEvents\":[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const SpanRecord& s = spans[i];
            char buf[320];
            std::snprintf(
                buf, sizeof buf,
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"flow\":%d,"
                "\"span\":%zu,\"parent\":%d}}\n",
                i ? "," : "", s.name.c_str(),
                1e6 * seconds_between(g_process_start, s.start),
                1e6 * seconds_between(s.start, s.end), s.flow, i, s.parent);
            os << buf;
        }
        os << "]}\n";
    }
};

/// Times `f`; when a tracer is given, also records a span under the
/// current flow span.
template <class F>
auto timed(Tracer* tr, const char* name, double& seconds, F&& f) {
    const auto t0 = Clock::now();
    auto out = f();
    const auto t1 = Clock::now();
    seconds = seconds_between(t0, t1);
    if (tr) tr->spans.push_back({name, t0, t1, tr->flow, tr->flow_span});
    return out;
}

// ---------------------------------------------------------------------------
// One flow.

/// Work counts that must repeat exactly for the same code and seed.
using Counts = std::map<std::string, std::uint64_t>;

/// Everything one flow measured.  Counts and layer times are always
/// collected (a handful of clock reads); the extraction breakdown and the
/// kernel phase sums only on traced flows.
struct FlowResult {
    double flow_s = 0, revise_s = 0, lift_s = 0, lvs_s = 0, diff_s = 0,
           campaign_s = 0, report_s = 0;
    double nominal_s = 0, fault_kernel_s = 0, ordering_s = 0, numeric_s = 0;
    std::size_t verdicts = 0;
    std::size_t bad_verdicts = 0;  ///< failed + quarantined
    bool lvs_ok = false;
    bool list_stable = true;       ///< diff vs baseline list empty
    std::string lvs_diff;
    std::string digest;
    Counts counts;                 ///< exact drift detectors
    Counts info;                   ///< other per-layer counts
    std::vector<double> fault_seconds;
    lift::FaultList faults;
    // traced only
    double extract_s = 0, factor_s = 0, solve_s = 0, newton_s = 0,
           store_append_s = 0;
};

std::string verdict_digest(const anafault::CampaignResult& res) {
    std::vector<const anafault::FaultSimResult*> rs;
    for (const auto& r : res.results) rs.push_back(&r);
    std::sort(rs.begin(), rs.end(), [](const auto* a, const auto* b) {
        return a->fault_id < b->fault_id;
    });
    std::string out;
    char buf[96];
    for (const auto* r : rs) {
        const char* v = r->quarantined   ? "quarantined"
                        : !r->simulated  ? "failed"
                        : r->detect_time ? "detected"
                                         : "undetected";
        if (r->detect_time)
            std::snprintf(buf, sizeof buf, "%d %s %a\n", r->fault_id, v,
                          *r->detect_time);
        else
            std::snprintf(buf, sizeof buf, "%d %s -\n", r->fault_id, v);
        out += buf;
    }
    return out;
}

std::uint64_t file_bytes(const std::string& path) {
    std::error_code ec;
    const auto n = fs::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

double phase_sum(obs::Phase p) {
    return obs::phase_histogram(p).snapshot().sum;
}

FlowResult run_flow(const Workload& w, Tracer* tr) {
    FlowResult fr;
    if (tr) {
        ++tr->flow;
        obs::Registry::global().reset();
        obs::enable_metrics(true);
        tr->flow_span = static_cast<int>(tr->spans.size());
        tr->spans.push_back({"flow", Clock::now(), {}, tr->flow, -1});
    }
    const auto t0 = Clock::now();

    std::optional<layout::Layout> revised;
    if (w.incremental)
        revised = timed(tr, "layout.revise", fr.revise_s, [&] {
            return layout::revise_layout(w.layout, w.revision);
        });
    const layout::Layout& lo = revised ? *revised : w.layout;

    lift::LiftResult lr = timed(tr, "lift", fr.lift_s, [&] {
        return lift::extract_faults(lo, w.tech, w.lift_opt);
    });
    const netlist::CompareResult lvs = timed(tr, "netlist.lvs", fr.lvs_s, [&] {
        return netlist::compare_netlists(w.devices, lr.extraction.circuit,
                                         1e-2);
    });
    fr.lvs_ok = lvs.equivalent;
    if (!lvs.equivalent && !lvs.diffs.empty()) fr.lvs_diff = lvs.diffs.front();
    const lift::FaultListDiff diff = timed(tr, "lift.diff", fr.diff_s, [&] {
        return lift::diff_faultlists(w.baseline, lr.faults);
    });
    // Re-running the same layout must reproduce the warm-up list exactly.
    if (!w.incremental && !w.baseline.faults.empty())
        fr.list_stable = diff.only_a.empty() && diff.only_b.empty() &&
                         diff.probability_changed.empty();

    const lift::FaultList* campaign_list = &lr.faults;
    lift::FaultList top;
    if (w.campaign_faults > 0 && lr.faults.size() > w.campaign_faults) {
        top.circuit = lr.faults.circuit;
        top.faults.assign(lr.faults.faults.begin(),
                          lr.faults.faults.begin() +
                              static_cast<std::ptrdiff_t>(w.campaign_faults));
        campaign_list = &top;
    }

    anafault::CampaignResult res;
    anafault::IncrementalStats inc;
    if (w.incremental) {
        anafault::IncrementalOptions iopt;
        iopt.campaign = w.campaign;
        iopt.campaign.result_store = w.flow_store;
        iopt.baseline_store = w.baseline_store;
        anafault::IncrementalResult ir =
            timed(tr, "anafault.campaign", fr.campaign_s, [&] {
                return anafault::run_incremental_campaign(
                    w.sim, w.baseline, *campaign_list, iopt);
            });
        res = std::move(ir.campaign);
        inc = ir.inc;
    } else {
        anafault::CampaignOptions copt = w.campaign;
        copt.result_store = w.flow_store;
        res = timed(tr, "anafault.campaign", fr.campaign_s, [&] {
            return anafault::run_campaign(w.sim, *campaign_list, copt);
        });
    }
    timed(tr, "anafault.report", fr.report_s,
          [&] { return anafault::campaign_summary(res); });

    const auto t1 = Clock::now();
    fr.flow_s = seconds_between(t0, t1);
    if (tr) {
        tr->spans[static_cast<std::size_t>(tr->flow_span)].end = t1;
        fr.factor_s = phase_sum(obs::Phase::Factor) +
                      phase_sum(obs::Phase::Refactor) +
                      phase_sum(obs::Phase::Analyze);
        fr.solve_s = phase_sum(obs::Phase::Solve);
        fr.newton_s = phase_sum(obs::Phase::Newton);
        fr.store_append_s = phase_sum(obs::Phase::StoreAppend);
        obs::enable_metrics(false);
        // Untimed: the extraction share of LIFT, from one extra call on
        // the same layout.
        const auto e0 = Clock::now();
        const extract::Extraction ex =
            extract::extract(lo, w.tech, w.lift_opt.extract_opt);
        fr.extract_s = seconds_between(e0, Clock::now());
        fr.info["extract.fragments"] = ex.fragments.size();
        fr.info["extract.cut_clusters"] = ex.cuts.size();
        fr.info["extract.nets"] = ex.net_names.size();
    }

    fr.verdicts = res.results.size();
    fr.bad_verdicts = res.failed() + res.quarantined();
    fr.digest = verdict_digest(res);
    fr.nominal_s = res.nominal_seconds;
    fr.fault_kernel_s = res.total_seconds;
    fr.ordering_s = res.batch.ordering_seconds;
    fr.numeric_s = res.batch.numeric_seconds;
    std::uint64_t nr = 0;
    for (const auto& r : res.results) {
        if (r.carried) continue;
        nr += r.nr_iterations;
        if (r.sim_seconds > 0) fr.fault_seconds.push_back(r.sim_seconds);
    }

    fr.counts["lift.faults"] = lr.faults.size();
    fr.counts["lift.bridge_sites"] = lr.stats.bridge_sites;
    fr.counts["lift.open_sites"] = lr.stats.open_sites;
    fr.counts["lift.cut_sites"] = lr.stats.cut_sites;
    fr.counts["batch.scheduled"] = res.batch.scheduled;
    fr.counts["batch.early_aborts"] = res.batch.early_aborts;
    fr.counts["spice.steps_integrated"] = res.batch.steps_integrated;
    fr.counts["spice.nr_iterations"] = nr;
    fr.counts["anafault.carried"] = inc.carried;

    fr.info["layout.shapes"] = lo.shapes.size();
    fr.info["netlist.devices"] = lr.extraction.circuit.devices.size();
    fr.info["anafault.detected"] = res.detected();
    fr.info["anafault.retries"] = res.retries();
    fr.info["anafault.resimulated"] = w.incremental ? inc.resimulated
                                                    : res.results.size();
    fr.info["batch.classes"] = res.batch.classes;
    fr.info["batch.steps_saved"] = res.batch.steps_saved;
    fr.info["batch.store_bytes_written"] = file_bytes(w.flow_store);
    fr.info["batch.store_bytes_read"] =
        w.incremental ? file_bytes(w.baseline_store) : 0;
    fr.info["spice.steps_interpolated"] = res.batch.steps_interpolated;
    fr.info["spice.bypass_solves"] = res.batch.bypass_solves;
    fr.info["spice.sparse_refactors"] = res.batch.sparse_refactors;
    fr.info["spice.device_stamp_skips"] = res.batch.device_stamp_skips;
    fr.info["spice.symbolic_cache_hits"] = res.batch.symbolic_cache_hits;
    fr.faults = std::move(lr.faults);
    return fr;
}

// ---------------------------------------------------------------------------
// Statistics.

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

/// The highest percentile with at least ten samples beyond it: the
/// (n-10)-th smallest value, i.e. percentile 100*(n-10)/n.  With ten or
/// fewer samples the maximum (percentile 100) is the best available.
struct Tail {
    double value = 0.0;
    double percentile = 100.0;
    std::size_t samples = 0;
};

Tail tail_of(std::vector<double> v) {
    Tail t;
    t.samples = v.size();
    if (v.empty()) return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n <= 10) {
        t.value = v.back();
        return t;
    }
    t.value = v[n - 11];
    t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    return t;
}

// ---------------------------------------------------------------------------
// Run conditions: a noisy host must be distinguishable from a slow program.

struct CpuTicks {
    std::uint64_t steal = 0, total = 0;
};

CpuTicks read_cpu_ticks() {
    CpuTicks t;
    std::ifstream is("/proc/stat");
    std::string cpu;
    is >> cpu;
    if (cpu != "cpu") return t;
    // user nice system idle iowait irq softirq steal; the guest fields
    // that follow are already counted inside user and nice.
    for (int i = 0; i < 8; ++i) {
        std::uint64_t v = 0;
        if (!(is >> v)) break;
        t.total += v;
        if (i == 7) t.steal = v;
    }
    return t;
}

std::string read_loadavg() {
    std::ifstream is("/proc/loadavg");
    std::string a, b, c;
    is >> a >> b >> c;
    return a + " " + b + " " + c;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                      "\"unit\": \"%s\"}",
                      i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                      ms[i].unit.c_str());
        out += buf;
    }
    return out + "}";
}

std::string counts_text(const Counts& c) {
    std::string out;
    for (const auto& [k, v] : c) out += k + " " + std::to_string(v) + "\n";
    return out;
}

std::string read_file(const std::string& path) {
    std::ifstream is(path);
    if (!is) return {};
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream os(path);
    os << text;
}

/// Median of one FlowResult field over a set of flows.
double median_of(const std::vector<FlowResult>& flows,
                 double FlowResult::*field) {
    std::vector<double> v;
    for (const FlowResult& f : flows) v.push_back(f.*field);
    return median(v);
}

int run(const Args& a) {
    fs::create_directories(a.work_dir);

    // Set-up: deck and layout build (plus the baseline campaign on
    // vco_revise) and one untimed warm-up flow, repeated; the first repeat
    // is timed from process start.
    std::vector<double> setup_times;
    std::optional<Workload> w;
    FlowResult warm;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        const auto t0 = rep == 0 ? g_process_start : Clock::now();
        w.reset();
        w.emplace(make_workload(a));
        warm = run_flow(*w, nullptr);
        setup_times.push_back(seconds_between(t0, Clock::now()));
    }
    if (!w->incremental) w->baseline = warm.faults;

    // Expected verdicts: the committed reference at the canonical seed,
    // the warm-up flow's own verdicts elsewhere.
    bool correct = true;
    std::string expected = warm.digest;
    if (a.seed == kCanonicalSeed) {
        const std::string ref_path =
            (fs::path(a.reference_dir) / (a.workload + ".digest")).string();
        expected = read_file(ref_path);
        if (expected != warm.digest) {
            const std::string actual =
                (fs::path(a.work_dir) / (a.workload + ".digest")).string();
            write_file(actual, warm.digest);
            std::printf("verdict digest differs from %s (actual: %s)\n",
                        ref_path.c_str(), actual.c_str());
            correct = false;
        }
    }
    if (!warm.lvs_ok) {
        std::printf("warm-up LVS mismatch: %s\n", warm.lvs_diff.c_str());
        correct = false;
    }

    // Timed flows.  With --trace 1 untraced and traced flows alternate, so
    // both see the same host conditions and their difference is the
    // tracing overhead.
    Tracer tracer;
    std::vector<FlowResult> plain, traced;
    std::uint64_t attempted = 0, failed = 0;
    const CpuTicks cpu0 = read_cpu_ticks();
    const auto loop0 = Clock::now();
    const std::size_t min_flows = a.trace ? 2 : 1;
    for (std::size_t i = 0; i < min_flows ||
                            seconds_between(loop0, Clock::now()) < a.seconds;
         ++i) {
        const bool traced_flow = a.trace && i % 2 == 1;
        FlowResult fr = run_flow(*w, traced_flow ? &tracer : nullptr);
        fr.faults = {};
        attempted += fr.verdicts;
        std::uint64_t bad = fr.bad_verdicts;
        if (!fr.lvs_ok || fr.digest != expected || fr.counts != warm.counts ||
            !fr.list_stable) {
            std::printf("flow %zu: %s%s%s%s\n", i,
                        fr.lvs_ok ? "" : "LVS mismatch; ",
                        fr.digest == expected ? "" : "verdict digest differs; ",
                        fr.counts == warm.counts
                            ? ""
                            : "nondeterminism: work counts differ; ",
                        fr.list_stable ? "" : "nondeterminism: fault list "
                                              "differs from warm-up; ");
            bad = fr.verdicts;
        }
        failed += bad;
        // Keep only what the metrics need, so memory does not grow with
        // the number of flows.
        fr.digest = {};
        if (!traced_flow) {
            FlowResult slim;
            slim.flow_s = fr.flow_s;
            slim.campaign_s = fr.campaign_s;
            slim.verdicts = fr.verdicts;
            fr = std::move(slim);
        }
        (traced_flow ? traced : plain).push_back(std::move(fr));
    }
    const double loop_s = seconds_between(loop0, Clock::now());
    const CpuTicks cpu1 = read_cpu_ticks();

    // Merged verdicts of the incremental run must equal a cold full
    // campaign on the revision (outside the timed flows).
    if (w->incremental) {
        const layout::Layout revised =
            layout::revise_layout(w->layout, w->revision);
        const lift::FaultList list =
            lift::extract_faults(revised, w->tech, w->lift_opt).faults;
        const std::string cold =
            verdict_digest(anafault::run_campaign(w->sim, list, w->campaign));
        if (cold != warm.digest) {
            std::printf("incremental verdicts differ from a cold campaign\n");
            correct = false;
        }
    }

    // Exact work counts must repeat across runs of the same build and seed.
    {
        fs::create_directories(a.ledger_dir);
        const std::string path =
            (fs::path(a.ledger_dir) /
             (a.workload + "-" + std::to_string(a.seed) + ".counts"))
                .string();
        const std::string now = counts_text(warm.counts);
        const std::string before = read_file(path);
        if (before.empty()) {
            write_file(path, now);
        } else if (before != now) {
            std::printf("nondeterminism: work counts differ from an earlier "
                        "run of this build (%s)\n",
                        path.c_str());
            correct = false;
        }
    }
    if (failed > 0) correct = false;

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    // Run conditions.
    const std::uint64_t steal = cpu1.steal - cpu0.steal;
    const std::uint64_t total = cpu1.total - cpu0.total;
    const std::string loadavg = read_loadavg();
    std::printf("conditions: nproc %ld, loadavg %s, steal %llu of %llu "
                "ticks (%.3f%%) over %.1f s\n",
                sysconf(_SC_NPROCESSORS_ONLN), loadavg.c_str(),
                static_cast<unsigned long long>(steal),
                static_cast<unsigned long long>(total),
                total ? 100.0 * static_cast<double>(steal) /
                            static_cast<double>(total)
                      : 0.0,
                loop_s);
    std::printf("workload %s, seed %llu%s: %zu timed flows, faults attempted "
                "%llu, failed %llu\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.seed == kCanonicalSeed ? " (canonical)" : "",
                plain.size() + traced.size(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::printf("work counts:");
    for (const auto& [k, v] : warm.counts)
        std::printf(" %s=%llu", k.c_str(), static_cast<unsigned long long>(v));
    std::printf("\n");

    std::vector<Metric> out;
    if (!a.trace) {
        std::vector<double> flow_s, rate;
        for (const FlowResult& f : plain) {
            flow_s.push_back(f.flow_s);
            rate.push_back(static_cast<double>(f.verdicts) / f.campaign_s);
        }
        // Flow times on a shared host mix two speed modes that alternate
        // every few seconds, in a proportion that drifts from run to run
        // (METRICS.md).  The median flips between the modes with that
        // proportion; the upper quartile stays in the slower, always
        // present mode.  Throughput is read at the matching quartile.  The
        // tail catches bursts of a third, slower mode, so it is printed
        // but left out of the JSON.
        const Tail tail = tail_of(flow_s);
        out = {{"flow_s", percentile(flow_s, 0.75), "s"},
               {"faults_per_s", percentile(rate, 0.25), "1/s"},
               {"setup_s", median(setup_times), "s"},
               {"peak_rss_mb", peak_rss_mb, "MiB"}};
        std::printf("%zu flows: median flow %.6f s, median throughput %.4f "
                    "faults/s\n",
                    flow_s.size(), median(flow_s), median(rate));
        std::printf("flow_tail_s                  %.6g s (p%.1f of %zu "
                    "flows)\n",
                    tail.value, tail.percentile, tail.samples);
    } else {
        const FlowResult& last = traced.back();
        auto med = [&](double FlowResult::*f) { return median_of(traced, f); };
        std::vector<double> fault_seconds;
        for (const FlowResult& f : traced)
            fault_seconds.insert(fault_seconds.end(), f.fault_seconds.begin(),
                                 f.fault_seconds.end());
        const Tail fault_tail = tail_of(fault_seconds);
        std::vector<double> overhead, lift_self;
        for (const FlowResult& f : traced) {
            overhead.push_back(f.campaign_s - f.nominal_s - f.fault_kernel_s);
            lift_self.push_back(f.lift_s - f.extract_s);
        }
        const double traced_flow = med(&FlowResult::flow_s);
        const double plain_flow = median_of(plain, &FlowResult::flow_s);
        auto count = [&](const Counts& c, const std::string& k) {
            return static_cast<double>(c.at(k));
        };
        const double sites = count(last.counts, "lift.bridge_sites") +
                             count(last.counts, "lift.open_sites") +
                             count(last.counts, "lift.cut_sites");
        const double scheduled = count(last.counts, "batch.scheduled");
        out = {
            {"layout.synth_s", w->synth_s, "s"},
            {"layout.shapes", count(last.info, "layout.shapes"), "count"},
            {"extract.s", med(&FlowResult::extract_s), "s"},
            {"extract.fragments", count(last.info, "extract.fragments"),
             "count"},
            {"extract.cut_clusters", count(last.info, "extract.cut_clusters"),
             "count"},
            {"extract.nets", count(last.info, "extract.nets"), "count"},
            {"lift.s", med(&FlowResult::lift_s), "s"},
            {"lift.self_s", median(lift_self), "s"},
            {"lift.bridge_sites", count(last.counts, "lift.bridge_sites"),
             "count"},
            {"lift.open_sites", count(last.counts, "lift.open_sites"), "count"},
            {"lift.cut_sites", count(last.counts, "lift.cut_sites"), "count"},
            {"lift.faults", count(last.counts, "lift.faults"), "count"},
            {"lift.kept_ratio",
             sites > 0 ? count(last.counts, "lift.faults") / sites : 0.0,
             "ratio"},
            {"lift.diff_s", med(&FlowResult::diff_s), "s"},
            {"netlist.lvs_s", med(&FlowResult::lvs_s), "s"},
            {"netlist.devices", count(last.info, "netlist.devices"), "count"},
            {"anafault.campaign_s", med(&FlowResult::campaign_s), "s"},
            {"anafault.nominal_s", med(&FlowResult::nominal_s), "s"},
            {"anafault.fault_kernel_s", med(&FlowResult::fault_kernel_s), "s"},
            {"anafault.overhead_s", median(overhead), "s"},
            {"anafault.fault_p50_s", median(fault_seconds), "s"},
            {"anafault.fault_tail_s", fault_tail.value, "s"},
            {"anafault.detected", count(last.info, "anafault.detected"),
             "count"},
            {"anafault.retries", count(last.info, "anafault.retries"), "count"},
            {"anafault.carried", count(last.counts, "anafault.carried"),
             "count"},
            {"anafault.resimulated", count(last.info, "anafault.resimulated"),
             "count"},
            {"batch.scheduled", scheduled, "count"},
            {"batch.classes", count(last.info, "batch.classes"), "count"},
            {"batch.early_aborts", count(last.counts, "batch.early_aborts"),
             "count"},
            {"batch.abort_ratio",
             scheduled > 0 ? count(last.counts, "batch.early_aborts") /
                                 scheduled
                           : 0.0,
             "ratio"},
            {"batch.steps_saved", count(last.info, "batch.steps_saved"),
             "count"},
            {"batch.store_bytes_written",
             count(last.info, "batch.store_bytes_written"), "bytes"},
            {"batch.store_bytes_read", count(last.info, "batch.store_bytes_read"),
             "bytes"},
            {"batch.store_append_s", med(&FlowResult::store_append_s), "s"},
            {"spice.steps_integrated",
             count(last.counts, "spice.steps_integrated"), "count"},
            {"spice.steps_interpolated",
             count(last.info, "spice.steps_interpolated"), "count"},
            {"spice.nr_iterations", count(last.counts, "spice.nr_iterations"),
             "count"},
            {"spice.bypass_solves", count(last.info, "spice.bypass_solves"),
             "count"},
            {"spice.sparse_refactors",
             count(last.info, "spice.sparse_refactors"), "count"},
            {"spice.device_stamp_skips",
             count(last.info, "spice.device_stamp_skips"), "count"},
            {"spice.symbolic_cache_hits",
             count(last.info, "spice.symbolic_cache_hits"), "count"},
            {"spice.factor_s", med(&FlowResult::factor_s), "s"},
            {"spice.solve_s", med(&FlowResult::solve_s), "s"},
            {"spice.newton_s", med(&FlowResult::newton_s), "s"},
            {"trace.flow_s", traced_flow, "s"},
            {"trace.overhead_s", traced_flow - plain_flow, "s"},
        };

        // Layer self times and shares of the traced flow.  The sparse
        // ordering/numeric split is printed here only: it is zero by
        // construction on the dense VCO workloads.
        const double extract_s = med(&FlowResult::extract_s);
        struct Row {
            const char* layer;
            double self_s;
        };
        std::vector<double> flow_self;
        for (const FlowResult& f : traced)
            flow_self.push_back(f.flow_s - f.revise_s - f.lift_s - f.lvs_s -
                                f.diff_s - f.campaign_s - f.report_s);
        std::vector<Row> rows;
        if (w->incremental)
            rows.push_back({"layout.revise", med(&FlowResult::revise_s)});
        rows.insert(rows.end(), {
            {"lift (self)", median(lift_self)},
            {"extract (in lift)", extract_s},
            {"netlist.lvs", med(&FlowResult::lvs_s)},
            {"lift.diff", med(&FlowResult::diff_s)},
            {"anafault.campaign", med(&FlowResult::campaign_s)},
            {"anafault.report", med(&FlowResult::report_s)},
        });
        rows.push_back({"flow (self)", median(flow_self)});
        std::printf("traced flows %zu, untraced %zu: traced flow_s %.6f s, "
                    "untraced %.6f s, tracing overhead %.6f s\n",
                    traced.size(), plain.size(), traced_flow, plain_flow,
                    traced_flow - plain_flow);
        std::printf("%-20s %12s %8s\n", "layer", "self [s]", "share");
        for (const Row& r : rows)
            std::printf("%-20s %12.6f %7.1f%%\n", r.layer, r.self_s,
                        traced_flow > 0 ? 100.0 * r.self_s / traced_flow : 0.0);
        std::printf("LIFT+extract share %.1f%%, campaign share %.1f%%\n",
                    100.0 * med(&FlowResult::lift_s) / traced_flow,
                    100.0 * med(&FlowResult::campaign_s) / traced_flow);
        std::printf("sparse kernel: spice.ordering_s %.6f s, "
                    "spice.numeric_s %.6f s (0 on the dense kernel)\n",
                    med(&FlowResult::ordering_s), med(&FlowResult::numeric_s));
        std::printf("anafault.fault_tail_s is p%.1f of %zu fault runs\n",
                    fault_tail.percentile, fault_tail.samples);
        tracer.write_chrome(
            (fs::path(a.work_dir) / ("trace-" + a.workload + "-" +
                                     std::to_string(a.seed) + ".json"))
                .string());
    }

    for (const Metric& m : out)
        std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    // One line per run beside the results, with its conditions.
    {
        std::ofstream log(fs::path(a.work_dir) / "runs.jsonl", std::ios::app);
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                      "\"nproc\": %ld, \"loadavg\": \"%s\", \"steal_ticks\": "
                      "%llu, \"total_ticks\": %llu, \"metrics\": ",
                      a.workload.c_str(),
                      static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
                      sysconf(_SC_NPROCESSORS_ONLN), loadavg.c_str(),
                      static_cast<unsigned long long>(steal),
                      static_cast<unsigned long long>(total));
        log << buf << metrics_json(out) << "}\n";
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metrics_json(out).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "flowbench: %s\n", e.what());
        return 2;
    }
}
