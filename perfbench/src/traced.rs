//! Traced runs: the same workload with the program's `ccdn-obs` probes
//! on, and timers around each layer's public entry points in this
//! benchmark's own code. Reports every per-layer metric; a layer the
//! workload does not run reports 0.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ccdn_cluster::{hierarchical_cluster, jaccard, DistanceMatrix};
use ccdn_core::{Rbcaer, RbcaerConfig};
use ccdn_obs::ObsReport;
use ccdn_sim::{
    Ewma, HotspotGeometry, OnlineRunner, PopularityPredictor, Scheme, SlotDecision, SlotDemand,
    SlotInput, SlotMetrics,
};
use ccdn_trace::{HotspotId, Trace, VideoId};

use crate::check::{cdn_distance_km, check_decision, compare_slot, Capacities, Demand};
use crate::online::EWMA_ALPHA;
use crate::workload::{locations, resample, Planner, Scale, Workload};
use crate::{median, ms, Report};

/// Geometry builds per traced run (their median is `sim.geometry_ms`).
const GEOMETRY_REPEATS: usize = 5;

/// The per-layer metrics, in `BENCHMARK.json` order, with their units.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("trace.generate_s", "s"),
    ("sim.geometry_ms", "ms"),
    ("sim.aggregate_ms", "ms"),
    ("cluster.cluster_ms", "ms"),
    ("cluster.merges", "count"),
    ("core.balance_ms", "ms"),
    ("core.balance.theta_steps", "count"),
    ("core.balance.gd_edges", "count"),
    ("core.balance.guide_nodes", "count"),
    ("core.balance.residual_rounds", "count"),
    ("flow.mcmf.solve_ms", "ms"),
    ("flow.mcmf.solves", "count"),
    ("flow.mcmf.dijkstra_rounds", "count"),
    ("flow.mcmf.rounds_per_solve", "ratio"),
    ("core.procedure_ms", "ms"),
    ("core.procedure.redirected_requests", "count"),
    ("core.procedure.placements", "count"),
    ("core.procedure.local_placements", "count"),
    ("core.procedure.budget_blocked", "count"),
    ("core.sharded_ms", "ms"),
    ("core.sharded.tiles_cold", "count"),
    ("core.sharded.tiles_topped_up", "count"),
    ("core.sharded.tiles_reused", "count"),
    ("core.sharded.border_moved", "count"),
    ("core.sharded.warm_ratio", "ratio"),
    ("sim.evaluate_ms", "ms"),
    ("sim.predict_ms", "ms"),
    ("sim.online.aggregate_ms", "ms"),
    ("sim.online.plan_ms", "ms"),
    ("sim.online.replay_ms", "ms"),
    ("sim.online.route_ms", "ms"),
    ("sim.online.merge_ms", "ms"),
    ("sim.online.replica_delta", "count"),
    ("sim.online.cache_wipes", "count"),
    ("sim.online.origin_spilled", "count"),
    ("sim.online.degraded_slots", "count"),
    ("sim.online.chaos.faults_injected", "count"),
    ("sim.online.rescue_ratio", "ratio"),
    ("bench.layer_coverage", "ratio"),
];

/// Spans of `OnlineRunner::run`, one per phase of the drive.
const ONLINE_SPANS: [(&str, &str); 5] = [
    ("sim.online.aggregate", "sim.online.aggregate_ms"),
    ("sim.online.plan", "sim.online.plan_ms"),
    ("sim.online.replay", "sim.online.replay_ms"),
    ("sim.online.route", "sim.online.route_ms"),
    ("sim.online.merge", "sim.online.merge_ms"),
];

/// What a traced run measured: time samples (medians are reported),
/// counter totals of one pass, and the few ratios.
#[derive(Default)]
struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<String, u64>,
    ratios: BTreeMap<&'static str, f64>,
    /// Summed wall time of the traced slot cycles and of the named
    /// layers inside them.
    cycle: Duration,
    layers: Duration,
    requests: u64,
}

impl Layers {
    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Runs `f` with the program's probes recording and returns its result,
/// wall time, and the probes' delta.
fn observed<R>(f: impl FnOnce() -> R) -> (R, Duration, ObsReport) {
    let before = ObsReport::capture();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    (out, wall, ObsReport::capture().delta(&before))
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn span_ms(report: &ObsReport, name: &str) -> f64 {
    report.spans.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e6)
}

/// Adds a pass's counter deltas to `into`.
fn add_counts(into: &mut BTreeMap<String, u64>, delta: &ObsReport) {
    for (name, &n) in &delta.counters {
        *into.entry(name.clone()).or_insert(0) += n;
    }
}

/// RBCAer's clustering stage rebuilt from the public `ccdn-cluster` API
/// at the scheduler's configuration: Top-fraction sets, Jaccard distance
/// matrix, agglomerative clustering.
fn cluster(input: &SlotInput<'_>, config: &RbcaerConfig) -> usize {
    let mut scratch = Vec::new();
    let sets: Vec<Vec<VideoId>> = (0..input.hotspot_count())
        .map(|h| {
            let mut top = Vec::new();
            input.demand.top_videos_into(HotspotId(h), config.top_fraction, &mut scratch, &mut top);
            top
        })
        .collect();
    let matrix = DistanceMatrix::from_fn(sets.len(), |i, j| 1.0 - jaccard(&sets[i], &sets[j]));
    hierarchical_cluster(&matrix, config.linkage, config.cluster_threshold).len()
}

/// Times RBCAer's stages on one input from outside, given the full
/// pipeline's (`plan_parts`) wall time and probe delta on that input:
/// clustering, balancing (`balance_only`, which clusters first), and
/// Procedure 1 as the pipeline's excess over balancing.
fn rbcaer_stages(
    rbcaer: &Rbcaer,
    input: &SlotInput<'_>,
    plan_t: Duration,
    plan_delta: &ObsReport,
    out: &mut Layers,
) {
    let (_, cluster_t) = timed(|| black_box(cluster(input, rbcaer.config())));
    let (_, balance_t) = timed(|| black_box(rbcaer.balance_only(input)));
    out.push("cluster.cluster_ms", ms(cluster_t));
    out.push("core.balance_ms", ms(balance_t));
    out.push("core.procedure_ms", ms(plan_t.saturating_sub(balance_t)));
    out.push("flow.mcmf.solve_ms", span_ms(plan_delta, "flow.mcmf.solve"));
}

/// Runs `workload` traced on `workers` threads, for at least one pass
/// and `seconds` in all.
pub fn run(workload: Workload, seed: u64, seconds: f64, scale: Scale, workers: usize) -> Report {
    ccdn_par::set_threads(workers);
    let mut out = Layers::default();
    let (mut trace, generate) = timed(|| workload.city(scale, workers));
    out.push("trace.generate_s", generate.as_secs_f64());
    resample(&mut trace, seed);
    let mut geometry = None;
    for _ in 0..GEOMETRY_REPEATS {
        let (g, t) = timed(|| HotspotGeometry::new(trace.region, &trace.hotspots));
        out.push("sim.geometry_ms", ms(t));
        geometry = Some(g);
    }
    let geometry = geometry.expect("GEOMETRY_REPEATS > 0");

    ccdn_obs::set_enabled(true);
    let mut report = Report::default();
    match workload {
        Workload::PaperDay | Workload::Metro => {
            offline(workload, &trace, &geometry, seconds, &mut out, &mut report)
        }
        Workload::OnlineChaos => {
            let runner = crate::online::runner(&trace, workers);
            online(&runner, &trace, &geometry, seconds, &mut out, &mut report)
        }
    }
    ccdn_obs::set_enabled(false);

    let solves = out.count("flow.mcmf.solves");
    let rounds = out.count("flow.mcmf.dijkstra_rounds");
    out.ratios.insert("flow.mcmf.rounds_per_solve", ratio(rounds, solves));
    let warm = out.count("core.sharded.tiles_topped_up") + out.count("core.sharded.tiles_reused");
    let tiles = warm + out.count("core.sharded.tiles_cold");
    out.ratios.insert("core.sharded.warm_ratio", ratio(warm, tiles));
    out.ratios.insert("bench.layer_coverage", out.layers.as_secs_f64() / out.cycle.as_secs_f64());
    eprintln!(
        "{} traced: {:.0} requests/s through traced slot cycles; layers cover {:.4} of them",
        workload.name(),
        out.requests as f64 / out.cycle.as_secs_f64(),
        out.ratios["bench.layer_coverage"]
    );
    for (name, unit) in PER_LAYER {
        let value = match unit {
            "count" => out.count(name) as f64,
            "ratio" => out.ratios.get(name).copied().unwrap_or(0.0),
            _ => out.samples.get(name).map_or(0.0, |v| median(v)),
        };
        report.metric(name, value, unit);
    }
    report
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `paper-day` and `metro`: one slot cycle is aggregate → plan →
/// evaluate, each timed; RBCAer's inner stages are timed on the same
/// input after the cycle.
fn offline(
    workload: Workload,
    trace: &Trace,
    geometry: &HotspotGeometry,
    seconds: f64,
    out: &mut Layers,
    report: &mut Report,
) {
    let locations = locations(trace);
    let service: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
    let cache: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
    let cdn_km = cdn_distance_km(trace.region.diagonal());
    let start = Instant::now();
    let mut first_counts: Option<BTreeMap<String, u64>> = None;
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut scheme = workload.scheme();
        let mut counts = BTreeMap::new();
        for s in 0..trace.slot_count {
            let cycle = Instant::now();
            let (demand, aggregate_t) =
                timed(|| SlotDemand::aggregate(trace.slot_requests(s), geometry));
            let input = SlotInput {
                geometry,
                demand: &demand,
                service_capacity: &service,
                cache_capacity: &cache,
                video_count: trace.video_count,
            };
            let (decision, plan_t, delta) = observed(|| match &mut scheme {
                Planner::Flat(rbcaer) => rbcaer.plan_parts(&input).1,
                Planner::Sharded(sharded) => sharded.schedule(&input),
            });
            let (metrics, evaluate_t) = timed(|| SlotMetrics::evaluate(&input, &decision));
            out.cycle += cycle.elapsed();
            out.layers += aggregate_t + plan_t + evaluate_t;
            out.requests += demand.total_requests();
            add_counts(&mut counts, &delta);
            out.push("sim.aggregate_ms", ms(aggregate_t));
            out.push("sim.evaluate_ms", ms(evaluate_t));
            match &scheme {
                Planner::Flat(rbcaer) => rbcaer_stages(rbcaer, &input, plan_t, &delta, out),
                Planner::Sharded(_) => {
                    out.push("core.sharded_ms", ms(plan_t));
                    out.push("flow.mcmf.solve_ms", span_ms(&delta, "flow.mcmf.solve"));
                }
            }
            // Audit the first pass's decisions with the checker, outside
            // every timer.
            let verdict = match metrics {
                Err(e) => Err(e.to_string()),
                Ok(_) if passes > 0 => Ok(()),
                Ok(m) => Demand::from_requests(trace.slot_requests(s), s, locations.len(), |p| {
                    geometry.nearest(p)
                })
                .and_then(|d| {
                    let caps = Capacities { service: &service, cache: &cache };
                    check_decision(&d, &locations, caps, cdn_km, &decision)
                })
                .and_then(|tally| compare_slot(&tally, &m, trace.video_count as u64)),
            };
            if let Err(e) = verdict {
                report.fail(1, format!("slot {s}: {e}"));
            }
        }
        report.attempted += u64::from(trace.slot_count);
        passes += 1;
        match &first_counts {
            None => first_counts = Some(counts),
            Some(first) if *first != counts => {
                report.fail(u64::from(trace.slot_count), format!("pass {passes}: counts differ"));
            }
            Some(_) => {}
        }
    }
    out.counts = first_counts.unwrap_or_default();
}

/// A plan's input: the forecast demand, service and cache capacities.
type PlanInput = (SlotDemand, Vec<u64>, Vec<u64>);

/// Wraps the online scheme to keep each plan's input for the stage
/// breakdown that runs after the drive (so the drive's spans stay
/// undisturbed).
struct Recorder {
    inner: Planner,
    inputs: Option<Vec<PlanInput>>,
}

impl Scheme for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, input: &SlotInput<'_>) -> SlotDecision {
        if let Some(inputs) = &mut self.inputs {
            inputs.push((
                input.demand.clone(),
                input.service_capacity.to_vec(),
                input.cache_capacity.to_vec(),
            ));
        }
        self.inner.schedule(input)
    }
}

/// Times the predictor's `predict` + `observe` per slot.
struct TimedPredictor {
    inner: Ewma,
    ns: RefCell<Vec<u64>>,
}

impl PopularityPredictor for TimedPredictor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn observe(&mut self, demand: &SlotDemand) {
        let start = Instant::now();
        self.inner.observe(demand);
        let t = start.elapsed().as_nanos() as u64;
        if let Some(last) = self.ns.get_mut().last_mut() {
            *last += t;
        }
    }

    fn predict(&self) -> Option<SlotDemand> {
        let start = Instant::now();
        let forecast = self.inner.predict();
        self.ns.borrow_mut().push(start.elapsed().as_nanos() as u64);
        forecast
    }
}

/// `online-chaos`: the drive's own phase spans and counters, per-slot
/// aggregation and prediction timed from outside, and RBCAer's stages
/// replayed on the recorded plan inputs.
fn online(
    runner: &OnlineRunner<'_>,
    trace: &Trace,
    geometry: &HotspotGeometry,
    seconds: f64,
    out: &mut Layers,
    report: &mut Report,
) {
    let slots = u64::from(trace.slot_count);
    let start = Instant::now();
    let mut first = None;
    let mut inputs = Vec::new();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for s in 0..trace.slot_count {
            let (_, t) =
                timed(|| black_box(SlotDemand::aggregate(trace.slot_requests(s), geometry)));
            out.push("sim.aggregate_ms", ms(t));
        }
        let mut scheme = Recorder {
            inner: Workload::OnlineChaos.scheme(),
            inputs: (passes == 0).then(Vec::new),
        };
        let mut predictor = TimedPredictor { inner: Ewma::new(EWMA_ALPHA), ns: RefCell::default() };
        let (result, wall, delta) = observed(|| runner.run(&mut scheme, &mut predictor));
        passes += 1;
        report.attempted += slots;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                report.fail(slots, format!("pass {passes}: {e}"));
                continue;
            }
        };
        out.cycle += wall;
        out.requests += run.total.sums.total_requests;
        for (span, name) in ONLINE_SPANS {
            let total = span_ms(&delta, span);
            out.layers += Duration::from_secs_f64(total / 1e3);
            out.push(name, total / slots as f64);
        }
        for ns in predictor.ns.into_inner() {
            out.push("sim.predict_ms", ns as f64 / 1e6);
        }
        let mut counts = BTreeMap::new();
        add_counts(&mut counts, &delta);
        match &first {
            None => {
                out.counts = counts;
                out.ratios.insert("sim.online.rescue_ratio", ratio(run.failed_over, run.disrupted));
                inputs = scheme.inputs.unwrap_or_default();
                first = Some(run);
            }
            Some(f) if *f != run || out.counts != counts => {
                report.fail(slots, format!("pass {passes}: outcome or counts differ"));
            }
            Some(_) => {}
        }
    }

    let Planner::Flat(rbcaer) = Workload::OnlineChaos.scheme() else {
        unreachable!("the online workload plans with flat RBCAer")
    };
    for (demand, service, cache) in &inputs {
        let input = SlotInput {
            geometry,
            demand,
            service_capacity: service,
            cache_capacity: cache,
            video_count: trace.video_count,
        };
        let (_, plan_t, delta) = observed(|| black_box(rbcaer.plan_parts(&input)));
        rbcaer_stages(&rbcaer, &input, plan_t, &delta, out);
    }
}
