//! Untraced runs of the offline workloads (`paper-day`, `metro`): the
//! program's `Runner` drives aggregate → plan → evaluate over every slot.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ccdn_core::Nearest;
use ccdn_sim::{MetricsTotals, RunReport, Runner, Scheme, SlotInput};
use ccdn_trace::Trace;

use crate::check::{
    cdn_distance_km, check_decision, check_nearest, compare_slot, compare_totals, Capacities,
    Demand, Tally,
};
use crate::workload::{
    locations, slot_counts, Planner, Probe, Scale, Workload, SETUP_REPEATS, SETUP_SECONDS,
};
use crate::{median, peak_rss_mb, quantile, Report};

/// Brute-force nearest-hotspot checks per slot are capped at this many
/// distance evaluations (all requests when that covers them).
const NEAREST_BUDGET: usize = 8_000_000;
/// At least this many requests per slot are checked by brute force.
const NEAREST_MIN: usize = 1_000;

/// Builds the inputs at least [`SETUP_REPEATS`] times, and until the
/// builds have taken [`SETUP_SECONDS`] in all, keeping the last. Each
/// build is timed from its start (the first from process start) through
/// `build`, which makes the trace, and `ready`, which builds what
/// planning needs.
pub fn setup(
    build: impl Fn() -> Trace,
    process_start: Instant,
    ready: impl Fn(&Trace),
) -> (Trace, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_SECONDS {
        // The previous build is dropped first, so at most one trace is
        // ever resident (peak RSS is a reported metric).
        drop(kept.take());
        let start = if times.is_empty() { process_start } else { Instant::now() };
        let trace = build();
        ready(&trace);
        times.push(start.elapsed().as_secs_f64());
        kept = Some(trace);
    }
    (kept.expect("at least one build"), times)
}

/// How many requests of a slot to check by brute-force nearest lookup.
pub fn nearest_checks(hotspots: usize) -> usize {
    (NEAREST_BUDGET / hotspots.max(1)).max(NEAREST_MIN)
}

/// Runs `paper-day` or `metro` untraced on `workers` threads for
/// `seconds` of timed passes.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    workers: usize,
    process_start: Instant,
) -> Report {
    ccdn_par::set_threads(workers);
    let build = || workload.inputs(seed, scale, workers);
    let (trace, setups) = setup(build, process_start, |trace| {
        black_box(Runner::new(trace).with_threads(workers));
    });
    let runner = Runner::new(&trace).with_threads(workers);
    let slots = u64::from(trace.slot_count);
    let mut report = Report::default();

    // Pass 1: every decision audited by the checker.
    let checked = checked_pass(workload, seed, &trace, &runner, &mut report);
    // Pass 2, also the warm-up: the same slots must give the same bytes.
    let mut probe = Probe::fingerprinting(workload.scheme());
    let second = runner.run(&mut probe);
    report.attempted += 2 * slots;
    let Some((first, first_prints)) = checked else {
        report.fail(slots, "the checked pass did not complete".into());
        return report;
    };
    match second {
        Ok(second) => {
            for (slot, (a, b)) in first_prints.iter().zip(&probe.fingerprints).enumerate() {
                if a != b {
                    report.fail(1, format!("slot {slot}: decision differs between two passes"));
                }
            }
            if probe.fingerprints.len() != first_prints.len() || !same_metrics(&first, &second) {
                report.fail(slots, "the second pass reported different metrics".into());
            }
        }
        Err(e) => report.fail(slots, format!("second pass: {e}")),
    }

    let timed =
        timed_passes(workload, seconds, slots, &mut report, |probe| match runner.run(probe) {
            Ok(r) if same_metrics(&first, &r) => Ok(r.total.sums.total_requests),
            Ok(_) => Err("the metrics changed".into()),
            Err(e) => Err(e.to_string()),
        });
    end_to_end(&mut report, workload, &setups, &timed, &first.total);
    report
}

/// What the timed passes measured.
pub struct TimedPasses {
    passes: u64,
    requests: u64,
    wall: Duration,
    plan_ms: Vec<f64>,
    pass_rates: Vec<f64>,
}

/// Runs whole timed passes, each on a fresh scheme, until `seconds` have
/// gone by. `pass` drives one pass through the given probe and returns the
/// requests it carried, or why it failed its checks.
pub fn timed_passes(
    workload: Workload,
    seconds: f64,
    slots: u64,
    report: &mut Report,
    mut pass: impl FnMut(&mut Probe<'static, Planner>) -> Result<u64, String>,
) -> TimedPasses {
    let mut timed = TimedPasses {
        passes: 0,
        requests: 0,
        wall: Duration::ZERO,
        plan_ms: Vec::new(),
        pass_rates: Vec::new(),
    };
    let start = Instant::now();
    while timed.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut probe = Probe::timing(workload.scheme());
        let pass_start = Instant::now();
        let result = pass(&mut probe);
        let wall = pass_start.elapsed();
        timed.wall += wall;
        timed.passes += 1;
        timed.plan_ms.extend(probe.plan_ns.iter().map(|&ns| ns as f64 / 1e6));
        match result {
            Ok(requests) => {
                timed.requests += requests;
                timed.pass_rates.push(requests as f64 / wall.as_secs_f64());
            }
            Err(e) => report.fail(slots, format!("timed pass {}: {e}", timed.passes)),
        }
    }
    report.attempted += timed.passes * slots;
    timed
}

/// Reports the eight end-to-end metrics, with reference figures (the
/// plan tail and its sample count, per-pass throughput) on stderr.
pub fn end_to_end(
    report: &mut Report,
    workload: Workload,
    setups: &[f64],
    timed: &TimedPasses,
    total: &MetricsTotals,
) {
    let plan_ms = &timed.plan_ms;
    eprintln!(
        "{}: {} timed passes, {} plans: plan p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms; \
         per-pass requests/s {:.0?}; setups {:.3?} s",
        workload.name(),
        timed.passes,
        plan_ms.len(),
        median(plan_ms),
        quantile(plan_ms, 0.9),
        quantile(plan_ms, 0.99),
        timed.pass_rates,
        setups
    );
    report.metric("setup_s", median(setups), "s");
    report.metric("requests_per_s", timed.requests as f64 / timed.wall.as_secs_f64(), "req/s");
    report.metric("plan_ms_p50", median(plan_ms), "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("serving_ratio", total.hotspot_serving_ratio(), "ratio");
    report.metric("avg_access_km", total.average_distance_km(), "km");
    report.metric("replication_cost", total.replication_cost(), "ratio");
    report.metric("cdn_load", total.cdn_server_load(), "ratio");
}

/// Slot metrics and totals equal (scheduling times aside).
fn same_metrics(a: &RunReport, b: &RunReport) -> bool {
    a.total == b.total && a.slots.iter().map(|s| s.metrics).eq(b.slots.iter().map(|s| s.metrics))
}

/// The checked pass: the checker audits every decision against demand
/// recomputed from the raw trace, then compares its tallies with the
/// program's metrics. Returns the run report and decision fingerprints.
fn checked_pass(
    workload: Workload,
    seed: u64,
    trace: &Trace,
    runner: &Runner<'_>,
    report: &mut Report,
) -> Option<(RunReport, Vec<u128>)> {
    let n = trace.hotspots.len();
    let locations = locations(trace);
    let service: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
    let cache: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
    let cdn_km = cdn_distance_km(trace.region.diagonal());
    let counts = match slot_counts(trace) {
        Ok(counts) => counts,
        Err(e) => {
            report.fail(u64::from(trace.slot_count), e);
            return None;
        }
    };
    let geometry = runner.geometry();
    let max_checks = nearest_checks(n);
    let mut slot = 0u32;
    let audit = move |input: &SlotInput<'_>, decision: &_| -> Result<Tally, String> {
        let s = slot;
        slot += 1;
        let requests = trace.slot_requests(s);
        let expected = counts.get(s as usize).copied().unwrap_or(0);
        if requests.len() as u64 != expected {
            return Err(format!("{} requests listed, {expected} counted", requests.len()));
        }
        check_nearest(requests, &locations, geometry, max_checks, seed ^ u64::from(s))?;
        let demand = Demand::from_requests(requests, s, n, |p| geometry.nearest(p))?;
        let caps = Capacities { service: &service, cache: &cache };
        let tally = check_decision(&demand, &locations, caps, cdn_km, decision)?;
        if workload == Workload::PaperDay {
            // Fig. 6: RBCAer serves at least what nearest-hotspot
            // routing serves, and its access distance never exceeds the
            // CDN's.
            let nearest =
                check_decision(&demand, &locations, caps, cdn_km, &Nearest::new().schedule(input))
                    .map_err(|e| format!("Nearest's decision: {e}"))?;
            if tally.serving_ratio() < nearest.serving_ratio() {
                return Err(format!(
                    "serving ratio {} below Nearest's {}",
                    tally.serving_ratio(),
                    nearest.serving_ratio()
                ));
            }
            if tally.avg_access_km() > cdn_km {
                return Err(format!("access distance {} above the CDN's", tally.avg_access_km()));
            }
        }
        Ok(tally)
    };
    let mut probe = Probe::auditing(workload.scheme(), Box::new(audit));
    let result = runner.run(&mut probe);
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            report.fail(u64::from(trace.slot_count), format!("checked pass: {e}"));
            return None;
        }
    };
    let video_count = trace.video_count as u64;
    let mut sum = Tally::default();
    for (s, outcome) in run.slots.iter().enumerate() {
        let verdict = match probe.audits.get(s) {
            Some(Ok(tally)) => {
                sum.add(tally);
                compare_slot(tally, &outcome.metrics, video_count)
            }
            Some(Err(e)) => Err(e.clone()),
            None => Err("the scheme was not asked to plan this slot".into()),
        };
        if let Err(e) = verdict {
            report.fail(1, format!("slot {s}: {e}"));
        }
    }
    if let Err(e) = compare_totals(&sum, &run.total, video_count) {
        report.fail(u64::from(trace.slot_count), e);
    }
    Some((run, probe.fingerprints))
}
