//! Untraced run of `online-chaos`: the program's `OnlineRunner` drives
//! predict → plan → replicate → route over 72 hourly slots with every
//! chaos fault family at intensity 1.

use std::hint::black_box;
use std::time::Instant;

use ccdn_obs::ObsReport;
use ccdn_sim::{Ewma, HotspotGeometry, OnlineReport, OnlineRunner, SlotInput};
use ccdn_trace::Trace;

use crate::check::{
    cdn_distance_km, check_decision, check_nearest, compare_totals, Capacities, Demand, Tally,
};
use crate::offline::{end_to_end, nearest_checks, setup, timed_passes};
use crate::workload::{chaos_options, locations, slot_counts, Probe, Scale, Workload};
use crate::Report;

/// EWMA smoothing of the forecast, as in `--bin online`.
pub const EWMA_ALPHA: f64 = 0.3;

/// The runner the workload drives, with its chaos plane attached.
pub fn runner(trace: &Trace, workers: usize) -> OnlineRunner<'_> {
    OnlineRunner::new(trace).with_threads(workers).with_chaos(chaos_options())
}

/// Runs `online-chaos` untraced on `workers` threads for `seconds` of
/// timed passes.
pub fn run(
    seed: u64,
    seconds: f64,
    scale: Scale,
    workers: usize,
    process_start: Instant,
) -> Report {
    let workload = Workload::OnlineChaos;
    ccdn_par::set_threads(workers);
    let build = || workload.inputs(seed, scale, workers);
    let (trace, setups) = setup(build, process_start, |trace| {
        black_box(runner(trace, workers));
    });
    let runner = runner(&trace, workers);
    let slots = u64::from(trace.slot_count);
    let mut report = Report::default();

    let Some((first, first_prints)) = checked_pass(seed, &trace, &runner, &mut report) else {
        report.attempted += slots;
        return report;
    };
    // Pass 2, also the warm-up: the same slots must give the same bytes.
    let mut probe = Probe::fingerprinting(workload.scheme());
    match runner.run(&mut probe, &mut Ewma::new(EWMA_ALPHA)) {
        Ok(second) if second == first && probe.fingerprints == first_prints => {}
        Ok(_) => report.fail(slots, "two passes gave different decisions or outcomes".into()),
        Err(e) => report.fail(slots, format!("second pass: {e}")),
    }
    report.attempted += 2 * slots;

    let timed = timed_passes(workload, seconds, slots, &mut report, |probe| {
        match runner.run(probe, &mut Ewma::new(EWMA_ALPHA)) {
            Ok(r) if r == first => Ok(r.total.sums.total_requests),
            Ok(_) => Err("the outcome changed".into()),
            Err(e) => Err(e.to_string()),
        }
    });
    eprintln!("online-chaos: {} of {} slots degraded", first.degraded_slots, slots);
    end_to_end(&mut report, workload, &setups, &timed, &first.total);
    report
}

/// The checked pass. `OnlineRunner` keeps its routed decisions to
/// itself, so the checker audits what is public: every plan against the
/// forecast and capacities the scheme was handed (Eqs. 4–7), each slot's
/// request count and serving split against the raw trace, the failover
/// identity, and the four §V-A totals recomputed from per-slot tallies.
fn checked_pass(
    seed: u64,
    trace: &Trace,
    runner: &OnlineRunner<'_>,
    report: &mut Report,
) -> Option<(OnlineReport, Vec<u128>)> {
    let slots = u64::from(trace.slot_count);
    let locations = locations(trace);
    let service: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.service_capacity)).collect();
    let cache: Vec<u64> = trace.hotspots.iter().map(|h| u64::from(h.cache_capacity)).collect();
    let cdn_km = cdn_distance_km(trace.region.diagonal());
    let plan_locations = locations.clone();
    let audit = move |input: &SlotInput<'_>, decision: &_| -> Result<Tally, String> {
        let within = |planned: &[u64], full: &[u64]| {
            planned.len() == full.len() && planned.iter().zip(full).all(|(p, f)| p <= f)
        };
        if !within(input.service_capacity, &service) || !within(input.cache_capacity, &cache) {
            return Err("a plan was handed capacities above the hotspots' own".into());
        }
        let caps = Capacities { service: input.service_capacity, cache: input.cache_capacity };
        let forecast = Demand::from_slot_demand(input.demand);
        check_decision(&forecast, &plan_locations, caps, cdn_km, decision)
    };
    let mut probe = Probe::auditing(Workload::OnlineChaos.scheme(), Box::new(audit));
    // The fault counter is read from the program's own probes, switched
    // on for this untimed pass only.
    ccdn_obs::set_enabled(true);
    let before = ObsReport::capture();
    let result = runner.run(&mut probe, &mut Ewma::new(EWMA_ALPHA));
    let faults = ObsReport::capture()
        .delta(&before)
        .counters
        .get("sim.online.chaos.faults_injected")
        .copied()
        .unwrap_or(0);
    ccdn_obs::set_enabled(false);
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            report.fail(slots, format!("checked pass: {e}"));
            return None;
        }
    };
    for (i, verdict) in probe.audits.iter().enumerate() {
        if let Err(e) = verdict {
            report.fail(1, format!("plan {i}: {e}"));
        }
    }

    let counts = match slot_counts(trace) {
        Ok(counts) => counts,
        Err(e) => {
            report.fail(slots, e);
            return None;
        }
    };
    let geometry = HotspotGeometry::new(trace.region, &trace.hotspots);
    let max_checks = nearest_checks(trace.hotspots.len());
    let mut sum = Tally::default();
    for outcome in &run.slots {
        let s = outcome.slot;
        let m = &outcome.metrics;
        let requests = trace.slot_requests(s);
        let verdict = if Some(&m.total_requests) != counts.get(s as usize) {
            Err(format!(
                "{} requests stated, {:?} counted",
                m.total_requests,
                counts.get(s as usize)
            ))
        } else if m.hotspot_served + m.cdn_served != m.total_requests {
            Err("served requests do not add up to the slot's requests".into())
        } else if outcome.failed_over + outcome.orphaned != outcome.disrupted {
            Err(format!(
                "failed over {} + orphaned {} != disrupted {}",
                outcome.failed_over, outcome.orphaned, outcome.disrupted
            ))
        } else {
            check_nearest(requests, &locations, &geometry, max_checks, seed ^ u64::from(s))
                .map(|_| ())
        };
        if let Err(e) = verdict {
            report.fail(1, format!("slot {s}: {e}"));
        }
        sum.add(&Tally {
            total_requests: m.total_requests,
            hotspot_served: m.hotspot_served,
            cdn_served: m.cdn_served,
            replicas: m.replicas,
            distance_sum_km: m.distance_sum_km,
        });
    }
    if let Err(e) = compare_totals(&sum, &run.total, trace.video_count as u64) {
        report.fail(slots, e);
    }
    // The workload must keep exercising the chaos plane and failover.
    if faults == 0 {
        report.fail(slots, "the chaos plane injected no faults".into());
    }
    if run.degraded_slots == 0 {
        report.fail(slots, "no slot ran in degraded mode".into());
    }
    Some((run, probe.fingerprints))
}
