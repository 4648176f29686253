//! Independent output checker.
//!
//! Recomputes a slot's demand from the raw trace and audits a
//! [`SlotDecision`] through its public fields only: coverage (Eq. 4),
//! placement consistency (Eq. 5), service and cache capacity (Eqs. 6 and
//! 7), duplicate placements, and the four §V-A metrics from their
//! formulas. None of it calls the program's own validators.

use ccdn_geo::Point;
use ccdn_sim::{HotspotGeometry, MetricsTotals, SlotDecision, SlotDemand, SlotMetrics, Target};
use ccdn_trace::{HotspotId, Request, VideoId};

use crate::SplitMix64;

/// Relative tolerance for recomputed float metrics.
pub const REL_TOL: f64 = 1e-9;

/// One slot's `λ_hv` with each hotspot's mean user→hotspot distance.
#[derive(Debug, Clone, PartialEq)]
pub struct Demand {
    /// `(hotspot, video, count)`, sorted by hotspot then video; counts > 0.
    pub entries: Vec<(usize, VideoId, u64)>,
    /// Mean distance from a request to the hotspot it aggregated at, per
    /// hotspot (0 for a hotspot with no requests).
    pub base_mean: Vec<f64>,
    /// Requests in the slot.
    pub total: u64,
}

impl Demand {
    /// Aggregates the raw `requests` of `slot`, each to the hotspot that
    /// `nearest` names. Fails if a request belongs to another slot.
    pub fn from_requests(
        requests: &[Request],
        slot: u32,
        hotspot_count: usize,
        nearest: impl Fn(Point) -> Option<(HotspotId, f64)>,
    ) -> Result<Demand, String> {
        let mut pairs: Vec<(usize, VideoId)> = Vec::with_capacity(requests.len());
        let mut load = vec![0u64; hotspot_count];
        let mut base_sum = vec![0.0f64; hotspot_count];
        for r in requests {
            if r.timeslot != slot {
                return Err(format!("a request of slot {} is listed in slot {slot}", r.timeslot));
            }
            let (h, d) = nearest(r.location).ok_or("a request has no nearest hotspot")?;
            if h.0 >= hotspot_count {
                return Err(format!("nearest hotspot {h} is out of range"));
            }
            load[h.0] += 1;
            base_sum[h.0] += d;
            pairs.push((h.0, r.video));
        }
        pairs.sort_unstable();
        let mut entries: Vec<(usize, VideoId, u64)> = Vec::new();
        for (h, v) in pairs {
            match entries.last_mut() {
                Some(last) if last.0 == h && last.1 == v => last.2 += 1,
                _ => entries.push((h, v, 1)),
            }
        }
        let base_mean = base_sum
            .iter()
            .zip(&load)
            .map(|(&sum, &l)| if l == 0 { 0.0 } else { sum / l as f64 })
            .collect();
        Ok(Demand { entries, base_mean, total: requests.len() as u64 })
    }

    /// The demand a scheme was handed (a forecast in the online loop),
    /// read through the program's public accessors.
    pub fn from_slot_demand(demand: &SlotDemand) -> Demand {
        let entries = demand.per_video().map(|(h, vd)| (h.0, vd.video, vd.count)).collect();
        let base_mean =
            (0..demand.hotspot_count()).map(|h| demand.mean_base_distance(HotspotId(h))).collect();
        Demand { entries, base_mean, total: demand.total_requests() }
    }
}

/// Raw tallies of one decision, recomputed by the checker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Tally {
    /// Requests in the slot.
    pub total_requests: u64,
    /// Requests served by a hotspot.
    pub hotspot_served: u64,
    /// Requests served by the CDN.
    pub cdn_served: u64,
    /// Replicas placed.
    pub replicas: u64,
    /// Summed access distance, km.
    pub distance_sum_km: f64,
}

impl Tally {
    /// Adds another slot's tallies.
    pub fn add(&mut self, other: &Tally) {
        self.total_requests += other.total_requests;
        self.hotspot_served += other.hotspot_served;
        self.cdn_served += other.cdn_served;
        self.replicas += other.replicas;
        self.distance_sum_km += other.distance_sum_km;
    }

    /// §V-A hotspot serving ratio.
    pub fn serving_ratio(&self) -> f64 {
        ratio(self.hotspot_served as f64, self.total_requests)
    }

    /// §V-A average content access distance, km.
    pub fn avg_access_km(&self) -> f64 {
        ratio(self.distance_sum_km, self.total_requests)
    }

    /// §V-A replication cost: replicas over the catalog size.
    pub fn replication_cost(&self, video_count: u64) -> f64 {
        ratio(self.replicas as f64, video_count)
    }

    /// §V-A CDN load: CDN-served requests plus pushed replicas, over the
    /// request count.
    pub fn cdn_load(&self) -> f64 {
        ratio((self.cdn_served + self.replicas) as f64, self.total_requests)
    }
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Hotspot capacities a decision must respect.
#[derive(Debug, Clone, Copy)]
pub struct Capacities<'a> {
    /// Service capacity `s_h` per hotspot.
    pub service: &'a [u64],
    /// Cache capacity `c_h` per hotspot.
    pub cache: &'a [u64],
}

/// The CDN access distance of §V-A: 20 km for the paper's region, the
/// region diagonal for any other.
pub fn cdn_distance_km(diagonal_km: f64) -> f64 {
    if (diagonal_km - 20.0).abs() < 1.0 {
        20.0
    } else {
        diagonal_km
    }
}

/// Audits `decision` against `demand` and recomputes its tallies.
pub fn check_decision(
    demand: &Demand,
    locations: &[Point],
    caps: Capacities<'_>,
    cdn_km: f64,
    decision: &SlotDecision,
) -> Result<Tally, String> {
    let n = locations.len();
    if decision.placements.len() != n || caps.service.len() != n || caps.cache.len() != n {
        return Err(format!(
            "shape: {} placement lists, {} service and {} cache capacities for {n} hotspots",
            decision.placements.len(),
            caps.service.len(),
            caps.cache.len()
        ));
    }

    // Eq. 7 and duplicate placements.
    let mut cached: Vec<Vec<VideoId>> = decision.placements.clone();
    for (h, videos) in cached.iter_mut().enumerate() {
        videos.sort_unstable();
        if let Some(w) = videos.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate placement of {} at h{h}", w[0]));
        }
        if videos.len() as u64 > caps.cache[h] {
            return Err(format!(
                "Eq. 7: h{h} caches {} videos over capacity {}",
                videos.len(),
                caps.cache[h]
            ));
        }
    }

    // Eq. 4: assignments summed per (from, video) equal λ_hv exactly.
    let mut assigned: Vec<(usize, VideoId, u64)> = Vec::with_capacity(decision.assignments.len());
    for a in &decision.assignments {
        if a.from.0 >= n {
            return Err(format!("assignment from out-of-range {}", a.from));
        }
        assigned.push((a.from.0, a.video, a.count));
    }
    assigned.sort_unstable_by_key(|&(h, v, _)| (h, v));
    let mut merged: Vec<(usize, VideoId, u64)> = Vec::with_capacity(assigned.len());
    for (h, v, c) in assigned {
        match merged.last_mut() {
            Some(last) if last.0 == h && last.1 == v => last.2 += c,
            _ => merged.push((h, v, c)),
        }
    }
    merged.retain(|&(_, _, c)| c > 0);
    if merged != demand.entries {
        let first_gap = demand
            .entries
            .iter()
            .zip(&merged)
            .find(|(want, got)| want != got)
            .map(|(want, got)| format!("demanded {want:?}, assigned {got:?}"))
            .unwrap_or_else(|| {
                format!("{} demand entries, {} assigned", demand.entries.len(), merged.len())
            });
        return Err(format!("Eq. 4: demand not assigned exactly: {first_gap}"));
    }

    // Eqs. 5 and 6, and the access distance of every request.
    let mut served_at = vec![0u64; n];
    let mut tally = Tally { total_requests: demand.total, ..Tally::default() };
    for a in &decision.assignments {
        let base = demand.base_mean[a.from.0];
        match a.target {
            Target::Hotspot(j) => {
                if j.0 >= n || cached[j.0].binary_search(&a.video).is_err() {
                    return Err(format!("Eq. 5: {j} serves {} without caching it", a.video));
                }
                served_at[j.0] += a.count;
                tally.hotspot_served += a.count;
                let hop =
                    if j == a.from { 0.0 } else { locations[a.from.0].distance(locations[j.0]) };
                tally.distance_sum_km += a.count as f64 * (base + hop);
            }
            Target::Cdn => {
                tally.cdn_served += a.count;
                tally.distance_sum_km += a.count as f64 * cdn_km;
            }
        }
    }
    if let Some((h, &served)) = served_at.iter().enumerate().find(|&(h, &s)| s > caps.service[h]) {
        return Err(format!("Eq. 6: h{h} serves {served} over capacity {}", caps.service[h]));
    }
    if tally.hotspot_served + tally.cdn_served != demand.total {
        return Err(format!(
            "{} hotspot-served + {} CDN-served requests != {} demanded",
            tally.hotspot_served, tally.cdn_served, demand.total
        ));
    }
    tally.replicas = decision.placements.iter().map(|p| p.len() as u64).sum();
    Ok(tally)
}

/// Whether `a` and `b` agree within [`REL_TOL`] relative.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

fn compare(name: &str, ours: f64, program: f64) -> Result<(), String> {
    if close(ours, program) {
        Ok(())
    } else {
        Err(format!("{name}: recomputed {ours}, program states {program}"))
    }
}

/// Compares recomputed tallies with one slot's [`SlotMetrics`].
pub fn compare_slot(ours: &Tally, program: &SlotMetrics, video_count: u64) -> Result<(), String> {
    let counts = [
        ("total requests", ours.total_requests, program.total_requests),
        ("hotspot-served requests", ours.hotspot_served, program.hotspot_served),
        ("CDN-served requests", ours.cdn_served, program.cdn_served),
        ("replicas", ours.replicas, program.replicas),
        ("catalog size", video_count, program.video_count),
    ];
    if let Some((name, a, b)) = counts.iter().find(|(_, a, b)| a != b) {
        return Err(format!("{name}: recomputed {a}, program states {b}"));
    }
    compare("distance sum", ours.distance_sum_km, program.distance_sum_km)?;
    compare("serving ratio", ours.serving_ratio(), program.hotspot_serving_ratio())?;
    compare("access distance", ours.avg_access_km(), program.average_distance_km())?;
    compare("replication cost", ours.replication_cost(video_count), program.replication_cost())?;
    compare("CDN load", ours.cdn_load(), program.cdn_server_load())
}

/// Compares summed recomputed tallies with the program's run totals.
pub fn compare_totals(
    ours: &Tally,
    program: &MetricsTotals,
    video_count: u64,
) -> Result<(), String> {
    compare("total serving ratio", ours.serving_ratio(), program.hotspot_serving_ratio())?;
    compare("total access distance", ours.avg_access_km(), program.average_distance_km())?;
    compare(
        "total replication cost",
        ours.replication_cost(video_count),
        program.replication_cost(),
    )?;
    compare("total CDN load", ours.cdn_load(), program.cdn_server_load())
}

/// Checks the grid-indexed nearest-hotspot lookup against a brute-force
/// scan: every request when there are at most `max_checks`, else a
/// seeded sample of `max_checks`. Returns how many were checked.
pub fn check_nearest(
    requests: &[Request],
    locations: &[Point],
    geometry: &HotspotGeometry,
    max_checks: usize,
    seed: u64,
) -> Result<usize, String> {
    let mut rng = SplitMix64::new(seed);
    let sample = requests.len().min(max_checks);
    for k in 0..sample {
        let r = if requests.len() <= max_checks {
            &requests[k]
        } else {
            &requests[rng.below(requests.len() as u64) as usize]
        };
        let brute = locations
            .iter()
            .map(|&p| p.distance(r.location))
            .min_by(f64::total_cmp)
            .ok_or("no hotspots")?;
        let (h, d) = geometry.nearest(r.location).ok_or("grid found no hotspot")?;
        let own = locations.get(h.0).map(|p| p.distance(r.location));
        if own != Some(d) || d != brute {
            return Err(format!(
                "nearest hotspot of ({}, {}): grid says {h} at {d} km, brute force {brute} km",
                r.location.x, r.location.y
            ));
        }
    }
    Ok(sample)
}

/// 128-bit fingerprint of a decision's bytes (every field, in order), so
/// two passes can be compared without keeping whole decisions resident.
pub fn fingerprint(decision: &SlotDecision) -> u128 {
    let mut a = Fnv::new(0xcbf2_9ce4_8422_2325);
    let mut b = Fnv::new(0x8422_2325_cbf2_9ce4);
    let mut put = |x: u64| {
        a.put(x);
        b.put(x.rotate_left(29) ^ 0x9e37_79b9_7f4a_7c15);
    };
    put(decision.assignments.len() as u64);
    for x in &decision.assignments {
        put(x.from.0 as u64);
        put(u64::from(x.video.0));
        put(match x.target {
            Target::Hotspot(j) => j.0 as u64,
            Target::Cdn => u64::MAX,
        });
        put(x.count);
    }
    put(decision.placements.len() as u64);
    for p in &decision.placements {
        put(p.len() as u64);
        for v in p {
            put(u64::from(v.0));
        }
    }
    (u128::from(a.0) << 64) | u128::from(b.0)
}

struct Fnv(u64);

impl Fnv {
    fn new(offset: u64) -> Self {
        Fnv(offset)
    }

    fn put(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdn_geo::Rect;
    use ccdn_sim::SlotInput;
    use ccdn_trace::{Hotspot, UserId};

    struct Fixture {
        hotspots: Vec<Hotspot>,
        geometry: HotspotGeometry,
        requests: Vec<Request>,
    }

    fn fixture() -> Fixture {
        let hotspots: Vec<Hotspot> = [(2.0, 2.0), (3.0, 2.0), (15.0, 9.0)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Hotspot {
                id: HotspotId(i),
                location: Point::new(x, y),
                service_capacity: 3,
                cache_capacity: 2,
            })
            .collect();
        let geometry = HotspotGeometry::new(Rect::paper_eval_region(), &hotspots);
        let req = |x: f64, y: f64, v: u32| Request {
            user: UserId(0),
            video: VideoId(v),
            timeslot: 0,
            location: Point::new(x, y),
        };
        let requests = vec![
            req(2.0, 2.5, 1),
            req(2.1, 2.0, 1),
            req(1.9, 1.8, 1),
            req(2.2, 2.2, 1),
            req(2.0, 1.5, 2),
            req(15.0, 9.5, 3),
        ];
        Fixture { hotspots, geometry, requests }
    }

    impl Fixture {
        fn locations(&self) -> Vec<Point> {
            self.hotspots.iter().map(|h| h.location).collect()
        }

        fn demand(&self) -> Demand {
            Demand::from_requests(&self.requests, 0, 3, |p| self.geometry.nearest(p)).unwrap()
        }

        /// h0 serves three of its four v1 requests and redirects one to
        /// h1; v2 goes to the CDN; h2 serves its own v3.
        fn valid(&self) -> SlotDecision {
            let mut d = SlotDecision::new(3);
            d.place(HotspotId(0), VideoId(1));
            d.place(HotspotId(1), VideoId(1));
            d.place(HotspotId(2), VideoId(3));
            d.assign(HotspotId(0), VideoId(1), Target::Hotspot(HotspotId(0)), 3);
            d.assign(HotspotId(0), VideoId(1), Target::Hotspot(HotspotId(1)), 1);
            d.assign(HotspotId(0), VideoId(2), Target::Cdn, 1);
            d.assign(HotspotId(2), VideoId(3), Target::Hotspot(HotspotId(2)), 1);
            d
        }

        fn check(&self, decision: &SlotDecision) -> Result<Tally, String> {
            let service = vec![3u64; 3];
            let cache = vec![2u64; 3];
            check_decision(
                &self.demand(),
                &self.locations(),
                Capacities { service: &service, cache: &cache },
                20.0,
                decision,
            )
        }

        fn program_metrics(&self, decision: &SlotDecision) -> SlotMetrics {
            let demand = SlotDemand::aggregate(&self.requests, &self.geometry);
            let service = vec![3u64; 3];
            let cache = vec![2u64; 3];
            let input = SlotInput {
                geometry: &self.geometry,
                demand: &demand,
                service_capacity: &service,
                cache_capacity: &cache,
                video_count: 10,
            };
            SlotMetrics::evaluate(&input, decision).unwrap()
        }
    }

    #[test]
    fn valid_decision_passes_and_matches_the_program() {
        let f = fixture();
        let decision = f.valid();
        let tally = f.check(&decision).unwrap();
        assert_eq!(tally.total_requests, 6);
        assert_eq!(tally.hotspot_served, 5);
        assert_eq!(tally.cdn_served, 1);
        assert_eq!(tally.replicas, 3);
        compare_slot(&tally, &f.program_metrics(&decision), 10).unwrap();
    }

    #[test]
    fn dropped_demand_is_rejected() {
        let f = fixture();
        let mut d = f.valid();
        d.assignments.pop();
        assert!(f.check(&d).unwrap_err().starts_with("Eq. 4"));
        let mut d = f.valid();
        d.assignments[0].count -= 1;
        assert!(f.check(&d).unwrap_err().starts_with("Eq. 4"));
    }

    #[test]
    fn over_capacity_is_rejected() {
        let f = fixture();
        let mut d = f.valid();
        // h0's four v1 requests all served at h0: capacity is 3.
        d.assignments[0].count = 4;
        d.assignments.remove(1);
        assert!(f.check(&d).unwrap_err().starts_with("Eq. 6"));
        let mut d = f.valid();
        d.place(HotspotId(2), VideoId(7));
        d.place(HotspotId(2), VideoId(8));
        assert!(f.check(&d).unwrap_err().starts_with("Eq. 7"));
    }

    #[test]
    fn uncached_redirect_is_rejected() {
        let f = fixture();
        let mut d = f.valid();
        d.placements[1].clear();
        assert!(f.check(&d).unwrap_err().starts_with("Eq. 5"));
    }

    #[test]
    fn duplicate_placement_is_rejected() {
        let f = fixture();
        let mut d = f.valid();
        d.place(HotspotId(0), VideoId(1));
        assert!(f.check(&d).unwrap_err().starts_with("duplicate placement"));
    }

    #[test]
    fn misstated_metrics_are_rejected() {
        let f = fixture();
        let decision = f.valid();
        let tally = f.check(&decision).unwrap();
        let honest = f.program_metrics(&decision);
        let mut m = honest;
        m.hotspot_served -= 1;
        m.cdn_served += 1;
        assert!(compare_slot(&tally, &m, 10).is_err());
        let mut m = honest;
        m.distance_sum_km *= 1.0 + 1e-6;
        assert!(compare_slot(&tally, &m, 10).is_err());
        let mut totals = MetricsTotals::default();
        totals.add(&honest);
        compare_totals(&tally, &totals, 10).unwrap();
        let mut inflated = honest;
        inflated.replicas += 1;
        let mut totals = MetricsTotals::default();
        totals.add(&inflated);
        assert!(compare_totals(&tally, &totals, 10).is_err());
    }

    #[test]
    fn demand_from_requests_rejects_foreign_slots() {
        let f = fixture();
        assert!(Demand::from_requests(&f.requests, 1, 3, |p| f.geometry.nearest(p)).is_err());
    }

    #[test]
    fn nearest_check_passes_on_the_grid_and_catches_a_wrong_index() {
        let f = fixture();
        assert_eq!(check_nearest(&f.requests, &f.locations(), &f.geometry, 100, 1).unwrap(), 6);
        // The same geometry judged against swapped hotspot locations.
        let mut swapped = f.locations();
        swapped.swap(0, 2);
        assert!(check_nearest(&f.requests, &swapped, &f.geometry, 100, 1).is_err());
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let f = fixture();
        let d = f.valid();
        let base = fingerprint(&d);
        assert_eq!(base, fingerprint(&d.clone()));
        let mut e = d.clone();
        e.assignments.swap(0, 1);
        assert_ne!(base, fingerprint(&e));
        let mut e = d.clone();
        e.placements[2].push(VideoId(9));
        assert_ne!(base, fingerprint(&e));
        let mut e = d;
        e.assignments[2].target = Target::Hotspot(HotspotId(0));
        assert_ne!(base, fingerprint(&e));
    }
}
