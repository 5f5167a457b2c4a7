//! Seeded open-loop arrivals and the `serve` traffic mix.

use act_rng::Rng;

/// The request classes of the `serve` mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Route {
    /// `POST /v1/footprint` — small.
    Footprint,
    /// `POST /v1/scenario` — small.
    Scenario,
    /// `POST /v1/sweep` — batch.
    Sweep,
    /// `POST /v1/fleet` — batch.
    Fleet,
}

impl Route {
    /// Every route, in mix order.
    pub const ALL: [Route; 4] = [Route::Footprint, Route::Scenario, Route::Sweep, Route::Fleet];

    /// Share of requests, in percent: 70 / 15 / 10 / 5.
    #[must_use]
    pub fn share_percent(self) -> u64 {
        match self {
            Self::Footprint => 70,
            Self::Scenario => 15,
            Self::Sweep => 10,
            Self::Fleet => 5,
        }
    }

    /// Whether the route is one of the per-request-overhead ("small") ones.
    #[must_use]
    pub fn is_small(self) -> bool {
        matches!(self, Self::Footprint | Self::Scenario)
    }

    /// The request path.
    #[must_use]
    pub fn path(self) -> &'static str {
        match self {
            Self::Footprint => "/v1/footprint",
            Self::Scenario => "/v1/scenario",
            Self::Sweep => "/v1/sweep",
            Self::Fleet => "/v1/fleet",
        }
    }

    /// Picks a small route with the mix's footprint : scenario ratio.
    #[must_use]
    pub fn small_from(rng: &mut Rng) -> Self {
        let small = Self::Footprint.share_percent() + Self::Scenario.share_percent();
        if rng.gen_range(0..small) < Self::Footprint.share_percent() {
            Self::Footprint
        } else {
            Self::Scenario
        }
    }
}

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// When the request is due, seconds after the phase starts.
    pub due_s: f64,
    /// Its route.
    pub route: Route,
    /// A seeded draw that picks the document (and, for unique
    /// footprints, the perturbation).
    pub pick: u64,
}

/// Arrivals per block of the mix: each block holds exactly 14 footprint,
/// 3 scenario, 2 sweep and 1 fleet request, in seeded order.
pub const MIX_BLOCK: usize = 20;

/// Poisson arrivals at `rate` requests per second over `duration_s`. Routes
/// follow the mix exactly within every block of [`MIX_BLOCK`] arrivals
/// (shuffled per block), so runs with different seeds carry the same share
/// of each route. The same arguments give the same schedule.
#[must_use]
pub fn poisson(seed: u64, rate: f64, duration_s: f64) -> Vec<Arrival> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut arrivals = Vec::new();
    let mut block: Vec<Route> = Vec::new();
    let mut t = 0.0;
    loop {
        // Exponential gaps: 1 − u lies in (0, 1], so ln never sees 0.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= duration_s {
            return arrivals;
        }
        if block.is_empty() {
            block = Route::ALL
                .iter()
                .flat_map(|route| {
                    let count = route.share_percent() as usize * MIX_BLOCK / 100;
                    std::iter::repeat_n(*route, count)
                })
                .collect();
            for i in (1..block.len()).rev() {
                block.swap(i, rng.gen_range(0..i + 1));
            }
        }
        let route = block.pop().unwrap_or(Route::Footprint);
        arrivals.push(Arrival { due_s: t, route, pick: rng.next_u64() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_other_seeds_differ() {
        let a = poisson(7, 200.0, 5.0);
        assert_eq!(a, poisson(7, 200.0, 5.0));
        assert_ne!(a, poisson(8, 200.0, 5.0));
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(a.iter().all(|arrival| (0.0..5.0).contains(&arrival.due_s)));
    }

    #[test]
    fn rate_and_mix_match_their_targets() {
        let arrivals = poisson(11, 1000.0, 20.0);
        let n = arrivals.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "got {n} arrivals");
        // Every full block carries the mix exactly.
        for block in arrivals.chunks_exact(MIX_BLOCK) {
            for route in Route::ALL {
                let count = block.iter().filter(|a| a.route == route).count();
                assert_eq!(
                    count * 100,
                    route.share_percent() as usize * MIX_BLOCK,
                    "{route:?}"
                );
            }
        }
        // The order within blocks is shuffled, not fixed.
        let firsts: Vec<Route> =
            arrivals.chunks_exact(MIX_BLOCK).map(|b| b[0].route).take(50).collect();
        assert!(firsts.iter().any(|r| *r != firsts[0]));
    }

    #[test]
    fn shares_sum_to_one_block_and_small_routes_keep_their_ratio() {
        let total: u64 = Route::ALL.iter().map(|r| r.share_percent()).sum();
        assert_eq!(total, 100);
        let mut rng = Rng::seed_from_u64(3);
        let small: Vec<Route> = (0..1000).map(|_| Route::small_from(&mut rng)).collect();
        assert!(small.iter().all(|r| r.is_small()));
        let footprints = small.iter().filter(|r| **r == Route::Footprint).count();
        assert!((780..=860).contains(&footprints), "{footprints}");
    }
}
