//! The seeded serve-mix generator.
//!
//! The daemon sees only the request lines generated here. A *cycle* is a
//! fixed multiset — each of the eighteen properties proved once, the
//! odd-numbered ones (in campaign order) on the variant model and the
//! rest on the standard one, `check` at bounds 2 and 3, `lint` on both
//! models — and the seed chooses, per cycle, the order the requests are
//! sent in. Fixing the multiset keeps the work per cycle the same for
//! every seed, so seeds vary the traffic, not the amount of it.

use crate::oracle::{MAX_STATES, PROPERTIES};

/// Seed reserved for checking a claimed gain on traffic the change was
/// not tuned on. Never use it while developing a change.
pub const HELD_OUT_SEED: u64 = 20_050_606;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One generated job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Request {
    /// Prove one property on the standard or the variant model.
    Prove {
        /// Property name.
        property: &'static str,
        /// The §5.3 variant model.
        variant: bool,
    },
    /// Bounded check of the counterexample scope.
    Check {
        /// Network-size bound.
        bound: usize,
    },
    /// Whole-spec lint.
    Lint {
        /// The §5.3 variant model.
        variant: bool,
    },
}

impl Request {
    /// The job kind on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Prove { .. } => "prove",
            Request::Check { .. } => "check",
            Request::Lint { .. } => "lint",
        }
    }

    /// The request line. `trace` asks the daemon to return the job's
    /// events with the reply.
    pub fn to_line(self, id: &str, trace: bool) -> String {
        let body = match self {
            Request::Prove { property, variant } => format!(
                "\"kind\":\"prove\",\"property\":\"{property}\"{}",
                if variant { ",\"variant\":true" } else { "" }
            ),
            Request::Check { bound } => format!(
                "\"kind\":\"check\",\"max_messages\":{bound},\"max_depth\":{},\"max_states\":{MAX_STATES}",
                bound + 1
            ),
            Request::Lint { variant } => format!(
                "\"kind\":\"lint\",\"target\":\"{}\"",
                if variant { "variant" } else { "standard" }
            ),
        };
        let trace = if trace { ",\"trace\":true" } else { "" };
        format!("{{\"id\":\"{id}\",{body}{trace}}}")
    }
}

/// Requests in one cycle: every property once, two checks, two lints.
pub const CYCLE_LEN: usize = PROPERTIES.len() + 4;

/// One cycle of the mix, drawn from `rng`.
pub fn cycle(rng: &mut SplitMix64) -> Vec<Request> {
    let mut requests: Vec<Request> = PROPERTIES
        .iter()
        .enumerate()
        .map(|(i, &property)| Request::Prove {
            property,
            variant: i % 2 == 1,
        })
        .collect();
    requests.push(Request::Check { bound: 2 });
    requests.push(Request::Check { bound: 3 });
    requests.push(Request::Lint { variant: false });
    requests.push(Request::Lint { variant: true });
    // Fisher–Yates.
    for i in (1..requests.len()).rev() {
        let j = rng.below(i + 1);
        requests.swap(i, j);
    }
    requests
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_traffic_other_seed_other_order() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..3).flat_map(|_| cycle(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn every_cycle_holds_the_same_multiset_of_work() {
        let mut rng = SplitMix64::new(HELD_OUT_SEED);
        for _ in 0..5 {
            let c = cycle(&mut rng);
            assert_eq!(c.len(), CYCLE_LEN);
            let mut proved: Vec<(&str, bool)> = c
                .iter()
                .filter_map(|r| match r {
                    Request::Prove { property, variant } => Some((*property, *variant)),
                    _ => None,
                })
                .collect();
            proved.sort_unstable();
            let mut all: Vec<(&str, bool)> = PROPERTIES
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, i % 2 == 1))
                .collect();
            all.sort_unstable();
            assert_eq!(proved, all);
            assert!(c.contains(&Request::Check { bound: 2 }));
            assert!(c.contains(&Request::Check { bound: 3 }));
            assert!(c.contains(&Request::Lint { variant: false }));
            assert!(c.contains(&Request::Lint { variant: true }));
        }
    }

    #[test]
    fn request_lines_are_well_formed_json() {
        let reqs = [
            Request::Prove {
                property: "inv1",
                variant: true,
            },
            Request::Check { bound: 3 },
            Request::Lint { variant: false },
        ];
        for r in reqs {
            let line = r.to_line("c0-1", true);
            let v = equitls_obs::json::parse(&line).expect("parses");
            assert_eq!(
                v.get("kind").and_then(|k| k.as_str()),
                Some(r.kind()),
                "{line}"
            );
        }
        assert_eq!(
            Request::Check { bound: 2 }.to_line("x", false),
            "{\"id\":\"x\",\"kind\":\"check\",\"max_messages\":2,\"max_depth\":3,\"max_states\":150000}"
        );
    }
}
