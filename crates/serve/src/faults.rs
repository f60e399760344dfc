//! Deterministic fault injection for the serve path.
//!
//! Robustness claims that are only ever tested by accident are not
//! claims.  A [`FaultPlan`] makes the server's failure handling a
//! first-class, *replayable* test surface: a seeded plan decides — as a
//! pure function of `(seed, site, occurrence)` — whether the *n*-th
//! visit to a named [`FaultSite`] fires, so two runs of the same plan
//! against the same request sequence inject byte-for-byte the same
//! faults.  The mixing uses the same MMIX LCG constants as the spec
//! round-trip fuzzer (`crates/spec/tests/roundtrip.rs`).
//!
//! Sites cover every layer of the serve path:
//!
//! | site           | where it fires                  | effect                    |
//! |----------------|---------------------------------|---------------------------|
//! | `read-stall`   | before reading a request        | sleep [`FaultPlan::stall`]|
//! | `read-reset`   | before reading a request        | drop the connection       |
//! | `write-stall`  | before writing a response frame | sleep [`FaultPlan::stall`]|
//! | `write-reset`  | before writing a response frame | shut the socket down      |
//! | `worker-panic` | inside a search's event stream  | panic mid-search          |
//! | `conn-panic`   | inside connection dispatch      | panic the worker thread   |
//! | `evict-race`   | before a session-cache lookup   | force-evict the LRU entry |
//! | `clock-skew`   | computing a request deadline    | skew it by ± the skew ms  |
//!
//! A plan is enabled two ways, both off by default: the test-only
//! [`crate::gateway::Gateway::with_faults`] /
//! [`crate::http::Server::start_with_faults`] constructors, and the
//! hidden `verifas serve --fault-plan <plan>` flag CI uses to replay a
//! failure against a real socket.  Production paths pay one `Option`
//! check per site when no plan is installed.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The named injection points of the serve path (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Stall before reading an accepted connection's request.
    ReadStall,
    /// Drop an accepted connection before reading its request.
    ReadReset,
    /// Stall before writing a response frame.
    WriteStall,
    /// Shut the socket down before writing a response frame.
    WriteReset,
    /// Panic inside a search worker (through the progress-event stream).
    WorkerPanic,
    /// Panic inside a connection worker's dispatch.
    ConnPanic,
    /// Force-evict the least-recently-used session before a lookup.
    EvictRace,
    /// Skew a request's computed deadline.
    ClockSkew,
}

impl FaultSite {
    /// Every site, in plan-string order.
    pub const ALL: [FaultSite; 8] = [
        FaultSite::ReadStall,
        FaultSite::ReadReset,
        FaultSite::WriteStall,
        FaultSite::WriteReset,
        FaultSite::WorkerPanic,
        FaultSite::ConnPanic,
        FaultSite::EvictRace,
        FaultSite::ClockSkew,
    ];

    /// The plan-string (and metrics label) name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::ReadStall => "read-stall",
            FaultSite::ReadReset => "read-reset",
            FaultSite::WriteStall => "write-stall",
            FaultSite::WriteReset => "write-reset",
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::ConnPanic => "conn-panic",
            FaultSite::EvictRace => "evict-race",
            FaultSite::ClockSkew => "clock-skew",
        }
    }

    fn index(self) -> usize {
        FaultSite::ALL
            .iter()
            .position(|&site| site == self)
            .expect("every site is in ALL")
    }

    fn from_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|s| s.name() == name)
    }
}

/// A seeded, replayable fault-injection plan (see the module docs).
///
/// Each site has a *rate* `r`: occurrence `n` of the site fires iff
/// `mix(seed, site, n) % r == 0` — so roughly one in `r` visits, at
/// deterministic positions.  Rate 0 (the default for every site)
/// disables the site entirely.
pub struct FaultPlan {
    seed: u64,
    rates: [u64; FaultSite::ALL.len()],
    visits: [AtomicU64; FaultSite::ALL.len()],
    fired: [AtomicU64; FaultSite::ALL.len()],
    stall: Duration,
    skew_ms: u64,
}

impl FaultPlan {
    /// A plan with every site disabled (rates all 0) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: [0; FaultSite::ALL.len()],
            visits: Default::default(),
            fired: Default::default(),
            stall: Duration::from_millis(50),
            skew_ms: 250,
        }
    }

    /// Enable `site` at one firing per `rate` visits (0 disables).
    pub fn with_rate(mut self, site: FaultSite, rate: u64) -> Self {
        self.rates[site.index()] = rate;
        self
    }

    /// Parse a plan string: comma-separated `key=value` pairs where the
    /// keys are `seed`, `stall-ms`, `skew-ms` and any [`FaultSite`]
    /// name (value = firing rate).  Example:
    /// `seed=7,read-reset=5,worker-panic=11,stall-ms=20`.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut stall_ms = 50u64;
        let mut skew_ms = 250u64;
        let mut rates = [0u64; FaultSite::ALL.len()];
        for pair in text.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault plan entry {pair:?} is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let number: u64 = value
                .parse()
                .map_err(|_| format!("fault plan value {value:?} for {key:?} is not a number"))?;
            match key {
                "seed" => seed = number,
                "stall-ms" => stall_ms = number,
                "skew-ms" => skew_ms = number,
                site => {
                    let site = FaultSite::from_name(site).ok_or_else(|| {
                        let names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
                        format!("unknown fault site {site:?}; known sites: {names:?}")
                    })?;
                    rates[site.index()] = number;
                }
            }
        }
        Ok(FaultPlan {
            seed,
            rates,
            visits: Default::default(),
            fired: Default::default(),
            stall: Duration::from_millis(stall_ms),
            skew_ms,
        })
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// How long stall sites sleep.
    pub fn stall(&self) -> Duration {
        self.stall
    }

    /// Visit `site`: bump its occurrence counter and decide — purely
    /// from `(seed, site, occurrence)` — whether this visit fires.
    pub fn fires(&self, site: FaultSite) -> bool {
        let index = site.index();
        let rate = self.rates[index];
        let occurrence = self.visits[index].fetch_add(1, Ordering::Relaxed);
        if rate == 0 {
            return false;
        }
        let fires = mix(self.seed, index as u64, occurrence).is_multiple_of(rate);
        if fires {
            self.fired[index].fetch_add(1, Ordering::Relaxed);
        }
        fires
    }

    /// The signed deadline skew (milliseconds) of clock-skew firing
    /// number `occurrence` — deterministic per plan, alternating sign.
    pub fn skew_ms(&self) -> i64 {
        let fired = self.fired[FaultSite::ClockSkew.index()].load(Ordering::Relaxed);
        let sign = if mix(self.seed, 0xC10C, fired).is_multiple_of(2) {
            1
        } else {
            -1
        };
        sign * self.skew_ms as i64
    }

    /// How many times `site` has fired so far.
    pub fn fired_count(&self, site: FaultSite) -> u64 {
        self.fired[site.index()].load(Ordering::Relaxed)
    }

    /// How many times `site` has been visited so far.
    pub fn visit_count(&self, site: FaultSite) -> u64 {
        self.visits[site.index()].load(Ordering::Relaxed)
    }
}

impl fmt::Display for FaultPlan {
    /// Renders back to a parseable plan string.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for site in FaultSite::ALL {
            let rate = self.rates[site.index()];
            if rate != 0 {
                write!(f, ",{}={rate}", site.name())?;
            }
        }
        write!(f, ",stall-ms={}", self.stall.as_millis())?;
        write!(f, ",skew-ms={}", self.skew_ms)
    }
}

/// Stateless mixer behind every fault decision: a few LCG steps (the
/// MMIX constants of `crates/spec/tests/roundtrip.rs`) over the XOR of
/// its inputs.  Pure, so a decision depends only on `(seed, site, n)`.
fn mix(seed: u64, site: u64, occurrence: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ site.wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ occurrence.wrapping_add(0x2545_F491_4F6C_DD1D);
    for _ in 0..3 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x >> 33
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_replay_exactly_for_the_same_plan() {
        let first = FaultPlan::parse("seed=7,read-reset=3,worker-panic=5").unwrap();
        let second = FaultPlan::parse("seed=7,read-reset=3,worker-panic=5").unwrap();
        let a: Vec<bool> = (0..200)
            .map(|_| first.fires(FaultSite::ReadReset))
            .collect();
        let b: Vec<bool> = (0..200)
            .map(|_| second.fires(FaultSite::ReadReset))
            .collect();
        assert_eq!(a, b, "same plan, same site: byte-for-byte replay");
        assert!(a.iter().any(|&fired| fired), "rate 3 must fire within 200");
        assert!(!a.iter().all(|&fired| fired), "rate 3 must also not-fire");
    }

    #[test]
    fn different_seeds_fire_at_different_positions() {
        let a = FaultPlan::parse("seed=1,read-reset=4").unwrap();
        let b = FaultPlan::parse("seed=2,read-reset=4").unwrap();
        let fa: Vec<bool> = (0..256).map(|_| a.fires(FaultSite::ReadReset)).collect();
        let fb: Vec<bool> = (0..256).map(|_| b.fires(FaultSite::ReadReset)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn disabled_sites_never_fire_but_count_visits() {
        let plan = FaultPlan::new(9);
        for _ in 0..50 {
            assert!(!plan.fires(FaultSite::WorkerPanic));
        }
        assert_eq!(plan.visit_count(FaultSite::WorkerPanic), 50);
        assert_eq!(plan.fired_count(FaultSite::WorkerPanic), 0);
    }

    #[test]
    fn plan_strings_round_trip() {
        let plan = FaultPlan::parse("seed=42,evict-race=2,clock-skew=3,stall-ms=20").unwrap();
        let rendered = plan.to_string();
        let reparsed = FaultPlan::parse(&rendered).unwrap();
        assert_eq!(reparsed.seed(), 42);
        assert_eq!(reparsed.to_string(), rendered);
    }

    #[test]
    fn malformed_plans_are_typed_errors() {
        assert!(FaultPlan::parse("seed").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
        assert!(FaultPlan::parse("warp-core-breach=1").is_err());
    }
}
