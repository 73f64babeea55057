//! Deterministic fault injection for the simulated benchmark substrate.
//!
//! Real measurement campaigns are not log-normal-clean: schedulers produce
//! heavy-tailed straggler spikes, thermal throttling opens transient
//! slowdown windows, and harness bugs record corrupted (NaN) samples.
//! [`FaultProfile`] describes such a regime declaratively and
//! [`FaultModel`] realises it with its own seeded RNG, completely separate
//! from [`crate::noise::NoiseModel`] — so enabling faults never perturbs
//! the baseline noise stream, and a disabled profile is bit-for-bit
//! identical to not having the fault layer at all.
//!
//! Every draw is deterministic per seed; sweeps derive the seed from the
//! same per-point FNV tuple as the noise seed, XORed with [`FAULT_SALT`].

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Salt XORed into a sweep's per-point seed to derive the fault seed, so
/// the fault stream is independent of the noise stream.
pub const FAULT_SALT: u64 = 0x5EED_FA17;

/// A declarative fault regime. All probabilities are per-sample; a profile
/// with every probability at zero injects nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Profile name, recorded in manifests (`none`, `light`, `heavy`,
    /// `ci-smoke`, or a custom label).
    pub name: String,
    /// Probability that a sample is hit by a heavy-tailed straggler spike.
    pub straggler_prob: f64,
    /// Pareto tail shape of straggler spikes (smaller = heavier tail).
    pub straggler_shape: f64,
    /// Upper bound on the straggler multiplier (keeps samples finite).
    pub straggler_cap: f64,
    /// Probability that a sample falls in a transient slowdown window
    /// (thermal throttling, co-located load).
    pub slowdown_prob: f64,
    /// Compute-rate multiplier inside a slowdown window (> 1 slows down).
    pub slowdown_factor: f64,
    /// Probability that a sample is recorded corrupted (NaN).
    pub corrupt_prob: f64,
    /// Probability that a node drops out of a distributed step, forcing a
    /// re-ring and a restarted collective.
    pub node_drop_prob: f64,
    /// Fixed cost of re-forming the ring after a dropout, seconds.
    pub reringing_cost: f64,
    /// Log-std-dev of per-node straggler multipliers in distributed steps
    /// (on top of the cluster's analytic expectation).
    pub node_straggler_sigma: f64,
}

impl FaultProfile {
    /// The no-fault profile: every probability zero.
    pub fn disabled() -> Self {
        FaultProfile {
            name: "none".into(),
            straggler_prob: 0.0,
            straggler_shape: 2.0,
            straggler_cap: 1.0,
            slowdown_prob: 0.0,
            slowdown_factor: 1.0,
            corrupt_prob: 0.0,
            node_drop_prob: 0.0,
            reringing_cost: 0.0,
            node_straggler_sigma: 0.0,
        }
    }

    /// Mild contamination: occasional spikes, rare corruption.
    pub fn light() -> Self {
        FaultProfile {
            name: "light".into(),
            straggler_prob: 0.03,
            straggler_shape: 2.5,
            straggler_cap: 20.0,
            slowdown_prob: 0.05,
            slowdown_factor: 1.3,
            corrupt_prob: 0.005,
            node_drop_prob: 0.01,
            reringing_cost: 0.05,
            node_straggler_sigma: 0.02,
        }
    }

    /// Aggressive contamination: heavy tails, frequent slowdowns, visible
    /// corruption — the stress regime for the robustness ablation.
    pub fn heavy() -> Self {
        FaultProfile {
            name: "heavy".into(),
            straggler_prob: 0.10,
            straggler_shape: 1.5,
            straggler_cap: 50.0,
            slowdown_prob: 0.15,
            slowdown_factor: 2.0,
            corrupt_prob: 0.03,
            node_drop_prob: 0.05,
            reringing_cost: 0.10,
            node_straggler_sigma: 0.05,
        }
    }

    /// Small but non-trivial profile for CI smoke runs: enough injection to
    /// exercise every code path without distorting quick sweeps badly.
    pub fn ci_smoke() -> Self {
        FaultProfile {
            name: "ci-smoke".into(),
            straggler_prob: 0.05,
            straggler_shape: 2.0,
            straggler_cap: 10.0,
            slowdown_prob: 0.05,
            slowdown_factor: 1.5,
            corrupt_prob: 0.02,
            node_drop_prob: 0.02,
            reringing_cost: 0.05,
            node_straggler_sigma: 0.03,
        }
    }

    /// Look up a built-in profile by CLI name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "none" | "off" | "disabled" => Some(Self::disabled()),
            "light" => Some(Self::light()),
            "heavy" => Some(Self::heavy()),
            "ci-smoke" => Some(Self::ci_smoke()),
            _ => None,
        }
    }

    /// Names accepted by [`FaultProfile::by_name`].
    pub fn builtin_names() -> &'static [&'static str] {
        &["none", "light", "heavy", "ci-smoke"]
    }

    /// True when this profile injects nothing: the faulted code paths then
    /// delegate to the unfaulted ones, keeping outputs byte-identical.
    pub fn is_off(&self) -> bool {
        self.straggler_prob == 0.0
            && self.slowdown_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.node_drop_prob == 0.0
            && self.node_straggler_sigma == 0.0
    }

    /// Stable content fingerprint (canonical-JSON digest), used to salt
    /// dataset cache keys so faulted datasets never alias clean ones.
    pub fn fingerprint(&self) -> String {
        // Exhaustiveness witness: every field reaches the digest through the
        // canonical serialisation below. Adding a field without deciding its
        // hashing story fails to compile here (and trips analyzer CA0006).
        let Self {
            name: _,
            straggler_prob: _,
            straggler_shape: _,
            straggler_cap: _,
            slowdown_prob: _,
            slowdown_factor: _,
            corrupt_prob: _,
            node_drop_prob: _,
            reringing_cost: _,
            node_straggler_sigma: _,
        } = self;
        // analyzer:allow(CA0004, reason = "plain data struct; canonical JSON serialisation cannot fail")
        let json = serde_json::to_string(self).expect("fault profiles serialise");
        convmeter_graph::stable_digest(&json)
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::disabled()
    }
}

/// A seeded realisation of a [`FaultProfile`]: the stateful draw sequence
/// for one data point. Every accessor returns its neutral value *without
/// consuming randomness* when the corresponding probability is zero, so a
/// disabled feature leaves the draw sequence of the others untouched.
///
/// The model borrows its profile, so building one per sweep point
/// allocates nothing. A [`FaultProfile::disabled`] model is the identity
/// of every measurement that takes one.
#[derive(Debug)]
pub struct FaultModel<'p> {
    rng: StdRng,
    profile: &'p FaultProfile,
}

impl<'p> FaultModel<'p> {
    /// Seeded fault model for one data point.
    pub fn new(profile: &'p FaultProfile, seed: u64) -> Self {
        FaultModel {
            rng: StdRng::seed_from_u64(seed),
            profile,
        }
    }

    /// The profile this model realises.
    pub fn profile(&self) -> &'p FaultProfile {
        self.profile
    }

    fn standard_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = self.rng.random();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Compute-rate multiplier of the transient slowdown window this sample
    /// falls in (`slowdown_factor`), or `None` outside one.
    pub fn slowdown_window(&mut self) -> Option<f64> {
        if self.profile.slowdown_prob == 0.0 {
            return None;
        }
        (self.rng.random::<f64>() < self.profile.slowdown_prob)
            .then_some(self.profile.slowdown_factor)
    }

    /// Heavy-tailed straggler multiplier: a capped Pareto draw with
    /// probability `straggler_prob`, 1 otherwise.
    pub fn spike_factor(&mut self) -> f64 {
        if self.profile.straggler_prob == 0.0 {
            return 1.0;
        }
        if self.rng.random::<f64>() < self.profile.straggler_prob {
            let u: f64 = self.rng.random::<f64>().min(1.0 - f64::EPSILON);
            let pareto = (1.0 - u).powf(-1.0 / self.profile.straggler_shape);
            pareto.min(self.profile.straggler_cap)
        } else {
            1.0
        }
    }

    /// Whether this sample is recorded corrupted.
    pub fn is_corrupt(&mut self) -> bool {
        if self.profile.corrupt_prob == 0.0 {
            return false;
        }
        self.rng.random::<f64>() < self.profile.corrupt_prob
    }

    /// Apply the sample-level faults to a measured time: straggler spike,
    /// then corruption (NaN). The slowdown window is applied earlier, at
    /// the kernel level, via [`FaultModel::slowdown_window`].
    pub fn corrupt(&mut self, t: f64) -> f64 {
        let spiked = t * self.spike_factor();
        if self.is_corrupt() {
            f64::NAN
        } else {
            spiked
        }
    }

    /// Worst per-node straggler multiplier across `n` synchronising nodes:
    /// the max of `n` independent `exp(sigma * N(0,1))` draws.
    pub fn node_straggler_max(&mut self, n: usize) -> f64 {
        if self.profile.node_straggler_sigma == 0.0 || n <= 1 {
            return 1.0;
        }
        (0..n)
            .map(|_| (self.profile.node_straggler_sigma * self.standard_normal()).exp())
            .fold(1.0f64, f64::max)
    }

    /// How many nodes drop out of this step (0 or 1; rings re-form after a
    /// single loss before the next failure can land).
    pub fn node_dropout(&mut self, nodes: usize) -> usize {
        if self.profile.node_drop_prob == 0.0 || nodes <= 1 {
            return 0;
        }
        usize::from(self.rng.random::<f64>() < self.profile.node_drop_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_is_off_and_neutral() {
        let p = FaultProfile::disabled();
        assert!(p.is_off());
        let mut m = FaultModel::new(&p, 42);
        for _ in 0..20 {
            assert_eq!(m.slowdown_window(), None);
            assert_eq!(m.spike_factor(), 1.0);
            assert!(!m.is_corrupt());
            assert_eq!(m.corrupt(1.25), 1.25);
            assert_eq!(m.node_straggler_max(8), 1.0);
            assert_eq!(m.node_dropout(8), 0);
        }
    }

    #[test]
    fn builtin_profiles_resolve_by_name() {
        for name in FaultProfile::builtin_names() {
            let p = FaultProfile::by_name(name).unwrap();
            if *name == "none" {
                assert!(p.is_off());
            } else {
                assert!(!p.is_off(), "{name} should inject faults");
            }
        }
        assert!(FaultProfile::by_name("bogus").is_none());
        assert!(FaultProfile::by_name("off").unwrap().is_off());
    }

    #[test]
    fn deterministic_per_seed() {
        let p = FaultProfile::heavy();
        let mut a = FaultModel::new(&p, 7);
        let mut b = FaultModel::new(&p, 7);
        for _ in 0..200 {
            assert_eq!(a.slowdown_window(), b.slowdown_window());
            let (fa, fb) = (a.corrupt(1.0), b.corrupt(1.0));
            assert!(fa == fb || (fa.is_nan() && fb.is_nan()));
            assert_eq!(a.node_dropout(4), b.node_dropout(4));
            assert_eq!(a.node_straggler_max(4), b.node_straggler_max(4));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = FaultProfile::heavy();
        let mut a = FaultModel::new(&p, 1);
        let mut b = FaultModel::new(&p, 2);
        let same = (0..100)
            .filter(|_| {
                let (x, y) = (a.corrupt(1.0), b.corrupt(1.0));
                x == y || (x.is_nan() && y.is_nan())
            })
            .count();
        assert!(same < 90, "streams should decorrelate, {same} matches");
    }

    #[test]
    fn spikes_are_heavy_tailed_but_capped() {
        let p = FaultProfile::heavy();
        let mut m = FaultModel::new(&p, 11);
        let spikes: Vec<f64> = (0..5000).map(|_| m.spike_factor()).collect();
        let hit = spikes.iter().filter(|&&f| f > 1.0).count();
        let frac = hit as f64 / spikes.len() as f64;
        assert!((frac - p.straggler_prob).abs() < 0.02, "hit rate {frac}");
        assert!(spikes.iter().all(|&f| f <= p.straggler_cap));
        assert!(spikes.iter().any(|&f| f > 3.0), "tail should reach deep");
    }

    #[test]
    fn corruption_rate_matches_profile() {
        let p = FaultProfile::heavy();
        let mut m = FaultModel::new(&p, 13);
        let nan = (0..5000).filter(|_| m.corrupt(1.0).is_nan()).count();
        let frac = nan as f64 / 5000.0;
        assert!((frac - p.corrupt_prob).abs() < 0.01, "nan rate {frac}");
    }

    #[test]
    fn fingerprint_distinguishes_profiles() {
        assert_ne!(
            FaultProfile::light().fingerprint(),
            FaultProfile::heavy().fingerprint()
        );
        assert_eq!(
            FaultProfile::light().fingerprint(),
            FaultProfile::light().fingerprint()
        );
    }

    #[test]
    fn single_node_never_drops() {
        let heavy = FaultProfile::heavy();
        let mut m = FaultModel::new(&heavy, 5);
        for _ in 0..100 {
            assert_eq!(m.node_dropout(1), 0);
        }
    }
}
