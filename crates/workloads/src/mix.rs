//! Named workload catalog and a deterministic request-mix sampler.
//!
//! A serving benchmark needs two things from this crate: a way to
//! resolve a short workload name (the kind a client puts on the wire)
//! into a ready-to-schedule `(Application, ClusterSchedule)` pair, and
//! a seeded sampler that draws names from a weighted mix so a load
//! generator replays the *same* request sequence on every run.

use std::sync::OnceLock;

use mcds_model::{Application, ClusterSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::atr::{
    atr_fi_app, atr_fi_schedule, atr_sld_app, atr_sld_schedule, FiSchedule, SldSchedule,
};
use crate::e_series::{e1, e2, e3};
use crate::mpeg::{mpeg_app, mpeg_schedule};

/// Every name [`by_name`] understands, in catalog order.
pub const CATALOG: &[&str] = &["e1", "e2", "e3", "mpeg", "atr-sld", "atr-fi"];

/// Each catalog entry at one iteration, built and validated once per
/// process on its first request.
static TEMPLATES: [OnceLock<Option<(Application, ClusterSchedule)>>; CATALOG.len()] =
    [const { OnceLock::new() }; CATALOG.len()];

/// Resolves a workload name into its application and cluster schedule.
///
/// `iterations` scales the streaming depth (macroblocks for `mpeg`).
/// The ATR names use the paper's primary partitions
/// ([`SldSchedule::Unbalanced`], [`FiSchedule::Standard`]).
///
/// Each entry is built once per process. A call shares that one body
/// (its name, kernels, data objects and clusters) at the requested
/// iteration count, which changes nothing else, so it costs two
/// reference counts.
///
/// Returns `None` for names outside [`CATALOG`] — and for
/// `iterations == 0`, which no workload accepts.
#[must_use]
pub fn by_name(name: &str, iterations: u64) -> Option<(Application, ClusterSchedule)> {
    let index = CATALOG.iter().position(|&entry| entry == name)?;
    let (app, sched) = TEMPLATES[index].get_or_init(|| template(name)).as_ref()?;
    Some((app.with_iterations(iterations).ok()?, sched.clone()))
}

/// Builds the catalog entry `name` at one iteration.
fn template(name: &str) -> Option<(Application, ClusterSchedule)> {
    match name {
        "e1" => e1(1).ok(),
        "e2" => e2(1).ok(),
        "e3" => e3(1).ok(),
        "mpeg" => {
            let app = mpeg_app(1).ok()?;
            let sched = mpeg_schedule(&app).ok()?;
            Some((app, sched))
        }
        "atr-sld" => {
            let app = atr_sld_app(1).ok()?;
            let sched = atr_sld_schedule(&app, SldSchedule::Unbalanced).ok()?;
            Some((app, sched))
        }
        "atr-fi" => {
            let app = atr_fi_app(1).ok()?;
            let sched = atr_fi_schedule(&app, FiSchedule::Standard).ok()?;
            Some((app, sched))
        }
        _ => None,
    }
}

/// A seeded, weighted sampler over workload names.
///
/// Construction order of the weights is part of the seed contract: two
/// mixes built with the same seed and the same `weight` calls in the
/// same order emit identical name sequences.
///
/// # Example
///
/// ```
/// use mcds_workloads::mix::RequestMix;
///
/// let mut a = RequestMix::new(7).weight("e1", 3).weight("mpeg", 1);
/// let mut b = RequestMix::new(7).weight("e1", 3).weight("mpeg", 1);
/// let names: Vec<_> = (0..16).map(|_| a.next_name().expect("non-empty").to_owned()).collect();
/// assert!(names.iter().all(|n| n == "e1" || n == "mpeg"));
/// assert!((0..16).all(|i| b.next_name() == Some(names[i].as_str())));
/// ```
#[derive(Debug, Clone)]
pub struct RequestMix {
    entries: Vec<(String, u64)>,
    total: u64,
    rng: StdRng,
}

impl RequestMix {
    /// An empty mix drawing from the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RequestMix {
            entries: Vec::new(),
            total: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The default serving mix: every catalog workload, E-series and
    /// MPEG weighted heaviest.
    #[must_use]
    pub fn standard(seed: u64) -> Self {
        RequestMix::new(seed)
            .weight("e1", 3)
            .weight("e2", 2)
            .weight("e3", 2)
            .weight("mpeg", 3)
            .weight("atr-sld", 1)
            .weight("atr-fi", 1)
    }

    /// Adds a workload with the given relative weight (0 is ignored).
    #[must_use]
    pub fn weight(mut self, name: impl Into<String>, weight: u64) -> Self {
        if weight > 0 {
            self.total += weight;
            self.entries.push((name.into(), weight));
        }
        self
    }

    /// The names on this mix's axis, in insertion order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Draws the next workload name. `None` iff the mix is empty.
    pub fn next_name(&mut self) -> Option<&str> {
        if self.total == 0 {
            return None;
        }
        let mut ticket = self.rng.gen_range(0..self.total);
        for (name, weight) in &self.entries {
            if ticket < *weight {
                return Some(name);
            }
            ticket -= weight;
        }
        unreachable!("ticket < total is covered by the weights")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_all_resolve() {
        for &name in CATALOG {
            let (app, sched) = by_name(name, 8).expect("catalog name resolves");
            assert!(!app.kernels().is_empty());
            assert!(!sched.is_empty());
        }
        assert!(by_name("nope", 8).is_none());
        assert!(by_name("e1", 0).is_none(), "zero iterations rejected");
    }

    /// The oracle: each catalog entry from its own builders at the
    /// requested count.
    fn direct(name: &str, n: u64) -> (Application, ClusterSchedule) {
        match name {
            "e1" => e1(n).expect("valid"),
            "e2" => e2(n).expect("valid"),
            "e3" => e3(n).expect("valid"),
            "mpeg" => {
                let app = mpeg_app(n).expect("valid");
                let sched = mpeg_schedule(&app).expect("valid");
                (app, sched)
            }
            "atr-sld" => {
                let app = atr_sld_app(n).expect("valid");
                let sched = atr_sld_schedule(&app, SldSchedule::Unbalanced).expect("valid");
                (app, sched)
            }
            "atr-fi" => {
                let app = atr_fi_app(n).expect("valid");
                let sched = atr_fi_schedule(&app, FiSchedule::Standard).expect("valid");
                (app, sched)
            }
            other => panic!("{other} is not in the catalog"),
        }
    }

    #[test]
    fn templates_equal_the_direct_builders() {
        for &name in CATALOG {
            for n in 1..=48 {
                assert_eq!(by_name(name, n), Some(direct(name, n)), "{name} x{n}");
            }
            assert_eq!(by_name(name, 0), None, "{name} x0");
        }
        assert_eq!(by_name("E1", 8), None, "names are case-sensitive");
    }

    /// Every resolution of a catalog entry, at any count, and its
    /// clones and a pipeline run over it, share the entry's one body.
    #[test]
    fn resolutions_share_one_body_per_entry() {
        use mcds_core::{Pipeline, SchedulerKind};
        use mcds_model::{ArchParams, Words};

        for &name in CATALOG {
            let (one, one_sched) = by_name(name, 1).expect("resolves");
            let (deep, deep_sched) = by_name(name, 48).expect("resolves");
            let run = Pipeline::new(deep.clone())
                .schedule(deep_sched.clone())
                .scheduler(SchedulerKind::Ds)
                .arch(ArchParams::m1_with_fb(Words::kilo(16)))
                .run()
                .expect("fits at 16 K");
            for app in [&deep, &one.clone(), &deep.clone()] {
                assert_eq!(app.kernels().as_ptr(), one.kernels().as_ptr(), "{name}");
                assert_eq!(app.data().as_ptr(), one.data().as_ptr(), "{name}");
            }
            for sched in [&deep_sched, &one_sched.clone(), run.schedule()] {
                assert_eq!(
                    sched.clusters().as_ptr(),
                    one_sched.clusters().as_ptr(),
                    "{name}"
                );
            }
            assert_eq!(one.with_iterations(48), Ok(direct(name, 48).0), "{name}");
            assert_eq!((deep.iterations(), one.iterations()), (48, 1));
        }
    }

    #[test]
    fn resolution_is_deterministic() {
        for &name in CATALOG {
            let (a, sa) = by_name(name, 16).expect("resolves");
            let (b, sb) = by_name(name, 16).expect("resolves");
            assert_eq!(a, b);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn sampler_is_deterministic_under_a_fixed_seed() {
        let draw = |seed: u64| -> Vec<String> {
            let mut mix = RequestMix::standard(seed);
            (0..200)
                .map(|_| mix.next_name().expect("non-empty").to_owned())
                .collect()
        };
        assert_eq!(draw(42), draw(42), "same seed, same sequence");
        assert_ne!(draw(42), draw(43), "different seed, different sequence");
        let seq = draw(42);
        for &name in CATALOG {
            assert!(
                seq.iter().any(|n| n == name),
                "200 draws cover the whole standard mix ({name} missing)"
            );
        }
    }

    #[test]
    fn weights_shape_the_distribution() {
        let mut mix = RequestMix::new(1).weight("heavy", 9).weight("light", 1);
        let heavy = (0..1000)
            .filter(|_| mix.next_name() == Some("heavy"))
            .count();
        assert!(heavy > 750, "9:1 mix draws mostly heavy ({heavy}/1000)");
        assert!(heavy < 1000, "light still appears");
    }

    #[test]
    fn empty_and_zero_weight_mixes_are_empty() {
        let mut empty = RequestMix::new(0);
        assert_eq!(empty.next_name(), None);
        let mut zeroed = RequestMix::new(0).weight("e1", 0);
        assert_eq!(zeroed.next_name(), None);
        assert!(zeroed.names().is_empty());
    }
}
