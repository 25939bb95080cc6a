//! Content-addressed request keys.
//!
//! A scheduling request is fully determined by its inputs: the
//! [`Application`], the cluster partition, the [`ArchParams`] and the
//! (scheduler, config) pair. [`request_key`] condenses those into one
//! 64-bit FNV-1a hash over a *canonical* encoding of their
//! serialization trees: every node carries a type tag, strings and
//! containers their length, and map entries go in sorted key order, so
//! two requests whose JSON spells the same object with different key
//! order (or different whitespace) hash identically, while any semantic
//! perturbation changes the key.
//!
//! [`structure_key`] and [`arch_key`] never build those trees. They
//! write the bytes [`canonical_value_hash`] would hash for them straight
//! from the model's accessors, fields in sorted name order, so a key
//! costs no allocation and no sort. Over the 288 catalog structures
//! (six workloads at 1–48 iterations) on one pinned CPU of a shared
//! 2-vCPU Xeon VM, a structure key took 4.0–5.3 µs against 24–28 µs
//! through a tree, and an arch key 0.40–0.42 µs against 1.8–1.9 µs.
//!
//! The tree path stays public as their oracle:
//! `crates/core/tests/key_oracle.rs` checks the two agree on random
//! inputs, and `crates/core/tests/request_keys.tsv` pins the key values
//! themselves. A field added to a model struct reaches the tree through
//! its derive but not the writers below; the oracle fails until they
//! write it too.
//!
//! The sweep engine uses the key to collapse duplicate grid points into
//! one evaluation; `mcds-serve` uses it as the address of its outcome
//! cache and its journal records.

use serde::Value;

use mcds_model::{Application, ArchParams, ClusterSchedule, DataKind};

use crate::{ContextPolicy, RetentionRanking, SchedulerConfig, SchedulerKind};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a, with one writer per node of the
/// canonical encoding.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn null(&mut self) {
        self.write(&[0]);
    }

    fn bool(&mut self, b: bool) {
        self.write(&[1, u8::from(b)]);
    }

    fn uint(&mut self, n: u64) {
        self.write(&[2]);
        self.write_u64(n);
    }

    fn str(&mut self, s: &str) {
        self.write(&[5]);
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The header of a sequence of `len` items; the items follow.
    fn seq(&mut self, len: usize) {
        self.write(&[6]);
        self.write_u64(len as u64);
    }

    /// The header of a map of `len` entries; each entry follows as its
    /// [`key`](Self::key), then its value.
    fn map(&mut self, len: usize) {
        self.write(&[7]);
        self.write_u64(len as u64);
    }

    /// A map entry's key (untagged); the caller writes its value on the
    /// returned writer.
    fn key(&mut self, name: &str) -> &mut Self {
        self.write_u64(name.len() as u64);
        self.write(name.as_bytes());
        self
    }

    /// A typed id, as the uint it serializes to.
    fn id(&mut self, id: impl Into<usize>) {
        self.uint(id.into() as u64);
    }

    fn ids<I: Copy + Into<usize>>(&mut self, ids: &[I]) {
        self.seq(ids.len());
        for &id in ids {
            self.id(id);
        }
    }
}

/// Hashes one [`Value`] tree in canonical form: every node is prefixed
/// with a type tag, strings and sequences with their length, and map
/// entries are visited in sorted key order regardless of their order in
/// the tree.
fn hash_value(h: &mut Fnv1a, value: &Value) {
    match value {
        Value::Null => h.null(),
        Value::Bool(b) => h.bool(*b),
        Value::UInt(n) => h.uint(*n),
        Value::Int(n) => {
            h.write(&[3]);
            h.write_u64(*n as u64);
        }
        Value::Float(x) => {
            h.write(&[4]);
            // Canonicalize the two zero representations; other bit
            // patterns (including NaNs) hash as-is.
            let bits = if *x == 0.0 { 0u64 } else { x.to_bits() };
            h.write_u64(bits);
        }
        Value::Str(s) => h.str(s),
        Value::Seq(items) => {
            h.seq(items.len());
            for item in items {
                hash_value(h, item);
            }
        }
        Value::Map(entries) => {
            h.map(entries.len());
            let mut order: Vec<usize> = (0..entries.len()).collect();
            order.sort_by(|&a, &b| entries[a].0.cmp(&entries[b].0));
            for i in order {
                let (key, item) = &entries[i];
                h.key(key);
                hash_value(h, item);
            }
        }
    }
}

/// Canonical FNV-1a hash of one serialization tree. Key order inside
/// maps does not affect the result; every other difference does.
///
/// This is the definition [`structure_key`] and [`arch_key`] implement
/// without a tree: each equals this hash of the tree its inputs
/// serialize to (see their docs).
#[must_use]
pub fn canonical_value_hash(value: &Value) -> u64 {
    let mut h = Fnv1a::new();
    hash_value(&mut h, value);
    h.0
}

/// Writes `app` as [`hash_value`] writes its serialization tree: the
/// struct fields of `Application`, `DataObject` and `Kernel` in sorted
/// name order, enums as their variant names, ids and units as uints.
fn write_application(h: &mut Fnv1a, app: &Application) {
    h.map(4);
    h.key("data").seq(app.data().len());
    for d in app.data() {
        h.map(4);
        h.key("id").id(d.id());
        h.key("kind").str(match d.kind() {
            DataKind::ExternalInput => "ExternalInput",
            DataKind::Intermediate => "Intermediate",
            DataKind::FinalResult => "FinalResult",
        });
        h.key("name").str(d.name());
        h.key("size").uint(d.size().get());
    }
    h.key("iterations").uint(app.iterations());
    h.key("kernels").seq(app.kernels().len());
    for k in app.kernels() {
        h.map(6);
        h.key("contexts").uint(u64::from(k.contexts()));
        h.key("exec_cycles").uint(k.exec_cycles().get());
        h.key("id").id(k.id());
        h.key("inputs").ids(k.inputs());
        h.key("name").str(k.name());
        h.key("outputs").ids(k.outputs());
    }
    h.key("name").str(app.name());
}

/// Writes a partition as [`hash_value`] writes its serialization tree.
fn write_schedule(h: &mut Fnv1a, sched: &ClusterSchedule) {
    h.map(1);
    h.key("clusters").seq(sched.clusters().len());
    for c in sched.clusters() {
        h.map(2);
        h.key("id").id(c.id());
        h.key("kernels").ids(c.kernels());
    }
}

/// The workload-structure half of a request key: a canonical hash over
/// (application, partition) only.
///
/// Everything the structure key covers feeds the arch-independent
/// analysis phase — clustering resolution, lifetimes, sharing-candidate
/// ranking — so two requests with equal structure keys can share one
/// memoized [`ScheduleAnalysis`](crate::ScheduleAnalysis) even when
/// their architectures, schedulers, or configs differ.
///
/// Pass `None` for `sched` when the request uses the default singleton
/// partition — an explicit singleton partition hashes differently on
/// purpose (it pins cluster ids).
///
/// The key is [`canonical_value_hash`] of the tree
/// `["structure", app, sched or null]`, written from the model without
/// building the tree.
#[must_use]
pub fn structure_key(app: &Application, sched: Option<&ClusterSchedule>) -> u64 {
    let mut h = Fnv1a::new();
    h.seq(3);
    h.str("structure");
    write_application(&mut h, app);
    match sched {
        Some(sched) => write_schedule(&mut h, sched),
        None => h.null(),
    }
    h.0
}

/// The architecture half of a request key: a canonical hash over
/// (scheduler, architecture, config) — every input the data-scheduling
/// and allocation phases consume beyond the workload structure.
///
/// The key is [`canonical_value_hash`] of the tree `[kind, arch,
/// config]`, written without building it. The paper's three
/// schedulers are written as their plain names (the historical
/// encoding, so keys and every cache built on them are unchanged);
/// `Search` is written as `["search", beam_width, max_expansions]`, so
/// two search requests differing only in a parameter get distinct keys.
#[must_use]
pub fn arch_key(arch: &ArchParams, kind: SchedulerKind, config: &SchedulerConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.seq(3);
    match kind {
        SchedulerKind::Search {
            beam_width,
            max_expansions,
        } => {
            h.seq(3);
            h.str("search");
            h.uint(u64::from(beam_width));
            h.uint(u64::from(max_expansions));
        }
        other => h.str(other.name()),
    }
    h.map(7);
    h.key("cm_blocks").uint(u64::from(arch.cm_blocks()));
    h.key("cm_context_words")
        .uint(u64::from(arch.cm_context_words()));
    h.key("context_cycles_per_word")
        .uint(arch.context_cycles_per_word());
    h.key("data_cycles_per_word")
        .uint(arch.data_cycles_per_word());
    h.key("fb_cross_set_access")
        .bool(arch.fb_cross_set_access());
    h.key("fb_set_words").uint(arch.fb_set_words().get());
    h.key("kernel_setup_cycles")
        .uint(arch.kernel_setup_cycles());
    h.map(3);
    h.key("context_policy").str(match config.context_policy {
        ContextPolicy::ReloadPerActivation => "ReloadPerActivation",
        ContextPolicy::LruResidency => "LruResidency",
    });
    h.key("max_rf");
    match config.max_rf {
        Some(rf) => h.uint(rf),
        None => h.null(),
    }
    h.key("retention_ranking")
        .str(match config.retention_ranking {
            RetentionRanking::Tf => "Tf",
            RetentionRanking::SizeDesc => "SizeDesc",
            RetentionRanking::Fifo => "Fifo",
        });
    h.0
}

/// Combines a [`structure_key`] and an [`arch_key`] into the full
/// request key. The asymmetric mix (the arch half passes through
/// `splitmix64` before the XOR, and the combination is finalized once
/// more) keeps the two halves from cancelling and breaks the
/// swap-symmetry a plain XOR would have.
#[must_use]
pub fn compose_key(structure: u64, arch: u64) -> u64 {
    crate::fault::splitmix64(structure ^ crate::fault::splitmix64(arch))
}

/// The content-addressed key of one scheduling request: the
/// [`compose_key`] combination of its [`structure_key`] and
/// [`arch_key`] halves, so callers that already hold the halves (the
/// serve analysis cache, the sweep deduplicator) compose the same key
/// without re-hashing the full request.
///
/// Pass `None` for `sched` when the request uses the default singleton
/// partition — an explicit singleton partition hashes differently on
/// purpose (it pins cluster ids).
#[must_use]
pub fn request_key(
    app: &Application,
    sched: Option<&ClusterSchedule>,
    arch: &ArchParams,
    kind: SchedulerKind,
    config: &SchedulerConfig,
) -> u64 {
    compose_key(structure_key(app, sched), arch_key(arch, kind, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_model::{ApplicationBuilder, Cycles, DataKind, Words};

    fn app(iterations: u64) -> Application {
        let mut b = ApplicationBuilder::new("key");
        let a = b.data("a", Words::new(64), DataKind::ExternalInput);
        let f = b.data("f", Words::new(32), DataKind::FinalResult);
        b.kernel("k", 16, Cycles::new(200), &[a], &[f]);
        b.iterations(iterations).build().expect("valid")
    }

    #[test]
    fn map_key_order_is_irrelevant() {
        let v1 = Value::Map(vec![
            ("a".to_owned(), Value::UInt(1)),
            ("b".to_owned(), Value::Seq(vec![Value::Bool(true)])),
        ]);
        let v2 = Value::Map(vec![
            ("b".to_owned(), Value::Seq(vec![Value::Bool(true)])),
            ("a".to_owned(), Value::UInt(1)),
        ]);
        assert_eq!(canonical_value_hash(&v1), canonical_value_hash(&v2));
    }

    #[test]
    fn value_differences_change_the_hash() {
        let base = Value::Map(vec![("a".to_owned(), Value::UInt(1))]);
        let renamed = Value::Map(vec![("b".to_owned(), Value::UInt(1))]);
        let changed = Value::Map(vec![("a".to_owned(), Value::UInt(2))]);
        assert_ne!(canonical_value_hash(&base), canonical_value_hash(&renamed));
        assert_ne!(canonical_value_hash(&base), canonical_value_hash(&changed));
    }

    #[test]
    fn request_key_separates_every_axis() {
        let config = SchedulerConfig::default();
        let arch = ArchParams::m1();
        let k = request_key(&app(8), None, &arch, SchedulerKind::Cds, &config);
        assert_eq!(
            k,
            request_key(&app(8), None, &arch, SchedulerKind::Cds, &config),
            "pure function of the inputs"
        );
        assert_ne!(
            k,
            request_key(&app(9), None, &arch, SchedulerKind::Cds, &config),
            "application perturbation"
        );
        assert_ne!(
            k,
            request_key(&app(8), None, &arch, SchedulerKind::Ds, &config),
            "scheduler perturbation"
        );
        let big = ArchParams::m1_with_fb(Words::kilo(2));
        assert_ne!(
            k,
            request_key(&app(8), None, &big, SchedulerKind::Cds, &config),
            "architecture perturbation"
        );
        let a = app(8);
        let singles = ClusterSchedule::singletons(&a).expect("valid");
        assert_ne!(
            k,
            request_key(&a, Some(&singles), &arch, SchedulerKind::Cds, &config),
            "explicit partition differs from implicit default"
        );
    }

    #[test]
    fn split_halves_compose_to_the_request_key() {
        let config = SchedulerConfig::default();
        let arch = ArchParams::m1();
        let a = app(8);
        let s = structure_key(&a, None);
        let ak = arch_key(&arch, SchedulerKind::Cds, &config);
        assert_eq!(
            compose_key(s, ak),
            request_key(&a, None, &arch, SchedulerKind::Cds, &config)
        );
        // Arch-only variants share the structure half…
        let big = ArchParams::m1_with_fb(Words::kilo(2));
        assert_eq!(s, structure_key(&a, None));
        assert_ne!(ak, arch_key(&big, SchedulerKind::Cds, &config));
        // …and structure variants share the arch half.
        assert_ne!(s, structure_key(&app(9), None));
        assert_eq!(ak, arch_key(&arch, SchedulerKind::Cds, &config));
        // The scheduler axis lives on the arch half: analysis is
        // scheduler-independent.
        assert_ne!(ak, arch_key(&arch, SchedulerKind::Ds, &config));
        // Composition is order-sensitive: swapped halves change the key.
        assert_ne!(compose_key(s, ak), compose_key(ak, s));
    }

    #[test]
    fn search_parameters_live_on_the_arch_half() {
        let config = SchedulerConfig::default();
        let arch = ArchParams::m1();
        let search = |beam_width, max_expansions| {
            arch_key(
                &arch,
                SchedulerKind::Search {
                    beam_width,
                    max_expansions,
                },
                &config,
            )
        };
        let base = search(8, 10_000);
        assert_eq!(base, search(8, 10_000), "pure function of the params");
        assert_ne!(base, search(1, 10_000), "beam width perturbation");
        assert_ne!(base, search(8, 5_000), "expansion cap perturbation");
        assert_ne!(
            base,
            arch_key(&arch, SchedulerKind::Cds, &config),
            "search is not cds"
        );
    }
}
