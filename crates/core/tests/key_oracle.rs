//! The streamed request keys against their definition.
//!
//! `structure_key` and `arch_key` write the canonical encoding straight
//! from the model. Their definition is [`canonical_value_hash`] of the
//! serialization trees built here, which is how both keys were derived
//! before they were streamed. Every case below requires the two to
//! agree: synthetic structures from random generator configs,
//! builder applications with arbitrary (empty and non-ASCII) names and
//! extreme sizes, the catalog under its own, singleton and no
//! partitions, and random architectures under every scheduler kind and
//! config.

use mcds_core::{
    arch_key, canonical_value_hash, structure_key, ContextPolicy, RetentionRanking,
    SchedulerConfig, SchedulerKind,
};
use mcds_model::{
    Application, ApplicationBuilder, ArchParams, ClusterSchedule, Cycles, DataKind, Words,
};
use mcds_workloads::mix;
use mcds_workloads::synthetic::{SyntheticConfig, SyntheticGenerator};
use proptest::prelude::*;
use serde::{Serialize, Value};

/// The tree `structure_key` hashes: `["structure", app, sched or null]`.
fn structure_tree(app: &Application, sched: Option<&ClusterSchedule>) -> Value {
    Value::Seq(vec![
        Value::Str("structure".to_owned()),
        app.to_value(),
        sched.map_or(Value::Null, Serialize::to_value),
    ])
}

/// The tree `arch_key` hashes: `[kind, arch, config]`.
fn arch_tree(arch: &ArchParams, kind: SchedulerKind, config: &SchedulerConfig) -> Value {
    Value::Seq(vec![kind_value(kind), arch.to_value(), config.to_value()])
}

/// A scheduler kind inside a key: the paper's three schedulers as their
/// plain names, `Search` as `["search", beam_width, max_expansions]`.
fn kind_value(kind: SchedulerKind) -> Value {
    match kind {
        SchedulerKind::Search {
            beam_width,
            max_expansions,
        } => Value::Seq(vec![
            Value::Str("search".to_owned()),
            Value::UInt(u64::from(beam_width)),
            Value::UInt(u64::from(max_expansions)),
        ]),
        other => Value::Str(other.name().to_owned()),
    }
}

fn assert_structure_matches(app: &Application, sched: Option<&ClusterSchedule>, case: &str) {
    assert_eq!(
        structure_key(app, sched),
        canonical_value_hash(&structure_tree(app, sched)),
        "streamed structure key differs from the tree's ({case}, partition: {})",
        sched.is_some()
    );
}

/// Characters for arbitrary names: ASCII letters and punctuation, JSON
/// escapes, NUL, and two-, three- and four-byte UTF-8.
const ALPHABET: [char; 14] = [
    'a', 'Z', '_', '-', ' ', '"', '\\', '\0', 'é', 'ß', 'Ω', '→', '変', '🦀',
];

/// Names of 0–7 characters, the empty name included.
fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..8)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Any `u64`, with the extremes and small values drawn often.
fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        0u64..4096,
        any::<u64>()
    ]
}

/// Any `u32`, with the extremes and small values drawn often.
fn edge_u32() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(1u32),
        Just(u32::MAX),
        0u32..4096,
        any::<u32>()
    ]
}

/// One kernel of a builder chain: its name, its output's name, size
/// and kind flag, contexts, cycles, and whether it also reads the
/// chain's external input.
type KernelSpec = (String, String, u64, u32, u64, bool);

/// A valid chain application: kernel `i` reads object `i` (and, when
/// flagged, the external input), and writes object `i + 1`, the last
/// one a final result.
fn chain_app(
    app_name: String,
    input: (String, u64),
    kernels: Vec<KernelSpec>,
    iterations: u64,
) -> Application {
    let mut b = ApplicationBuilder::new(app_name);
    let first = b.data(input.0, Words::new(input.1.max(1)), DataKind::ExternalInput);
    let mut prev = first;
    let last = kernels.len() - 1;
    for (i, (kname, dname, size, contexts, cycles, shares)) in kernels.into_iter().enumerate() {
        let kind = if i == last {
            DataKind::FinalResult
        } else {
            DataKind::Intermediate
        };
        let out = b.data(dname, Words::new(size.max(1)), kind);
        let inputs = if shares && prev != first {
            vec![prev, first]
        } else {
            vec![prev]
        };
        b.kernel(kname, contexts, Cycles::new(cycles), &inputs, &[out]);
        prev = out;
    }
    b.iterations(iterations.max(1))
        .build()
        .expect("a chain is valid")
}

fn kinds(beam_width: u32, max_expansions: u32) -> [SchedulerKind; 5] {
    [
        SchedulerKind::Basic,
        SchedulerKind::Ds,
        SchedulerKind::Cds,
        SchedulerKind::search_default(),
        SchedulerKind::Search {
            beam_width,
            max_expansions,
        },
    ]
}

/// Every combination of context policy, RF cap (none or `max_rf`) and
/// retention ranking.
fn configs(max_rf: u64) -> Vec<SchedulerConfig> {
    let mut out = Vec::new();
    for policy in [
        ContextPolicy::ReloadPerActivation,
        ContextPolicy::LruResidency,
    ] {
        for cap in [None, Some(max_rf)] {
            for ranking in [
                RetentionRanking::Tf,
                RetentionRanking::SizeDesc,
                RetentionRanking::Fifo,
            ] {
                out.push(
                    SchedulerConfig::default()
                        .with_context_policy(policy)
                        .with_max_rf(cap)
                        .with_retention_ranking(ranking),
                );
            }
        }
    }
    out
}

#[test]
fn catalog_structures_match_the_tree() {
    for name in mix::CATALOG {
        for iterations in 1..=64 {
            let (app, sched) = mix::by_name(name, iterations).expect("catalog entry");
            let singles = ClusterSchedule::singletons(&app).expect("valid");
            let case = format!("{name}@{iterations}");
            assert_structure_matches(&app, Some(&sched), &case);
            assert_structure_matches(&app, Some(&singles), &case);
            assert_structure_matches(&app, None, &case);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn synthetic_structures_match_the_tree(
        seed in any::<u64>(),
        clusters in 1usize..8,
        kernels in (1usize..4, 0usize..3),
        words in (1u64..512, 0u64..4096),
        share in 0u32..=100,
        cross in 0u32..=100,
        contexts in edge_u32(),
        cycles in (0u64..1000, 0u64..1000),
        iterations in 1u64..100,
    ) {
        let config = SyntheticConfig {
            clusters,
            kernels_per_cluster: (kernels.0, kernels.0 + kernels.1),
            data_words: (words.0, words.0 + words.1),
            share_probability: f64::from(share) / 100.0,
            cross_probability: f64::from(cross) / 100.0,
            contexts,
            exec_cycles: (cycles.0, cycles.0 + cycles.1),
            iterations,
        };
        let (app, sched) = SyntheticGenerator::new(seed)
            .generate(&config)
            .expect("synthetic structure");
        let case = format!("synthetic seed {seed}");
        assert_structure_matches(&app, Some(&sched), &case);
        assert_structure_matches(&app, None, &case);
    }

    #[test]
    fn builder_apps_match_the_tree(
        app_name in name(),
        input in (name(), edge_u64()),
        kernels in prop::collection::vec(
            (name(), name(), edge_u64(), edge_u32(), edge_u64(), any::<bool>()),
            1..6,
        ),
        iterations in edge_u64(),
    ) {
        let app = chain_app(app_name, input, kernels, iterations);
        let singles = ClusterSchedule::singletons(&app).expect("valid");
        assert_structure_matches(&app, Some(&singles), app.name());
        assert_structure_matches(&app, None, app.name());
    }

    #[test]
    fn arch_keys_match_the_tree(
        fb_set_words in edge_u64(),
        cm in (edge_u32(), edge_u32()),
        cycles in (edge_u64(), edge_u64(), edge_u64()),
        cross_set in any::<bool>(),
        search in (edge_u32(), edge_u32()),
        max_rf in edge_u64(),
    ) {
        let arch = ArchParams::m1()
            .to_builder()
            .fb_set_words(Words::new(fb_set_words))
            .cm_context_words(cm.0)
            .cm_blocks(cm.1)
            .data_cycles_per_word(cycles.0)
            .context_cycles_per_word(cycles.1)
            .kernel_setup_cycles(cycles.2)
            .fb_cross_set_access(cross_set)
            .build();
        for kind in kinds(search.0, search.1) {
            for config in configs(max_rf) {
                prop_assert_eq!(
                    arch_key(&arch, kind, &config),
                    canonical_value_hash(&arch_tree(&arch, kind, &config)),
                    "streamed arch key differs from the tree's ({:?}, {}, {:?})",
                    arch,
                    kind,
                    config
                );
            }
        }
    }
}
