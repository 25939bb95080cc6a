//! Property tests for the content-addressed request key: the canonical
//! FNV-1a hash must be **stable** under JSON map-key reordering (the
//! wire format does not promise field order) and **distinct** across
//! perturbations of any request input — application, architecture, or
//! scheduler.

use mcds_core::{canonical_value_hash, request_key, structure_key, SchedulerConfig, SchedulerKind};
use mcds_model::{Application, ArchParams, ClusterSchedule, Words};
use mcds_workloads::mix;
use proptest::prelude::*;
use serde::{Serialize, Value};

/// splitmix64 step, for a self-contained deterministic shuffle.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Recursively permutes the entry order of every `Map` in the value —
/// the tree a JSON parser would build from the same document with its
/// object keys written in a different order.
fn reorder_keys(value: &Value, state: &mut u64) -> Value {
    match value {
        Value::Seq(items) => Value::Seq(items.iter().map(|v| reorder_keys(v, state)).collect()),
        Value::Map(entries) => {
            let mut entries: Vec<(String, Value)> = entries
                .iter()
                .map(|(k, v)| (k.clone(), reorder_keys(v, state)))
                .collect();
            for i in (1..entries.len()).rev() {
                let j = usize::try_from(next(state) % (i as u64 + 1)).expect("index fits");
                entries.swap(i, j);
            }
            Value::Map(entries)
        }
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tree hash, which defines the keys, ignores map entry order.
    #[test]
    fn hash_ignores_map_key_order(seed in 0u64..u64::MAX, iters in 1u64..32) {
        for name in mix::CATALOG {
            let (app, sched) = mix::by_name(name, iters).expect("catalog entry");
            for value in [app.to_value(), sched.to_value()] {
                let mut state = seed;
                let reordered = reorder_keys(&value, &mut state);
                prop_assert_eq!(
                    canonical_value_hash(&value),
                    canonical_value_hash(&reordered),
                    "key order must not affect the canonical hash ({})",
                    name
                );
            }
        }
    }

    /// The same request spelled with its JSON object keys in another
    /// order decodes to the same structure key: the streamed key reads
    /// the decoded model, so the spelling never reaches it.
    #[test]
    fn structure_key_ignores_json_key_order(seed in 0u64..u64::MAX, iters in 1u64..32) {
        for name in mix::CATALOG {
            let (app, sched) = mix::by_name(name, iters).expect("catalog entry");
            let mut state = seed;
            let spellings = |value: Value, state: &mut u64| {
                let permuted = reorder_keys(&value, state);
                [value, permuted].map(|v| serde_json::to_string(&v).expect("serializes"))
            };
            let [app_json, app_permuted] = spellings(app.to_value(), &mut state);
            let [sched_json, sched_permuted] = spellings(sched.to_value(), &mut state);
            let decode = |app: &str, sched: &str| {
                let app: Application = serde_json::from_str(app).expect("app decodes");
                let sched: ClusterSchedule = serde_json::from_str(sched).expect("partition decodes");
                (structure_key(&app, Some(&sched)), structure_key(&app, None))
            };
            prop_assert_eq!(
                decode(&app_json, &sched_json),
                decode(&app_permuted, &sched_permuted),
                "JSON key order must not affect the structure key ({})",
                name
            );
        }
    }

    #[test]
    fn perturbing_any_input_changes_the_key(iters in 1u64..32, fb in 1u64..8) {
        let config = SchedulerConfig::default();
        let arch = ArchParams::m1()
            .to_builder()
            .fb_set_words(Words::kilo(fb))
            .build();
        let (app, sched) = mix::by_name("e2", iters).expect("catalog entry");
        let base = request_key(&app, Some(&sched), &arch, SchedulerKind::Cds, &config);

        // A different application (one more streaming iteration).
        let (other_app, other_sched) = mix::by_name("e2", iters + 1).expect("catalog entry");
        prop_assert!(
            base != request_key(&other_app, Some(&other_sched), &arch, SchedulerKind::Cds, &config),
            "application perturbation must change the key"
        );

        // A different architecture (one more kiloword of Frame Buffer).
        let bigger = ArchParams::m1()
            .to_builder()
            .fb_set_words(Words::kilo(fb + 1))
            .build();
        prop_assert!(
            base != request_key(&app, Some(&sched), &bigger, SchedulerKind::Cds, &config),
            "architecture perturbation must change the key"
        );

        // Every scheduler kind keys differently from every other.
        let keys: Vec<u64> = SchedulerKind::ALL
            .iter()
            .map(|&kind| request_key(&app, Some(&sched), &arch, kind, &config))
            .collect();
        for a in 0..keys.len() {
            for b in (a + 1)..keys.len() {
                prop_assert!(
                    keys[a] != keys[b],
                    "schedulers {} and {} must key differently",
                    SchedulerKind::ALL[a].name(),
                    SchedulerKind::ALL[b].name()
                );
            }
        }

        // And dropping the explicit partition changes the key too.
        prop_assert!(
            base != request_key(&app, None, &arch, SchedulerKind::Cds, &config),
            "partition presence must change the key"
        );
    }
}
