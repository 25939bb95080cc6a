//! The model's JSON is pinned: `serde_json::to_string` of every catalog
//! application and cluster schedule at 1 and 48 iterations, and of the
//! application `mcds sample-app` prints, equals `tests/model_json.tsv`
//! line for line, and every line of it decodes back to an equal value.
//!
//! The fixture is the wire and file format of applications and
//! schedules (inline `app`s, `mcds run` inputs), so a change to it is
//! never routine. Re-bless a deliberate one with
//! `BLESS=1 cargo test -p mcds-bench --test model_json`.

use std::process::Command;

use mcds_model::Application;
use mcds_workloads::mix;
use serde::{Deserialize, Serialize};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/model_json.tsv");

/// One value's fixture line, and a check that a JSON text decodes to
/// that value.
struct Pinned {
    line: String,
    decodes: Box<dyn Fn(&str) -> bool>,
}

fn pin<T: Serialize + Deserialize + PartialEq + 'static>(
    case: &str,
    kind: &str,
    value: T,
) -> Pinned {
    let json = serde_json::to_string(&value).expect("serializes");
    Pinned {
        line: format!("{case}\t{kind}\t{json}"),
        decodes: Box::new(move |json| serde_json::from_str::<T>(json).as_ref() == Ok(&value)),
    }
}

/// Every pinned value, in fixture order.
fn pinned() -> Vec<Pinned> {
    let mut values = Vec::new();
    for &name in mix::CATALOG {
        for iterations in [1, 48] {
            let (app, sched) = mix::by_name(name, iterations).expect("catalog");
            let case = format!("{name} x{iterations}");
            values.push(pin(&case, "app", app));
            values.push(pin(&case, "schedule", sched));
        }
    }
    let sample = Command::new(env!("CARGO_BIN_EXE_mcds"))
        .arg("sample-app")
        .output()
        .expect("runs mcds");
    assert!(sample.status.success(), "{sample:?}");
    let printed = String::from_utf8(sample.stdout).expect("UTF-8");
    let app: Application =
        serde_json::from_str(&printed).expect("sample-app prints an application");
    values.push(pin("sample-app", "app", app));
    values
}

#[test]
fn model_json_matches_the_fixture_and_decodes_back() {
    let values = pinned();
    if std::env::var_os("BLESS").is_some() {
        let lines: Vec<&str> = values.iter().map(|v| v.line.as_str()).collect();
        std::fs::write(FIXTURE, lines.join("\n") + "\n").expect("writes the fixture");
        return;
    }
    let fixture = std::fs::read_to_string(FIXTURE).expect("reads the fixture");
    let committed: Vec<&str> = fixture.lines().collect();
    assert_eq!(committed.len(), values.len(), "fixture line count");
    for (value, want) in values.iter().zip(committed) {
        assert_eq!(value.line, want);
        let json = want.splitn(3, '\t').nth(2).expect("three fields");
        assert!((value.decodes)(json), "decodes back: {want}");
    }
}
