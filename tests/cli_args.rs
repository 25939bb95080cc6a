//! The `mcds` command line against its flag tables
//! (`mcds_bench::cli::COMMANDS`): the built binary refuses a malformed
//! invocation before it reads a file or binds a socket, and every
//! `mcds <subcommand> --flag` the documentation shows is in that
//! subcommand's table.

use std::process::{Command, Output};

use mcds_bench::cli;

fn mcds(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcds"))
        .args(args)
        .output()
        .expect("runs mcds")
}

#[test]
fn malformed_invocations_exit_2_naming_the_argument() {
    // `app.json` does not exist: a refusal that named anything else
    // (a missing file) would show the file was opened first.
    let cases: [(&[&str], &str); 8] = [
        (&["plan", "app.json", "--fb-k", "2"], "--fb-k"),
        (&["plan", "app.json", "--schedulr", "ds"], "--schedulr"),
        (&["plan", "app.json", "--fb-kw"], "--fb-kw"),
        (
            &["plan", "app.json", "--fb-kw", "1", "--fb-kw", "2"],
            "--fb-kw",
        ),
        (&["plan", "app.json", "other.json"], "other.json"),
        (&["sweep", "--scheduler", "ds"], "--scheduler"),
        (&["serve", "--worker", "4"], "--worker"),
        (&["load", "--procs", "2"], "--procs"),
    ];
    for (args, culprit) in cases {
        let out = mcds(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`{culprit}`")),
            "{args:?}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn positionals_read_before_or_after_flags() {
    let app = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_args_sample.json");
    let sample = mcds(&["sample-app"]);
    assert!(sample.status.success());
    std::fs::write(&app, &sample.stdout).expect("writes the sample app");
    let app = app.to_str().expect("UTF-8 path");
    let after = mcds(&["plan", app, "--fb-kw", "2"]);
    let before = mcds(&["plan", "--fb-kw", "2", app]);
    assert!(after.status.success(), "{after:?}");
    assert!(!after.stdout.is_empty());
    assert_eq!(before.stdout, after.stdout);
    assert_eq!(before.status.code(), after.status.code());
}

/// Every `mcds <subcommand> …` (or `mcds -- <subcommand> …`, as after
/// `cargo run --bin mcds`) on `line`, with what follows the subcommand
/// up to a `|`, `&`, `>` or closing backquote.
fn invocations(line: &str) -> Vec<(&'static cli::Command, &str)> {
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(at) = line[from..].find("mcds ") {
        let start = from + at;
        from = start + "mcds ".len();
        let standalone = line[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '-' || c == '_'));
        let rest = &line[from..];
        let rest = rest.strip_prefix("-- ").unwrap_or(rest);
        let end = rest
            .find(|c: char| c.is_whitespace() || c == '`')
            .unwrap_or(rest.len());
        let Some(command) = cli::command(&rest[..end]).filter(|_| standalone) else {
            continue;
        };
        let tail = &rest[end..];
        found.push((
            command,
            &tail[..tail.find(['|', '&', '>', '`']).unwrap_or(tail.len())],
        ));
    }
    found
}

/// `text` as the scan reads it, one entry a line: `\` continuations
/// are joined, and so is a line whose inline code span is still open
/// with the lines up to the one that closes it, so an invocation that
/// wraps inside one span is read whole. Lines of fenced code blocks
/// are read one by one, and a blank line closes any span.
fn logical_lines(text: &str) -> Vec<String> {
    let mut lines = Vec::new();
    let (mut open, mut fenced) = (None::<String>, false);
    for line in text.replace("\\\n", " ").lines() {
        let joined = match open.take() {
            Some(held) if !line.trim().is_empty() => format!("{held} {}", line.trim_start()),
            Some(held) => {
                lines.push(held);
                line.to_owned()
            }
            None => line.to_owned(),
        };
        if joined.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced && joined.matches('`').count() % 2 == 1 {
            open = Some(joined);
            continue;
        }
        lines.push(joined);
    }
    lines.extend(open);
    lines
}

#[test]
fn documented_invocations_use_only_flags_in_the_table() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let (mut lines, mut flags) = (0, 0);
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = std::fs::read_to_string(format!("{root}/{doc}")).expect(doc);
        for line in logical_lines(&text) {
            let line = line.as_str();
            let mut flagged = false;
            for (command, tail) in invocations(line) {
                for word in tail.split_whitespace() {
                    let word = word.trim_start_matches(['[', '(']);
                    let Some(name) = word.strip_prefix("--") else {
                        continue;
                    };
                    let len = name
                        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                        .unwrap_or(name.len());
                    if len == 0 {
                        continue;
                    }
                    let flag = &word[..len + 2];
                    assert!(
                        command.flag(flag).is_some(),
                        "{doc}: `mcds {}` has no flag `{flag}`: {line}",
                        command.name
                    );
                    flagged = true;
                    flags += 1;
                }
            }
            lines += usize::from(flagged);
        }
    }
    // The scan itself works: the docs show dozens of flagged commands.
    assert!(lines >= 34 && flags >= 62, "{lines} lines, {flags} flags");
}
