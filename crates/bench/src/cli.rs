//! The `mcds` argument parser: one table of flags per subcommand.
//!
//! [`parse`] reads a subcommand's arguments once, against its
//! [`Command`] entry in [`COMMANDS`]. Positionals may come before or
//! after flags. An unknown flag, a value flag without a value, a
//! repeated flag or the wrong number of positionals is a spec error
//! that names the offending argument, so nothing runs on a mistyped
//! command line.

use std::fmt::Display;
use std::str::FromStr;

use mcds_core::McdsError;

/// Whether a flag stands alone or takes the next argument as its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// `--cross-set`: present or absent.
    Switch,
    /// `--fb-kw 2`: takes one value.
    Value,
}

/// One entry of a subcommand's flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, with its leading `--`.
    pub name: &'static str,
    /// Switch or value.
    pub arity: Arity,
}

/// The positional arguments a subcommand takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Positionals {
    /// None.
    None,
    /// Exactly one, described by this noun when it is missing.
    One(&'static str),
    /// Any number (`mcds sweep`'s application files).
    Many,
}

/// One `mcds` subcommand: its name, positionals and flag table.
#[derive(Debug)]
pub struct Command {
    /// The subcommand as typed.
    pub name: &'static str,
    /// The positional arguments it takes.
    pub positionals: Positionals,
    /// Every flag it accepts.
    pub flags: &'static [Flag],
}

impl Command {
    /// The table entry of `name`, if this command accepts it.
    #[must_use]
    pub fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name == name)
    }
}

const fn switch(name: &'static str) -> Flag {
    Flag {
        name,
        arity: Arity::Switch,
    }
}

const fn value(name: &'static str) -> Flag {
    Flag {
        name,
        arity: Arity::Value,
    }
}

const APP: Positionals = Positionals::One("app.json path");

/// Every `mcds` subcommand, in usage order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "sample-app", positionals: Positionals::None, flags: &[] },
    Command { name: "inspect", positionals: APP, flags: &[] },
    Command { name: "plan", positionals: APP, flags: &[
        value("--clusters"), value("--scheduler"), value("--fb-kw"), switch("--cross-set"),
        switch("--gantt"), switch("--program"),
    ] },
    Command { name: "run", positionals: APP, flags: &[
        value("--clusters"), value("--scheduler"), value("--fb-kw"), switch("--cross-set"),
        switch("--gantt"), switch("--program"), switch("--explain"), value("--trace-out"),
        switch("--metrics"),
    ] },
    Command { name: "explore", positionals: APP, flags: &[
        value("--fb-kw"), switch("--cross-set"),
    ] },
    Command { name: "sweep", positionals: Positionals::Many, flags: &[
        value("--clusters"), switch("--cross-set"), value("--fb-kw-list"), value("--threads"),
        value("--format"), value("--schedulers"),
    ] },
    Command { name: "serve", positionals: Positionals::None, flags: &[
        value("--addr"), value("--workers"), value("--queue-depth"), value("--max-frame-kb"),
        value("--fault-seed"), value("--degrade-below-ms"), switch("--no-degrade"),
        value("--qos-quotas"), value("--shed-after-ms"), value("--idle-timeout-ms"),
        value("--write-stall-ms"), value("--conn-buffer-kb"), value("--store-dir"),
        value("--fsync"),
    ] },
    Command { name: "load", positionals: Positionals::None, flags: &[
        value("--addr"), value("--connections"), value("--requests"), value("--distinct-keys"),
        value("--pipeline"), value("--seed"), value("--scheduler"), value("--deadline-ms"),
        value("--retries"), value("--class"),
    ] },
    Command { name: "chaos", positionals: Positionals::None, flags: &[
        value("--seed"), value("--seeds"), value("--requests"), value("--workers"),
    ] },
    Command { name: "crashdrill", positionals: Positionals::None, flags: &[
        value("--seed"), value("--keys"), value("--requests"), value("--dir"), value("--out"),
    ] },
    Command { name: "overload", positionals: Positionals::None, flags: &[
        value("--addr"), value("--requests"), value("--priority-deadline-ms"),
        value("--abuse-clients"), value("--abuse-duration-ms"), value("--abuse-modes"),
        value("--out"),
    ] },
    Command { name: "hotpath", positionals: Positionals::None, flags: &[
        value("--out"), value("--check"), value("--repeats"),
    ] },
    Command { name: "search-bench", positionals: Positionals::None, flags: &[
        value("--beam"), value("--max-expansions"), value("--seeds"), value("--fb-kw-list"),
        value("--out"),
    ] },
];

/// The [`COMMANDS`] entry named `name`.
#[must_use]
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// One subcommand's arguments, read against its table.
#[derive(Debug)]
pub struct Args {
    command: &'static Command,
    positionals: Vec<String>,
    /// The flags given, each once, with the value of a value flag.
    given: Vec<(&'static str, Option<String>)>,
}

/// Reads `args` (everything after the subcommand name) against
/// `command`'s table.
///
/// # Errors
///
/// A spec error naming the argument at fault: an unknown flag, a value
/// flag at the end of the line or followed by another flag, a repeated
/// flag, or a missing or surplus positional.
pub fn parse(command: &'static Command, args: &[String]) -> Result<Args, McdsError> {
    let name = command.name;
    let mut parsed = Args {
        command,
        positionals: Vec::new(),
        given: Vec::new(),
    };
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            parsed.positionals.push(arg.clone());
            continue;
        }
        let flag = command
            .flag(arg)
            .ok_or_else(|| McdsError::spec(format!("{name}: unknown flag `{arg}`")))?;
        if parsed.given.iter().any(|(n, _)| *n == flag.name) {
            return Err(McdsError::spec(format!("{name}: `{arg}` given twice")));
        }
        let value = match flag.arity {
            Arity::Switch => None,
            Arity::Value => match rest.next_if(|v| !v.starts_with("--")) {
                Some(v) => Some(v.clone()),
                None => return Err(McdsError::spec(format!("{name}: `{arg}` needs a value"))),
            },
        };
        parsed.given.push((flag.name, value));
    }
    let surplus = match command.positionals {
        Positionals::None => parsed.positionals.first(),
        Positionals::One(noun) if parsed.positionals.is_empty() => {
            return Err(McdsError::spec(format!("{name} needs an {noun}")));
        }
        Positionals::One(_) => parsed.positionals.get(1),
        Positionals::Many => None,
    };
    if let Some(arg) = surplus {
        return Err(McdsError::spec(format!(
            "{name}: unexpected argument `{arg}`"
        )));
    }
    Ok(parsed)
}

impl Args {
    /// The positional arguments, in order.
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The one positional of a [`Positionals::One`] command.
    #[must_use]
    pub fn positional(&self) -> &str {
        &self.positionals[0]
    }

    fn lookup(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(
            self.command.flag(name).is_some(),
            "`{name}` is not in the table of `mcds {}`",
            self.command.name
        );
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// `true` when the switch `name` was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// The value of flag `name`, if given.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.lookup(name).and_then(Option::as_deref)
    }

    /// The value of flag `name` parsed as a `T`, if given.
    ///
    /// # Errors
    ///
    /// A spec error naming the flag when the value does not parse.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, McdsError>
    where
        T::Err: Display,
    {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|e| McdsError::spec(format!("{name}: {e}")))
            })
            .transpose()
    }

    /// The comma-separated values of flag `name`, each trimmed and
    /// parsed as a `T`, if given.
    ///
    /// # Errors
    ///
    /// A spec error naming the flag and the item that does not parse.
    pub fn list<T: FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, McdsError>
    where
        T::Err: Display,
    {
        self.value(name)
            .map(|list| {
                list.split(',')
                    .map(|v| {
                        v.trim()
                            .parse()
                            .map_err(|e| McdsError::spec(format!("{name} `{v}`: {e}")))
                    })
                    .collect()
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    fn plan(line: &str) -> Result<Args, McdsError> {
        parse(command("plan").expect("plan"), &args(line))
    }

    fn refusal(result: Result<Args, McdsError>) -> String {
        result.expect_err("refused").to_string()
    }

    #[test]
    fn positionals_read_on_both_sides_of_flags() {
        for line in [
            "app.json --fb-kw 2 --gantt",
            "--fb-kw 2 app.json --gantt",
            "--fb-kw 2 --gantt app.json",
        ] {
            let a = plan(line).expect(line);
            assert_eq!(a.positional(), "app.json", "{line}");
            assert_eq!(a.value("--fb-kw"), Some("2"), "{line}");
            assert!(a.switch("--gantt"), "{line}");
            assert!(!a.switch("--program"), "{line}");
            assert_eq!(a.value("--scheduler"), None, "{line}");
        }
        let sweep = parse(
            command("sweep").expect("sweep"),
            &args("a.json --threads 1 b.json --cross-set c.json"),
        )
        .expect("any number of files");
        assert_eq!(sweep.positionals(), ["a.json", "b.json", "c.json"]);
    }

    #[test]
    fn an_unknown_flag_is_refused_by_name() {
        let err = refusal(plan("app.json --fb-k 2"));
        assert!(err.contains("unknown flag `--fb-k`"), "{err}");
        let err = refusal(plan("app.json --schedulr ds"));
        assert!(err.contains("`--schedulr`"), "{err}");
        // A flag of another subcommand is unknown here.
        let err = refusal(parse(
            command("sweep").expect("sweep"),
            &args("--scheduler ds"),
        ));
        assert!(err.contains("unknown flag `--scheduler`"), "{err}");
    }

    #[test]
    fn a_value_flag_without_a_value_is_refused() {
        let err = refusal(plan("app.json --fb-kw"));
        assert!(err.contains("`--fb-kw` needs a value"), "{err}");
        let err = refusal(plan("app.json --fb-kw --gantt"));
        assert!(err.contains("`--fb-kw` needs a value"), "{err}");
    }

    #[test]
    fn a_repeated_flag_is_refused() {
        let err = refusal(plan("app.json --fb-kw 1 --fb-kw 2"));
        assert!(err.contains("`--fb-kw` given twice"), "{err}");
        let err = refusal(plan("app.json --gantt --gantt"));
        assert!(err.contains("`--gantt` given twice"), "{err}");
    }

    #[test]
    fn the_wrong_number_of_positionals_is_refused() {
        let err = refusal(plan("--fb-kw 2"));
        assert!(err.ends_with("plan needs an app.json path"), "{err}");
        let err = refusal(plan("app.json other.json"));
        assert!(err.contains("unexpected argument `other.json`"), "{err}");
        let err = refusal(parse(command("serve").expect("serve"), &args("7171")));
        assert!(err.contains("unexpected argument `7171`"), "{err}");
    }

    #[test]
    fn typed_values_name_their_flag_when_they_do_not_parse() {
        let a = plan("app.json --fb-kw two").expect("parses as text");
        let err = a.parsed::<u64>("--fb-kw").expect_err("not a number");
        assert!(err.to_string().contains("--fb-kw: invalid digit"), "{err}");
        assert_eq!(
            plan("app.json --fb-kw 3")
                .expect("parses")
                .parsed::<u64>("--fb-kw")
                .expect("a number"),
            Some(3)
        );
        let sweep = parse(
            command("sweep").expect("sweep"),
            &args("--fb-kw-list 1,x,3"),
        )
        .expect("parses as text");
        let err = sweep
            .list::<u64>("--fb-kw-list")
            .expect_err("x is not a number");
        assert!(err.to_string().contains("--fb-kw-list `x`"), "{err}");
    }

    #[test]
    fn flag_names_are_unique_per_command_and_well_formed() {
        for c in COMMANDS {
            for (i, f) in c.flags.iter().enumerate() {
                assert!(f.name.starts_with("--"), "{} {}", c.name, f.name);
                assert!(
                    c.flags[..i].iter().all(|g| g.name != f.name),
                    "{} lists {} twice",
                    c.name,
                    f.name
                );
            }
        }
    }
}
