//! Command-line parsing shared by the emitting binaries.
//!
//! [`Args`] is consumed flag by flag: each lookup removes what it matched,
//! and [`Args::positionals`] / [`Args::done`] reject whatever flag is left
//! over, so a typo (`--chek`) or a malformed value (`--check abc`) is an
//! error rather than a silently different run. [`parse_or_exit`] turns
//! that error into `error: ..` plus the usage line and exit status 2 —
//! before the binary has done any work.

use std::str::FromStr;

/// The arguments not yet claimed by a lookup.
#[derive(Debug)]
pub struct Args {
    rest: Vec<String>,
}

fn parse<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value {value:?} for {flag}"))
}

impl Args {
    /// Parse over `tokens` (the process arguments without `argv[0]`).
    pub fn new(tokens: impl IntoIterator<Item = String>) -> Self {
        Args {
            rest: tokens.into_iter().collect(),
        }
    }

    /// `--flag`: was it given?
    pub fn switch(&mut self, flag: &str) -> bool {
        let at = self.rest.iter().position(|a| a == flag);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    /// Remove the first `flag` and the token after it, whatever that is.
    fn take_value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 == self.rest.len() {
            return Err(format!("{flag} expects a value"));
        }
        self.rest.remove(i);
        Ok(Some(self.rest.remove(i)))
    }

    /// `--flag VALUE`: the typed value, `None` when the flag is absent.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.take_value(flag)?.map(|v| parse(flag, &v)).transpose()
    }

    /// `--flag [VALUE]`: `None` when absent, `Some(None)` when the flag is
    /// last or followed by another flag, `Some(Some(v))` otherwise.
    pub fn optional<T: FromStr>(&mut self, flag: &str) -> Result<Option<Option<T>>, String> {
        let Some(i) = self.rest.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        self.rest.remove(i);
        match self.rest.get(i) {
            Some(v) if !v.starts_with("--") => {
                let v = self.rest.remove(i);
                parse(flag, &v).map(|v| Some(Some(v)))
            }
            _ => Ok(Some(None)),
        }
    }

    /// [`Args::optional`] where the bare flag means `default` (`--out`).
    pub fn optional_or<T: FromStr>(&mut self, flag: &str, default: T) -> Result<Option<T>, String> {
        Ok(self.optional(flag)?.map(|v| v.unwrap_or(default)))
    }

    /// `--flag VALUE` any number of times, in order.
    pub fn repeated(&mut self, flag: &str) -> Result<Vec<String>, String> {
        let mut values = Vec::new();
        while let Some(v) = self.take_value(flag)? {
            values.push(v);
        }
        Ok(values)
    }

    /// What is left once every known flag has been looked up: the
    /// positional arguments. Any remaining `--flag` is unknown (or given
    /// twice) and is an error.
    pub fn positionals(self) -> Result<Vec<String>, String> {
        match self.rest.iter().find(|a| a.starts_with("--")) {
            Some(flag) => Err(format!("unexpected flag {flag}")),
            None => Ok(self.rest),
        }
    }

    /// [`Args::positionals`] for a binary that takes none.
    pub fn done(self) -> Result<(), String> {
        match self.positionals()?.first() {
            Some(arg) => Err(format!("unexpected argument {arg:?}")),
            None => Ok(()),
        }
    }
}

/// Run `parse` over the process arguments; on error print `error: ..` and
/// `usage` to stderr and exit with status 2.
pub fn parse_or_exit<T>(usage: &str, parse: impl FnOnce(Args) -> Result<T, String>) -> T {
    parse(Args::new(std::env::args().skip(1))).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::new(line.split_whitespace().map(String::from))
    }

    #[test]
    fn typed_value_parses_or_errors() {
        let mut a = args("--reps 3 --records x");
        assert_eq!(a.value::<u32>("--reps"), Ok(Some(3)));
        assert_eq!(a.value::<u32>("--rounds"), Ok(None));
        let err = a.value::<usize>("--records").unwrap_err();
        assert_eq!(err, "invalid value \"x\" for --records");
        assert_eq!(
            args("--reps").value::<u32>("--reps").unwrap_err(),
            "--reps expects a value"
        );
    }

    #[test]
    fn malformed_check_floor_is_an_error_not_a_skipped_gate() {
        // The parent's `.and_then(|v| v.parse().ok())` read this as "no
        // --check at all".
        let err = args("--check abc").optional::<f64>("--check").unwrap_err();
        assert_eq!(err, "invalid value \"abc\" for --check");
        assert_eq!(
            args("--check 2.0").optional::<f64>("--check"),
            Ok(Some(Some(2.0)))
        );
    }

    #[test]
    fn optional_value_stops_at_the_next_flag() {
        let mut a = args("--out --check");
        assert_eq!(a.optional::<String>("--out"), Ok(Some(None)));
        assert_eq!(a.optional::<f64>("--check"), Ok(Some(None)));
        assert_eq!(a.optional::<String>("--trace"), Ok(None));
        assert_eq!(a.done(), Ok(()));

        let mut a = args("--smoke --out f.json --check");
        assert_eq!(
            a.optional_or("--out", "default.json".to_string()),
            Ok(Some("f.json".to_string()))
        );
        assert_eq!(
            args("--out --check").optional_or("--out", "default.json".to_string()),
            Ok(Some("default.json".to_string()))
        );
        assert!(a.switch("--smoke") && !a.switch("--smoke"));
    }

    #[test]
    fn repeated_flag_collects_every_value_in_order() {
        let mut a = args("--note a --reps 1 --note b");
        assert_eq!(a.repeated("--note"), Ok(vec!["a".into(), "b".into()]));
        assert_eq!(a.value::<u32>("--reps"), Ok(Some(1)));
        assert_eq!(a.done(), Ok(()));
        assert!(args("--note").repeated("--note").is_err());
    }

    #[test]
    fn leftovers_are_rejected() {
        assert_eq!(
            args("--bogus").done().unwrap_err(),
            "unexpected flag --bogus"
        );
        assert_eq!(
            args("abc").done().unwrap_err(),
            "unexpected argument \"abc\""
        );
        assert_eq!(args("1 x").positionals(), Ok(vec!["1".into(), "x".into()]));
        // A flag given twice survives its single lookup.
        let mut a = args("--reps 1 --reps 2");
        assert_eq!(a.value::<u32>("--reps"), Ok(Some(1)));
        assert_eq!(a.done().unwrap_err(), "unexpected flag --reps");
    }
}
