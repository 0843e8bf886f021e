//! Flag parsing shared by the examples.
//!
//! Flags are `--key value` pairs in the process arguments. A value that
//! is missing, does not parse, or fails its flag's check ends the
//! program with exit code 2 before any work, naming the flag and the
//! value: never a panic, never a silent default.

use std::str::FromStr;

/// The value after `key` parsed as `T`, or `None` when the flag is
/// absent. Exits 2 when the value is missing, does not parse, or fails
/// `valid`.
pub fn flag<T: FromStr>(args: &[String], key: &str, valid: fn(&T) -> bool) -> Option<T> {
    let i = args.iter().position(|a| a == key)?;
    Some(parse(key, args.get(i + 1).map(String::as_str), valid))
}

/// `raw`, the value given for `key`, parsed as `T`. Exits 2 when it is
/// missing, does not parse, or fails `valid`.
pub fn parse<T: FromStr>(key: &str, raw: Option<&str>, valid: fn(&T) -> bool) -> T {
    let Some(raw) = raw else {
        fail(&format!("missing value for {key}"));
    };
    match raw.parse() {
        Ok(v) if valid(&v) => v,
        _ => fail(&format!("bad value for {key}: {raw:?}")),
    }
}

/// The value after `key` as given, or `None` when the flag is absent.
/// Exits 2 when the flag is last, with no value.
pub fn text(args: &[String], key: &str) -> Option<String> {
    flag(args, key, |_: &String| true)
}

/// Any value passes.
pub fn any<T>(_: &T) -> bool {
    true
}

/// A finite number.
pub fn finite(v: &f64) -> bool {
    v.is_finite()
}

/// Prints `message` after the program's name and exits 2.
pub fn fail(message: &str) -> ! {
    let program = std::env::args()
        .next()
        .and_then(|p| {
            std::path::Path::new(&p)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_default();
    eprintln!("{program}: {message}");
    std::process::exit(2)
}
