//! # timetoscan-repro — the workspace facade
//!
//! Re-exports every crate of the *Time To Scan* (IMC '25) reproduction so
//! examples and integration tests can use one dependency. See the README
//! for the architecture overview and DESIGN.md / EXPERIMENTS.md for the
//! experiment inventory.

#![forbid(unsafe_code)]

pub use analysis;
pub use hitlist;
pub use netsim;
pub use ntppool;
pub use scanner;
pub use telescope;
pub use timetoscan;
pub use v6addr;
pub use wire;

/// The optional `[seed]` argument of the example binaries: absent means
/// `default`, anything that does not parse as a `u64` is an error that
/// names it (a typo must not silently run another seed's world).
pub fn seed_arg(arg: Option<String>, default: u64) -> Result<u64, String> {
    match arg {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| format!("seed must be an unsigned integer, got {s:?}")),
    }
}

/// Prints a bad-argument message to stderr and exits with status 2.
pub fn exit_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::seed_arg;

    #[test]
    fn seed_arg_defaults_only_when_absent() {
        assert_eq!(seed_arg(None, 42), Ok(42));
        assert_eq!(seed_arg(Some("17".into()), 42), Ok(17));
        for bad in ["", "4x2", "-1", "small"] {
            let err = seed_arg(Some(bad.into()), 42).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
