//! The process's thread width.
//!
//! Two places run work on more than one thread: the supernodal multi-RHS
//! sweep and `pdn serve`'s connection workers. Both size themselves by
//! [`width`], which reads `PDN_THREADS` once per process; everything else
//! runs on the calling thread.

use std::sync::OnceLock;

static WIDTH: OnceLock<usize> = OnceLock::new();

/// The thread width requested by the `PDN_THREADS` environment variable,
/// read on the first call; later calls return the same value.
///
/// `PDN_THREADS=<n>` with `n ≥ 1` gives `n`; unset or empty gives 1. Zero
/// and unparsable values also give 1, with a warning on stderr and a
/// `core.threads.invalid_env` count, so a typo like `PDN_THREADS=O4` is
/// not mistaken for a deliberate single-thread run.
pub fn width() -> usize {
    *WIDTH.get_or_init(|| width_from(std::env::var("PDN_THREADS").ok().as_deref()))
}

/// The body of [`width`] without the once-per-process latch.
fn width_from(raw: Option<&str>) -> usize {
    let Some(raw) = raw.filter(|r| !r.trim().is_empty()) else {
        return 1;
    };
    parse_thread_request(raw).unwrap_or_else(|why| {
        eprintln!("pdn-core: ignoring PDN_THREADS={raw:?} ({why}); using 1 thread");
        crate::telemetry::counter_add("core.threads.invalid_env", 1);
        1
    })
}

/// Parses a `PDN_THREADS` value into a thread width.
///
/// Accepts positive integers; rejects zero (the single-thread default is
/// better requested by unsetting the variable) and anything unparsable.
fn parse_thread_request(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err("thread count must be >= 1".to_string()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("not a valid thread count: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_a_positive_width_and_is_idempotent() {
        let first = width();
        assert!(first >= 1);
        assert_eq!(width(), first);
    }

    #[test]
    fn unset_empty_and_invalid_values_give_one_thread() {
        assert_eq!(width_from(None), 1);
        assert_eq!(width_from(Some("  ")), 1);
        assert_eq!(width_from(Some("0")), 1);
        assert_eq!(width_from(Some("O4")), 1);
        assert_eq!(width_from(Some("3")), 3);
    }

    #[test]
    fn parse_accepts_positive_counts() {
        assert_eq!(parse_thread_request("1"), Ok(1));
        assert_eq!(parse_thread_request(" 8 "), Ok(8));
        assert_eq!(parse_thread_request("64"), Ok(64));
    }

    #[test]
    fn parse_rejects_zero_and_garbage() {
        assert!(parse_thread_request("0").is_err());
        assert!(parse_thread_request("-2").is_err());
        assert!(parse_thread_request("O4").is_err());
        assert!(parse_thread_request("4.0").is_err());
        assert!(parse_thread_request("").is_err());
    }
}
