//! The process-wide worker-count setting.
//!
//! Every parallel layer of the workspace — the Fokker–Planck slab
//! stepper in `fpk-core` and the sweep executor in `fpk-scenarios`,
//! both plain `std::thread::scope` workers — sizes itself from
//! [`thread_count`]. Both are bit-identical for any worker
//! count, so the `FPK_THREADS` override only changes wall-clock time.

/// Worker count: the `FPK_THREADS` override when set, otherwise the
/// machine's available parallelism.
///
/// # Panics
/// Panics when `FPK_THREADS` is set to anything but a positive integer
/// (unset or empty means "no override"). A typo'd determinism override
/// must fail loudly, not silently fall back to machine parallelism.
#[must_use]
pub fn thread_count() -> usize {
    // lint: allow(env-var) — FPK_THREADS is a designated config accessor (DESIGN §3h); worker count never feeds simulation results.
    match std::env::var("FPK_THREADS") {
        Err(std::env::VarError::NotPresent) => default_parallelism(),
        Err(std::env::VarError::NotUnicode(raw)) => {
            panic!("FPK_THREADS must be a positive integer, got non-UTF-8 {raw:?}")
        }
        Ok(s) if s.is_empty() => default_parallelism(),
        Ok(s) => match s.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => panic!(
                "FPK_THREADS must be a positive integer, got {s:?} \
                 (unset it for machine parallelism)"
            ),
        },
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    /// Restores `FPK_THREADS` on drop, so the test cannot clobber an
    /// externally-set override (CI pins `FPK_THREADS=1` for a whole
    /// test run). This is the crate's only test that touches the
    /// environment, so no cross-test lock is needed.
    struct Restore(Option<std::ffi::OsString>);

    impl Drop for Restore {
        fn drop(&mut self) {
            match &self.0 {
                Some(v) => std::env::set_var("FPK_THREADS", v),
                None => std::env::remove_var("FPK_THREADS"),
            }
        }
    }

    #[test]
    fn thread_count_rejects_malformed_or_zero_override() {
        let _restore = Restore(std::env::var_os("FPK_THREADS"));
        for bad in ["zero", "0", "-3", "1.5"] {
            std::env::set_var("FPK_THREADS", bad);
            let caught = catch_unwind(thread_count);
            std::env::remove_var("FPK_THREADS");
            let msg = caught
                .expect_err("malformed FPK_THREADS must panic")
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains(bad), "panic must quote the bad value: {msg}");
        }
        // Empty means "no override", like unset.
        std::env::set_var("FPK_THREADS", "");
        let n = thread_count();
        std::env::remove_var("FPK_THREADS");
        assert!(n >= 1);
        std::env::set_var("FPK_THREADS", "3");
        let n = thread_count();
        std::env::remove_var("FPK_THREADS");
        assert_eq!(n, 3);
    }
}
