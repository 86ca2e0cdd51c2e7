//! The execution policy of the simulation stack.
//!
//! [`ExecPolicy`] is the one declaration of the execution knobs; a
//! [`Session`](crate::Session) is built from it and every pipeline entry point
//! inherits the same policy. The session built from a policy also owns the
//! run-time state the policy's knobs govern: the resident worker pool
//! (`threads`) and the memoised target-lane artifact cache that repeated
//! coverage/generation/minimisation queries share. The simulation scope
//! (memory size, placements, backgrounds) lives on the session, not here.

use crate::backend::BackendKind;

/// Execution policy shared by every pipeline stage: which backend simulates
/// and how many worker threads fan the work out.
///
/// Both knobs are *result-invariant*: verdicts, reports and generated tests
/// are byte-identical for every policy; only the wall-clock changes.
///
/// # Examples
///
/// ```
/// use sram_sim::{BackendKind, ExecPolicy};
///
/// let policy = ExecPolicy::default().with_threads(0);
/// assert_eq!(policy.backend, BackendKind::Packed);
/// assert_eq!(policy.threads, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecPolicy {
    /// Which simulation backend evaluates coverage lanes and candidates.
    /// Defaults to the bit-parallel packed engine, the one production
    /// engine; the scalar backend is the differential reference
    /// equivalence suites select.
    pub backend: BackendKind,
    /// Worker threads coverage words, scoring words and minimiser chunks
    /// fan out over (`1` = serial, `0` = available parallelism).
    pub threads: usize,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            backend: BackendKind::Packed,
            threads: 1,
        }
    }
}

impl ExecPolicy {
    /// A policy using every available core — the fast path for large
    /// workloads. Results are identical to the default policy.
    #[must_use]
    pub fn fast() -> ExecPolicy {
        ExecPolicy {
            threads: 0,
            ..ExecPolicy::default()
        }
    }

    /// Replaces the simulation backend.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> ExecPolicy {
        self.backend = backend;
        self
    }

    /// Replaces the worker-thread count (`0` = available parallelism).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> ExecPolicy {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_legacy_knobs() {
        let policy = ExecPolicy::default();
        assert_eq!(policy.backend, BackendKind::default());
        assert_eq!(policy.backend, BackendKind::Packed);
        assert_eq!(policy.threads, 1);
        assert_eq!(ExecPolicy::fast().threads, 0);
        assert_eq!(ExecPolicy::fast().backend, BackendKind::Packed);
        // The names the text reports tag their output with.
        for (backend, name) in [
            (BackendKind::Scalar, "scalar"),
            (BackendKind::Packed, "packed"),
        ] {
            assert_eq!(backend.to_string(), name);
            assert_eq!(backend.instance().name(), name);
        }
    }

    #[test]
    fn builders_set_the_knobs() {
        let policy = ExecPolicy::default()
            .with_backend(BackendKind::Scalar)
            .with_threads(4);
        assert_eq!(policy.backend, BackendKind::Scalar);
        assert_eq!(policy.threads, 4);
    }
}
