//! Retry policies for supervised experiment execution: deterministic
//! seeded-jitter exponential backoff and per-attempt wall-clock deadlines.
//!
//! The experiment engine retries a job whose attempt panicked or ran past
//! its deadline. [`BackoffConfig`] computes the pause before each retry as
//! capped exponential growth with *seeded* jitter: the jitter is a pure
//! function of `(seed, job, attempt)`, so a given experiment seed always
//! produces the same delay schedule for a given job — independent of
//! worker count, thread interleaving, or wall-clock time. That keeps the
//! engine's determinism story intact: retries change *when* a job runs,
//! never *what* it computes, and the delays themselves are reproducible in
//! tests down to the microsecond. Attempts touch no disk (journal appends
//! happen once a job's outcome is final), so the pause spaces out retries
//! of one job; it does not wait for a shared resource to recover.
//!
//! [`RetryPolicy`] bundles the retry budget, the backoff, and an optional
//! per-attempt wall-clock deadline. The deadline is cooperative: the engine
//! hands each attempt the instant it must finish by, the job checks it
//! with [`DeadlineExceeded::check`] between batches of work, and an attempt
//! past it unwinds with a [`DeadlineExceeded`] payload that the engine
//! counts as a failed attempt, exactly like a panic. Work outside those
//! checks is not interrupted.

use crate::failpoint::splitmix64;
use std::time::{Duration, Instant};

/// Seeded-jitter exponential backoff between supervised retry attempts.
///
/// The delay before retry `n` (1-based: the pause after the `n`-th failed
/// attempt) grows as `base * 2^(n-1)`, capped at `cap`, then jittered
/// uniformly into `[delay/2, delay]` by a SplitMix64 draw over
/// `(seed, job, n)`. Full determinism: same inputs, same delay, on every
/// machine and worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Delay before the first retry, in milliseconds.
    pub base_ms: u64,
    /// Upper bound on any single delay, in milliseconds.
    pub cap_ms: u64,
}

impl BackoffConfig {
    /// The service default: 100 ms doubling up to 5 s.
    pub fn default_service() -> Self {
        BackoffConfig {
            base_ms: 100,
            cap_ms: 5_000,
        }
    }

    /// No backoff at all (every delay is zero) — the legacy immediate-retry
    /// behaviour, and the right choice for deterministic unit tests that
    /// must not sleep.
    pub fn none() -> Self {
        BackoffConfig {
            base_ms: 0,
            cap_ms: 0,
        }
    }

    /// The pause before retry `attempt` (1-based) of job `job`, under
    /// `seed`. Pure: depends only on the arguments.
    pub fn delay(&self, seed: u64, job: usize, attempt: u32) -> Duration {
        if self.base_ms == 0 {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self.base_ms.saturating_mul(1u64 << exp).min(self.cap_ms);
        if raw == 0 {
            return Duration::ZERO;
        }
        // Jitter into [raw/2, raw]: spread concurrent retries apart without
        // ever waiting longer than the capped exponential envelope.
        let mix = splitmix64(
            seed ^ (job as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt),
        );
        let half = raw / 2;
        let jitter = if raw - half == 0 {
            0
        } else {
            mix % (raw - half + 1)
        };
        Duration::from_millis(half + jitter)
    }
}

/// How a supervised run treats a failing job: how often to retry, how long
/// to pause between attempts, and how long any single attempt may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = one attempt, no retry).
    pub retries: u32,
    /// Pause schedule between attempts.
    pub backoff: BackoffConfig,
    /// Wall-clock budget for one attempt. `None`: attempts run unbounded.
    pub deadline: Option<Duration>,
}

impl RetryPolicy {
    /// `retries` immediate retries: no backoff, no deadline.
    pub fn immediate(retries: u32) -> Self {
        RetryPolicy {
            retries,
            backoff: BackoffConfig::none(),
            deadline: None,
        }
    }

    /// The policy with a per-attempt deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The policy with the given backoff schedule.
    pub fn with_backoff(mut self, backoff: BackoffConfig) -> Self {
        self.backoff = backoff;
        self
    }

    /// Total attempts this policy allows (1 + retries).
    pub fn attempts(&self) -> u32 {
        self.retries.saturating_add(1)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::immediate(0)
    }
}

/// The panic payload of an attempt that ran past its deadline.
///
/// A job raises it through [`DeadlineExceeded::check`]; the engine tells it
/// apart from a panic by downcasting the unwound payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl DeadlineExceeded {
    /// Unwinds with a `DeadlineExceeded` payload once `deadline` has
    /// passed. `None` never unwinds and reads no clock. The unwind skips
    /// the panic hook: an overrun is an expected outcome, not a crash to
    /// print.
    pub fn check(deadline: Option<Instant>) {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            std::panic::resume_unwind(Box::new(DeadlineExceeded));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_deterministic() {
        let b = BackoffConfig::default_service();
        for seed in [0, 7, 42] {
            for job in [0usize, 3, 117] {
                for attempt in 1..6 {
                    assert_eq!(
                        b.delay(seed, job, attempt),
                        b.delay(seed, job, attempt),
                        "delay must be a pure function of (seed, job, attempt)"
                    );
                }
            }
        }
    }

    #[test]
    fn delays_grow_exponentially_within_the_cap() {
        let b = BackoffConfig {
            base_ms: 100,
            cap_ms: 5_000,
        };
        for attempt in 1..12 {
            let raw = 100u64.saturating_mul(1 << (attempt - 1)).min(5_000);
            let d = b.delay(42, 0, attempt).as_millis() as u64;
            assert!(
                (raw / 2..=raw).contains(&d),
                "attempt {attempt}: delay {d} outside [{}, {raw}]",
                raw / 2
            );
        }
        // Deep attempts stay at the cap instead of overflowing the shift.
        assert!(b.delay(42, 0, 64).as_millis() as u64 <= 5_000);
    }

    #[test]
    fn different_jobs_jitter_apart() {
        let b = BackoffConfig {
            base_ms: 1_000,
            cap_ms: 60_000,
        };
        let distinct: std::collections::HashSet<u128> =
            (0..32).map(|job| b.delay(42, job, 1).as_millis()).collect();
        assert!(
            distinct.len() > 8,
            "jitter must spread concurrent retries apart, got {distinct:?}"
        );
    }

    #[test]
    fn zero_base_means_no_sleep() {
        let b = BackoffConfig::none();
        for attempt in 1..5 {
            assert_eq!(b.delay(1, 2, attempt), Duration::ZERO);
        }
        assert_eq!(RetryPolicy::immediate(3).backoff, BackoffConfig::none());
        assert_eq!(RetryPolicy::immediate(3).attempts(), 4);
        assert_eq!(RetryPolicy::default().attempts(), 1);
    }

    #[test]
    fn a_passed_deadline_unwinds_with_its_payload() {
        DeadlineExceeded::check(None);
        DeadlineExceeded::check(Some(Instant::now() + Duration::from_secs(60)));
        let payload = std::panic::catch_unwind(|| DeadlineExceeded::check(Some(Instant::now())))
            .expect_err("a deadline of now has passed");
        assert!(payload.downcast_ref::<DeadlineExceeded>().is_some());
    }

    #[test]
    fn policy_builders_compose() {
        let p = RetryPolicy::immediate(2)
            .with_backoff(BackoffConfig::default_service())
            .with_deadline(Duration::from_secs(30));
        assert_eq!(p.retries, 2);
        assert_eq!(p.backoff.base_ms, 100);
        assert_eq!(p.deadline, Some(Duration::from_secs(30)));
    }
}
