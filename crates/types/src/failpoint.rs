//! Deterministic fault injection: named fail-point sites with seeded or
//! counted triggers.
//!
//! Crash-safety code is only trustworthy if its failure paths are
//! *exercisable*: a torn warehouse save, a panicking sweep job, or a died
//! process at a journal boundary must be reproducible in a test, not wait
//! for a real crash. This module provides that hook. Production code marks
//! interesting failure sites by name:
//!
//! ```text
//! rnuca_types::failpoint::panic_point("sweep::journal::append");
//! rnuca_types::failpoint::io_point("warehouse::save::fsync")?;
//! ```
//!
//! and tests *arm* those sites with a trigger (fire on the Nth hit, on a
//! seeded pseudo-random hit, on a window of hits, or on every hit) and an
//! action (panic, or return an injected [`std::io::Error`]). Everything is
//! deterministic: a seeded trigger resolves to a concrete hit number via
//! SplitMix64 at arm time, so the same seed always kills the same site hit.
//!
//! # Cost
//!
//! The subsystem is compiled to a no-op unless the `failpoints` cargo
//! feature is enabled: without it, [`panic_point`] and [`io_point`] are
//! empty inline functions and [`enabled`] is `const false`, so sites with
//! dynamically built names can be gated as
//! `if failpoint::enabled() { ... }` and fold away entirely. The feature is
//! enabled by the workspace's *dev*-dependencies only — test builds carry
//! live fail points, `cargo build --release` carries none.
//!
//! # Process-wide state
//!
//! Armed fail points are global to the process. [`arm`] therefore takes an
//! exclusive session lock held by the returned [`FailGuard`] — concurrent
//! tests serialize on it instead of corrupting each other's plans — and
//! disarms everything on drop. A process can also arm sites from the
//! environment (`RNUCA_FAILPOINTS=site=panic@3;other=io@1`), which is how
//! the chaos harness kills a real `figures` run at a chosen job boundary.

use std::fmt;

/// What an armed fail point does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic at the site (the injected panic message names the site).
    Panic,
    /// Return an injected [`std::io::Error`] from [`io_point`] sites.
    /// [`panic_point`] sites treat this as [`FailAction::Panic`].
    Io,
    /// Abort the whole process ([`std::process::abort`]): SIGABRT, no
    /// destructors, no unwinding — the deterministic stand-in for
    /// `kill -9` at a chosen site hit. Any site kind honours it.
    Abort,
}

impl fmt::Display for FailAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailAction::Panic => f.write_str("panic"),
            FailAction::Io => f.write_str("io"),
            FailAction::Abort => f.write_str("abort"),
        }
    }
}

/// One armed fail point: a site name, an action, and the window of hit
/// numbers (1-based, inclusive start) on which it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailSpec {
    /// The site this spec arms.
    pub site: String,
    /// What happens when the trigger fires.
    pub action: FailAction,
    /// First hit number (1-based) that fires.
    pub from: u64,
    /// Number of consecutive hits that fire (`u64::MAX` = forever).
    pub count: u64,
}

impl FailSpec {
    /// Fires exactly on the `n`-th hit of `site` (1-based).
    pub fn nth(site: &str, action: FailAction, n: u64) -> Self {
        FailSpec {
            site: site.to_string(),
            action,
            from: n.max(1),
            count: 1,
        }
    }

    /// Fires on `count` consecutive hits starting at hit `from` (1-based).
    pub fn window(site: &str, action: FailAction, from: u64, count: u64) -> Self {
        FailSpec {
            site: site.to_string(),
            action,
            from: from.max(1),
            count,
        }
    }

    /// Fires on every hit of `site`.
    pub fn always(site: &str, action: FailAction) -> Self {
        Self::window(site, action, 1, u64::MAX)
    }

    /// Fires on one hit chosen deterministically from `seed` in
    /// `1..=max` — the "kill at a fail-point-chosen boundary" trigger.
    /// The same `(seed, max)` always picks the same hit.
    pub fn seeded(site: &str, action: FailAction, seed: u64, max: u64) -> Self {
        Self::nth(site, action, splitmix64(seed) % max.max(1) + 1)
    }

    /// Parses one `site=action@trigger` spec, the grammar of the
    /// `RNUCA_FAILPOINTS` environment variable:
    ///
    /// ```text
    /// spec    := site '=' action '@' trigger
    /// action  := 'panic' | 'io' | 'abort'
    /// trigger := N | N '+' COUNT | 'seed:' SEED '%' MAX | 'always'
    /// ```
    ///
    /// `N` fires on the Nth hit; `N+COUNT` on COUNT hits starting at N;
    /// `seed:S%M` on one seeded hit in `1..=M`; `always` on every hit.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed part.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (site, rest) = spec
            .rsplit_once('=')
            .ok_or_else(|| format!("fail-point spec `{spec}` has no `=`"))?;
        let (action, trigger) = rest
            .split_once('@')
            .ok_or_else(|| format!("fail-point spec `{spec}` has no `@trigger`"))?;
        let action = match action {
            "panic" => FailAction::Panic,
            "io" => FailAction::Io,
            "abort" => FailAction::Abort,
            other => return Err(format!("unknown fail-point action `{other}`")),
        };
        if trigger == "always" {
            return Ok(Self::always(site, action));
        }
        if let Some(seeded) = trigger.strip_prefix("seed:") {
            let (seed, max) = seeded
                .split_once('%')
                .ok_or_else(|| format!("seeded trigger `{trigger}` has no `%max`"))?;
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("bad seed in trigger `{trigger}`"))?;
            let max: u64 = max
                .parse()
                .map_err(|_| format!("bad max in trigger `{trigger}`"))?;
            return Ok(Self::seeded(site, action, seed, max));
        }
        let (from, count) = match trigger.split_once('+') {
            Some((from, count)) => (
                from.parse::<u64>()
                    .map_err(|_| format!("bad hit number in trigger `{trigger}`"))?,
                count
                    .parse::<u64>()
                    .map_err(|_| format!("bad hit count in trigger `{trigger}`"))?,
            ),
            None => (
                trigger
                    .parse::<u64>()
                    .map_err(|_| format!("bad trigger `{trigger}`"))?,
                1,
            ),
        };
        Ok(Self::window(site, action, from, count))
    }

    /// Parses a `;`-separated list of specs (the full environment syntax).
    ///
    /// # Errors
    ///
    /// Returns the first malformed spec's description.
    pub fn parse_list(list: &str) -> Result<Vec<Self>, String> {
        list.split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(Self::parse)
            .collect()
    }
}

/// SplitMix64: the seeded trigger's hit chooser and the retry backoff's
/// jitter. Deterministic, well mixed, and dependency-free.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether fail points are compiled into this build. `const`, so dynamic
/// site-name construction can be gated with `if failpoint::enabled()` and
/// folded away in production builds.
#[cfg(feature = "failpoints")]
pub const fn enabled() -> bool {
    true
}

/// Whether fail points are compiled into this build (`false`: every site
/// is a no-op).
#[cfg(not(feature = "failpoints"))]
pub const fn enabled() -> bool {
    false
}

#[cfg(feature = "failpoints")]
mod active {
    use super::{FailAction, FailSpec};
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// The environment variable arming fail points in a fresh process.
    pub const ENV_VAR: &str = "RNUCA_FAILPOINTS";

    #[derive(Debug)]
    struct Armed {
        action: FailAction,
        from: u64,
        count: u64,
        hits: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, Armed>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let mut map = HashMap::new();
            if let Ok(list) = std::env::var(ENV_VAR) {
                let specs = FailSpec::parse_list(&list)
                    .unwrap_or_else(|e| panic!("malformed {ENV_VAR}: {e}"));
                for spec in specs {
                    insert(&mut map, &spec);
                }
            }
            Mutex::new(map)
        })
    }

    fn insert(map: &mut HashMap<String, Armed>, spec: &FailSpec) {
        map.insert(
            spec.site.clone(),
            Armed {
                action: spec.action,
                from: spec.from,
                count: spec.count,
                hits: 0,
            },
        );
    }

    /// Locks ignoring poison: a fail point's whole purpose is to panic, and
    /// a panicked test must not wedge every later test on a poisoned lock.
    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive use of the process-wide fail-point registry. Armed specs
    /// stay active until the guard drops; dropping disarms every site.
    #[derive(Debug)]
    pub struct FailGuard {
        _session: MutexGuard<'static, ()>,
    }

    impl Drop for FailGuard {
        fn drop(&mut self) {
            lock(registry()).clear();
        }
    }

    /// Arms `specs`, replacing any previously armed plan (including one
    /// loaded from the environment). The returned guard holds an exclusive
    /// process-wide session lock — concurrent tests serialize here — and
    /// disarms everything when dropped.
    pub fn arm(specs: &[FailSpec]) -> FailGuard {
        static SESSION: Mutex<()> = Mutex::new(());
        let session = lock(&SESSION);
        let mut map = lock(registry());
        map.clear();
        for spec in specs {
            insert(&mut map, spec);
        }
        drop(map);
        FailGuard { _session: session }
    }

    /// Records one hit of `site` and returns the action to take if the
    /// site's trigger fires on this hit.
    pub fn fire(site: &str) -> Option<FailAction> {
        let mut map = lock(registry());
        let armed = map.get_mut(site)?;
        armed.hits += 1;
        let in_window = armed.hits >= armed.from && armed.hits - armed.from < armed.count;
        in_window.then_some(armed.action)
    }

    /// Hits recorded for `site` so far (0 when the site is not armed).
    pub fn hits(site: &str) -> u64 {
        lock(registry()).get(site).map_or(0, |a| a.hits)
    }
}

#[cfg(feature = "failpoints")]
pub use active::{arm, fire, hits, FailGuard, ENV_VAR};

#[cfg(not(feature = "failpoints"))]
mod inactive {
    use super::{FailAction, FailSpec};

    /// The environment variable arming fail points (ignored in this build:
    /// the `failpoints` feature is disabled).
    pub const ENV_VAR: &str = "RNUCA_FAILPOINTS";

    /// Disarm-on-drop guard (inert in this build).
    #[derive(Debug)]
    pub struct FailGuard;

    /// Arms nothing: the `failpoints` feature is disabled.
    pub fn arm(_specs: &[FailSpec]) -> FailGuard {
        FailGuard
    }

    /// Always `None`: the `failpoints` feature is disabled.
    #[inline(always)]
    pub fn fire(_site: &str) -> Option<FailAction> {
        None
    }

    /// Always 0: the `failpoints` feature is disabled.
    #[inline(always)]
    pub fn hits(_site: &str) -> u64 {
        0
    }
}

#[cfg(not(feature = "failpoints"))]
pub use inactive::{arm, fire, hits, FailGuard, ENV_VAR};

/// Aborts the process at a fired [`FailAction::Abort`] site, announcing
/// the site on stderr first so the chaos harness can confirm *which*
/// injected kill landed.
fn abort_at(site: &str) -> ! {
    eprintln!("fail point `{site}` triggered (injected abort)");
    std::process::abort()
}

/// A site that can only fail by panicking. Panics with a message naming
/// `site` when the site's armed trigger fires ([`FailAction::Io`] counts
/// as a panic here; [`FailAction::Abort`] aborts the process); a no-op
/// otherwise and in builds without the `failpoints` feature.
#[inline(always)]
pub fn panic_point(site: &str) {
    match fire(site) {
        None => {}
        Some(FailAction::Abort) => abort_at(site),
        Some(_) => panic!("fail point `{site}` triggered (injected)"),
    }
}

/// A site on an I/O path. When the armed trigger fires with
/// [`FailAction::Io`], returns an injected [`std::io::Error`] naming the
/// site; with [`FailAction::Panic`], panics; with [`FailAction::Abort`],
/// aborts the process. A no-op `Ok(())` otherwise and in builds without
/// the `failpoints` feature.
///
/// # Errors
///
/// Only the injected error described above.
#[inline(always)]
pub fn io_point(site: &str) -> std::io::Result<()> {
    match fire(site) {
        None => Ok(()),
        Some(FailAction::Io) => Err(std::io::Error::other(format!(
            "fail point `{site}` triggered (injected i/o error)"
        ))),
        Some(FailAction::Panic) => panic!("fail point `{site}` triggered (injected)"),
        Some(FailAction::Abort) => abort_at(site),
    }
}

/// True when `site`'s armed trigger fires on this hit — for sites whose
/// failure mode is bespoke (e.g. "write only half the bytes"). An armed
/// [`FailAction::Abort`] aborts the process instead of returning. Always
/// false without the `failpoints` feature.
#[inline(always)]
pub fn triggered(site: &str) -> bool {
    match fire(site) {
        None => false,
        Some(FailAction::Abort) => abort_at(site),
        Some(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_covers_the_grammar() {
        assert_eq!(
            FailSpec::parse("a::b=panic@3").unwrap(),
            FailSpec::nth("a::b", FailAction::Panic, 3)
        );
        assert_eq!(
            FailSpec::parse("x=io@2+5").unwrap(),
            FailSpec::window("x", FailAction::Io, 2, 5)
        );
        assert_eq!(
            FailSpec::parse("x=panic@always").unwrap(),
            FailSpec::always("x", FailAction::Panic)
        );
        assert_eq!(
            FailSpec::parse("x=abort@2").unwrap(),
            FailSpec::nth("x", FailAction::Abort, 2)
        );
        assert_eq!(FailAction::Abort.to_string(), "abort");
        let seeded = FailSpec::parse("x=panic@seed:42%10").unwrap();
        assert_eq!(seeded, FailSpec::seeded("x", FailAction::Panic, 42, 10));
        assert!((1..=10).contains(&seeded.from));
        // A site name may itself contain spaces and colons.
        let spec = FailSpec::parse("sim::member::OLTP DB2::shared::16c=panic@1").unwrap();
        assert_eq!(spec.site, "sim::member::OLTP DB2::shared::16c");

        for bad in ["", "x", "x=panic", "x=frob@1", "x=panic@z", "x=io@seed:1"] {
            assert!(FailSpec::parse(bad).is_err(), "`{bad}` must not parse");
        }
        let list = FailSpec::parse_list("a=panic@1; b=io@2;").unwrap();
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn seeded_triggers_are_deterministic_and_in_range() {
        for seed in 0..50 {
            let a = FailSpec::seeded("s", FailAction::Panic, seed, 24);
            let b = FailSpec::seeded("s", FailAction::Panic, seed, 24);
            assert_eq!(a, b, "same seed must choose the same hit");
            assert!((1..=24).contains(&a.from));
        }
        // Different seeds spread over the range rather than collapsing.
        let distinct: std::collections::HashSet<u64> = (0..50)
            .map(|seed| FailSpec::seeded("s", FailAction::Panic, seed, 24).from)
            .collect();
        assert!(distinct.len() > 10, "seeded hits are well spread");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn armed_sites_fire_on_their_window_and_disarm_on_drop() {
        {
            let _guard = arm(&[
                FailSpec::nth("t::third", FailAction::Panic, 3),
                FailSpec::window("t::pair", FailAction::Io, 2, 2),
            ]);
            assert_eq!(fire("t::third"), None);
            assert_eq!(fire("t::third"), None);
            assert_eq!(fire("t::third"), Some(FailAction::Panic));
            assert_eq!(fire("t::third"), None, "Nth fires exactly once");
            assert_eq!(hits("t::third"), 4);

            assert_eq!(fire("t::pair"), None);
            assert_eq!(fire("t::pair"), Some(FailAction::Io));
            assert_eq!(fire("t::pair"), Some(FailAction::Io));
            assert_eq!(fire("t::pair"), None);

            assert_eq!(fire("t::unarmed"), None);
        }
        assert_eq!(fire("t::third"), None, "dropping the guard disarms");
        assert_eq!(hits("t::third"), 0);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn io_point_injects_errors_and_panic_point_panics() {
        let _guard = arm(&[
            FailSpec::nth("t::io", FailAction::Io, 1),
            FailSpec::nth("t::boom", FailAction::Panic, 1),
        ]);
        let err = io_point("t::io").expect_err("armed io site must fail");
        assert!(err.to_string().contains("t::io"));
        assert!(io_point("t::io").is_ok(), "one-shot trigger");
        let panic = std::panic::catch_unwind(|| panic_point("t::boom"))
            .expect_err("armed panic site must panic");
        let msg = panic.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("fail point `t::boom` triggered"));
        assert!(!triggered("t::unarmed"));
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn disabled_build_is_inert() {
        assert!(!enabled());
        let _guard = arm(&[FailSpec::always("t::x", FailAction::Panic)]);
        assert_eq!(fire("t::x"), None);
        panic_point("t::x");
        assert!(io_point("t::x").is_ok());
        assert!(!triggered("t::x"));
    }
}
