//! Submission specs: the `submit` verb's payload and the spool's on-disk
//! record of a submission.
//!
//! A spec is one `|`-separated line of `key=value` fields describing a
//! [`ScenarioMatrix`] plus the retry policy supervising it:
//!
//! ```text
//! v1|config=smoke|seed=-|workloads=oltp-db2,mix|designs=S,R|cores=16,32
//!   |slices=|clusters=|retries=1|deadline_ms=0
//! ```
//!
//! The encoding is *canonical* — [`SubmitSpec::encode`] always emits every
//! field in this order — so the same line doubles as the spool's spec file
//! and as input to the submission id (which is the matrix fingerprint over
//! its jobs' keys, making resubmission of an identical spec idempotent).

use rnuca_sim::{AsrPolicy, ExperimentConfig, LlcDesign, ScenarioMatrix};
use rnuca_types::retry::{BackoffConfig, RetryPolicy};
use rnuca_workloads::WorkloadSpec;
use std::time::Duration;

/// A parsed submission: the matrix axes plus the supervision policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitSpec {
    /// Run-length preset: `smoke`, `quick`, or `full`.
    pub config: String,
    /// Trace seed override (`None` keeps the preset's seed).
    pub seed: Option<u64>,
    /// Workload slugs (see [`workload_by_slug`]); empty means the full
    /// evaluation suite.
    pub workloads: Vec<String>,
    /// Design letters (`P`/`A`/`S`/`R`/`I`); empty means shared + R-NUCA.
    pub designs: Vec<String>,
    /// Core counts to sweep (empty: each workload's preset count).
    pub core_counts: Vec<usize>,
    /// L2 slice capacities in KB to sweep (empty: preset capacity).
    pub slice_kb: Vec<usize>,
    /// R-NUCA instruction-cluster sizes to sweep (empty: the default).
    pub clusters: Vec<usize>,
    /// Solo retries per quarantined member.
    pub retries: u32,
    /// Per-attempt wall-clock deadline in milliseconds (0 = unbounded).
    pub deadline_ms: u64,
}

impl Default for SubmitSpec {
    fn default() -> Self {
        SubmitSpec {
            config: "smoke".to_string(),
            seed: None,
            workloads: Vec::new(),
            designs: Vec::new(),
            core_counts: Vec::new(),
            slice_kb: Vec::new(),
            clusters: Vec::new(),
            retries: 1,
            deadline_ms: 0,
        }
    }
}

/// Resolves a workload slug to its preset spec.
///
/// Slugs are the preset names lower-cased with spaces as dashes:
/// `oltp-db2`, `oltp-oracle`, `apache`, `dss-qry6`, `dss-qry8`,
/// `dss-qry13`, `em3d`, `mix`.
pub fn workload_by_slug(slug: &str) -> Option<WorkloadSpec> {
    match slug {
        "oltp-db2" => Some(WorkloadSpec::oltp_db2()),
        "oltp-oracle" => Some(WorkloadSpec::oltp_oracle()),
        "apache" => Some(WorkloadSpec::apache()),
        "dss-qry6" => Some(WorkloadSpec::dss_qry6()),
        "dss-qry8" => Some(WorkloadSpec::dss_qry8()),
        "dss-qry13" => Some(WorkloadSpec::dss_qry13()),
        "em3d" => Some(WorkloadSpec::em3d()),
        "mix" => Some(WorkloadSpec::mix()),
        _ => None,
    }
}

/// Resolves a design letter to its design (the paper's P/A/S/R/I).
pub fn design_by_letter(letter: &str) -> Option<LlcDesign> {
    match letter {
        "P" => Some(LlcDesign::Private),
        "A" => Some(LlcDesign::Asr {
            policy: AsrPolicy::Adaptive,
        }),
        "S" => Some(LlcDesign::Shared),
        "R" => Some(LlcDesign::rnuca_default()),
        "I" => Some(LlcDesign::Ideal),
        _ => None,
    }
}

fn parse_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn parse_usize_list(key: &str, value: &str) -> Result<Vec<usize>, String> {
    parse_list(value)
        .iter()
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| format!("{key}: `{v}` is not a number"))
        })
        .collect()
}

fn join<T: ToString>(values: &[T]) -> String {
    values
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

impl SubmitSpec {
    /// The canonical spec line (every field, fixed order).
    pub fn encode(&self) -> String {
        format!(
            "v1|config={}|seed={}|workloads={}|designs={}|cores={}|slices={}|clusters={}\
             |retries={}|deadline_ms={}",
            self.config,
            self.seed.map_or("-".to_string(), |s| s.to_string()),
            self.workloads.join(","),
            self.designs.join(","),
            join(&self.core_counts),
            join(&self.slice_kb),
            join(&self.clusters),
            self.retries,
            self.deadline_ms,
        )
    }

    /// Parses a spec line (the inverse of [`SubmitSpec::encode`]; unknown
    /// keys are rejected so typos fail loudly instead of silently running a
    /// different sweep).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field.
    pub fn parse(line: &str) -> Result<SubmitSpec, String> {
        let mut fields = line.trim().split('|');
        match fields.next() {
            Some("v1") => {}
            Some(other) => return Err(format!("unknown spec version `{other}` (expected v1)")),
            None => return Err("empty spec".to_string()),
        }
        let mut spec = SubmitSpec {
            retries: 0,
            ..SubmitSpec::default()
        };
        for field in fields {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("malformed field `{field}` (expected key=value)"))?;
            match key {
                "config" => spec.config = value.to_string(),
                "seed" if value == "-" => spec.seed = None,
                "seed" => {
                    spec.seed = Some(
                        value
                            .parse()
                            .map_err(|_| format!("seed: `{value}` is not a number"))?,
                    )
                }
                "workloads" => spec.workloads = parse_list(value),
                "designs" => spec.designs = parse_list(value),
                "cores" => spec.core_counts = parse_usize_list(key, value)?,
                "slices" => spec.slice_kb = parse_usize_list(key, value)?,
                "clusters" => spec.clusters = parse_usize_list(key, value)?,
                "retries" => {
                    spec.retries = value
                        .parse()
                        .map_err(|_| format!("retries: `{value}` is not a number"))?
                }
                "deadline_ms" => {
                    spec.deadline_ms = value
                        .parse()
                        .map_err(|_| format!("deadline_ms: `{value}` is not a number"))?
                }
                other => return Err(format!("unknown spec field `{other}`")),
            }
        }
        Ok(spec)
    }

    /// Builds the scenario matrix this spec describes.
    ///
    /// # Errors
    ///
    /// An unknown config label, workload slug, or design letter.
    pub fn to_matrix(&self) -> Result<ScenarioMatrix, String> {
        let mut cfg = match self.config.as_str() {
            "smoke" => ExperimentConfig::smoke(),
            "quick" => ExperimentConfig::quick(),
            "full" => ExperimentConfig::full(),
            other => return Err(format!("unknown config `{other}` (smoke/quick/full)")),
        };
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        let mut matrix = ScenarioMatrix::new(cfg);
        matrix.workloads = if self.workloads.is_empty() {
            WorkloadSpec::evaluation_suite()
        } else {
            self.workloads
                .iter()
                .map(|slug| {
                    workload_by_slug(slug).ok_or_else(|| format!("unknown workload `{slug}`"))
                })
                .collect::<Result<_, _>>()?
        };
        matrix.designs = if self.designs.is_empty() {
            vec![LlcDesign::Shared, LlcDesign::rnuca_default()]
        } else {
            self.designs
                .iter()
                .map(|l| design_by_letter(l).ok_or_else(|| format!("unknown design `{l}`")))
                .collect::<Result<_, _>>()?
        };
        matrix.core_counts = self.core_counts.clone();
        matrix.slice_capacities_kb = self.slice_kb.clone();
        matrix.cluster_sizes = self.clusters.clone();
        Ok(matrix)
    }

    /// The retry policy supervising this submission's solo re-runs:
    /// `retries` extra attempts, the service's seeded backoff, and the
    /// spec's per-attempt deadline when one is set.
    pub fn policy(&self) -> RetryPolicy {
        let policy =
            RetryPolicy::immediate(self.retries).with_backoff(BackoffConfig::default_service());
        match self.deadline_ms {
            0 => policy,
            ms => policy.with_deadline(Duration::from_millis(ms)),
        }
    }

    /// The submission id: the matrix fingerprint, rendered. Specs whose
    /// matrices flatten to the same jobs (same [`JobKey`]s, in order) share
    /// an id, so resubmitting a sweep that is already queued or running is
    /// a no-op rather than a duplicate.
    ///
    /// [`JobKey`]: rnuca_sim::JobKey
    ///
    /// # Errors
    ///
    /// Same as [`SubmitSpec::to_matrix`].
    pub fn submission_id(&self) -> Result<String, String> {
        let fingerprint = self.to_matrix()?.fingerprint().map_err(|e| e.to_string())?;
        Ok(format!("s{fingerprint:016x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_parse_roundtrips_and_is_canonical() {
        let spec = SubmitSpec {
            config: "quick".to_string(),
            seed: Some(7),
            workloads: vec!["oltp-db2".to_string(), "mix".to_string()],
            designs: vec!["S".to_string(), "R".to_string()],
            core_counts: vec![16, 32],
            slice_kb: vec![512],
            clusters: vec![2, 4],
            retries: 3,
            deadline_ms: 120_000,
        };
        let line = spec.encode();
        let parsed = SubmitSpec::parse(&line).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.encode(), line, "encode must be canonical");
    }

    #[test]
    fn defaults_parse_from_a_minimal_line() {
        let spec = SubmitSpec::parse("v1|config=smoke").unwrap();
        assert_eq!(spec.config, "smoke");
        assert!(spec.workloads.is_empty());
        assert_eq!(spec.retries, 0);
        assert_eq!(spec.deadline_ms, 0);
        assert!(spec.policy().deadline.is_none());
    }

    #[test]
    fn bad_fields_fail_loudly() {
        assert!(SubmitSpec::parse("v2|config=smoke").is_err());
        assert!(SubmitSpec::parse("v1|confg=smoke").is_err());
        assert!(SubmitSpec::parse("v1|cores=abc").is_err());
        assert!(SubmitSpec::parse("v1|seed=x").is_err());
        let spec = SubmitSpec {
            workloads: vec!["no-such-workload".to_string()],
            ..SubmitSpec::default()
        };
        assert!(spec.to_matrix().is_err());
        let spec = SubmitSpec {
            designs: vec!["Z".to_string()],
            ..SubmitSpec::default()
        };
        assert!(spec.to_matrix().is_err());
    }

    #[test]
    fn an_overflowing_slice_capacity_is_an_error_not_a_1_kib_job() {
        let matrix = SubmitSpec::parse("v1|config=smoke|slices=18014398509481985")
            .unwrap()
            .to_matrix()
            .unwrap();
        assert!(matrix.jobs().is_err());
    }

    #[test]
    fn identical_specs_share_a_submission_id() {
        let a = SubmitSpec::default();
        let b = SubmitSpec::parse(&a.encode()).unwrap();
        assert_eq!(a.submission_id().unwrap(), b.submission_id().unwrap());
        let c = SubmitSpec {
            seed: Some(99),
            ..SubmitSpec::default()
        };
        assert_ne!(a.submission_id().unwrap(), c.submission_id().unwrap());
    }

    #[test]
    fn every_letter_and_slug_resolves() {
        for l in ["P", "A", "S", "R", "I"] {
            assert!(design_by_letter(l).is_some(), "letter {l}");
        }
        for w in WorkloadSpec::evaluation_suite() {
            let slug = w.name.to_lowercase().replace(' ', "-");
            let resolved =
                workload_by_slug(&slug).unwrap_or_else(|| panic!("slug {slug} does not resolve"));
            assert_eq!(resolved.name, w.name);
        }
    }

    /// Field keys and values a generated spec line is assembled from:
    /// every real key and a bogus one, valid and invalid presets, slugs,
    /// letters and numbers (one past `u64::MAX`), separators and a
    /// multi-byte character.
    const KEYS: &[&str] = &[
        "config",
        "seed",
        "workloads",
        "designs",
        "cores",
        "slices",
        "clusters",
        "retries",
        "deadline_ms",
        "bogus",
        "",
    ];
    const VALUES: &[&str] = &[
        "smoke",
        "quick",
        "full",
        "nope",
        "-",
        "0",
        "1",
        "3",
        "16",
        "64",
        "512",
        "4096",
        "18446744073709551616",
        "oltp-db2,mix",
        "em3d",
        "S,R",
        "A,P,I",
        "X",
        ",",
        "",
        " 4 , 8 ",
        "é",
        "=",
    ];

    proptest! {
        #[test]
        fn arbitrary_spec_soup_parses_builds_and_flattens_without_panicking(
            version in 0usize..3,
            fields in proptest::collection::vec(
                (0..KEYS.len(), 0usize..3, 0..VALUES.len()),
                0..12,
            ),
        ) {
            let mut line = ["v1", "v2", ""][version].to_string();
            for &(k, sep, v) in &fields {
                line.push('|');
                line.push_str(KEYS[k]);
                line.push_str(["=", "", "=="][sep]);
                line.push_str(VALUES[v]);
            }
            for verb in ["submit", "status", "watch", "reboot", ""] {
                let _ = crate::Request::parse(&format!("{verb} {line}"));
            }
            if let Ok(spec) = SubmitSpec::parse(&line) {
                // What parses re-encodes to a line that parses back to it.
                prop_assert_eq!(SubmitSpec::parse(&spec.encode()), Ok(spec.clone()));
                if let Ok(matrix) = spec.to_matrix() {
                    let _ = matrix.jobs();
                    prop_assert!(spec.submission_id().is_ok());
                }
            }
        }
    }
}
