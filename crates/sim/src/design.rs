//! The LLC designs under comparison (Section 5.1 of the paper).

use std::fmt;

/// ASR's policy for allocating clean shared blocks in the local L2 slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AsrPolicy {
    /// Allocate locally with a fixed probability (the paper's five static versions).
    Static(f64),
    /// Adapt the allocation probability at run time based on whether local
    /// replication has been paying off (the paper's adaptive version).
    Adaptive,
}

impl AsrPolicy {
    /// The five static probabilities evaluated in the paper plus the adaptive version.
    pub fn all_versions() -> Vec<AsrPolicy> {
        vec![
            AsrPolicy::Static(0.0),
            AsrPolicy::Static(0.25),
            AsrPolicy::Static(0.5),
            AsrPolicy::Static(0.75),
            AsrPolicy::Static(1.0),
            AsrPolicy::Adaptive,
        ]
    }
}

impl fmt::Display for AsrPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsrPolicy::Static(p) => write!(f, "static p={p}"),
            AsrPolicy::Adaptive => f.write_str("adaptive"),
        }
    }
}

/// One of the last-level-cache organisations compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LlcDesign {
    /// Each tile's slice is a private L2; a full-map directory keeps slices coherent.
    Private,
    /// Private organisation plus ASR's selective replication of clean shared blocks.
    Asr {
        /// The allocation policy in use.
        policy: AsrPolicy,
    },
    /// Address-interleaved shared L2: one fixed location per block.
    Shared,
    /// Reactive NUCA with the given instruction-cluster size (4 in the paper's configuration).
    RNuca {
        /// Size of the fixed-center instruction cluster (power of two).
        instr_cluster_size: usize,
    },
    /// Idealised design: aggregate capacity at local-slice latency, no network.
    Ideal,
}

impl LlcDesign {
    /// The paper's default R-NUCA configuration (size-4 instruction clusters).
    pub fn rnuca_default() -> Self {
        LlcDesign::RNuca {
            instr_cluster_size: 4,
        }
    }

    /// The four real designs of Figure 7 (P, A, S, R) in the paper's order.
    pub fn evaluation_set() -> Vec<LlcDesign> {
        vec![
            LlcDesign::Private,
            LlcDesign::Asr {
                policy: AsrPolicy::Adaptive,
            },
            LlcDesign::Shared,
            LlcDesign::rnuca_default(),
        ]
    }

    /// The designs of Figure 12 (P, A, S, R plus the Ideal bound).
    pub fn speedup_set() -> Vec<LlcDesign> {
        let mut v = Self::evaluation_set();
        v.push(LlcDesign::Ideal);
        v
    }

    /// Single-letter label used in the paper's figures (P, A, S, R, I).
    pub fn letter(&self) -> &'static str {
        match self {
            LlcDesign::Private => "P",
            LlcDesign::Asr { .. } => "A",
            LlcDesign::Shared => "S",
            LlcDesign::RNuca { .. } => "R",
            LlcDesign::Ideal => "I",
        }
    }
}

impl fmt::Display for LlcDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlcDesign::Private => f.write_str("private"),
            LlcDesign::Asr { policy } => write!(f, "ASR ({policy})"),
            LlcDesign::Shared => f.write_str("shared"),
            LlcDesign::RNuca { instr_cluster_size } => {
                write!(f, "R-NUCA (size-{instr_cluster_size} instruction clusters)")
            }
            LlcDesign::Ideal => f.write_str("ideal"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_set_is_pasr_order() {
        let set = LlcDesign::evaluation_set();
        let letters: Vec<_> = set.iter().map(LlcDesign::letter).collect();
        assert_eq!(letters, vec!["P", "A", "S", "R"]);
        let speedup: Vec<_> = LlcDesign::speedup_set()
            .iter()
            .map(LlcDesign::letter)
            .collect();
        assert_eq!(speedup, vec!["P", "A", "S", "R", "I"]);
    }

    #[test]
    fn asr_versions_cover_the_paper() {
        let versions = AsrPolicy::all_versions();
        assert_eq!(versions.len(), 6);
        assert!(versions.contains(&AsrPolicy::Static(0.0)));
        assert!(versions.contains(&AsrPolicy::Adaptive));
    }

    #[test]
    fn display_strings() {
        assert_eq!(LlcDesign::Private.to_string(), "private");
        assert_eq!(
            LlcDesign::rnuca_default().to_string(),
            "R-NUCA (size-4 instruction clusters)"
        );
        assert_eq!(AsrPolicy::Static(0.25).to_string(), "static p=0.25");
        assert!(LlcDesign::Asr {
            policy: AsrPolicy::Adaptive
        }
        .to_string()
        .contains("adaptive"));
    }
}
