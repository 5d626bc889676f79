//! Trace characterization: recomputes the paper's Figures 2-5 from a trace.
//!
//! * [`ClassBreakdown`] — Figure 3: distribution of L2 references over
//!   instructions, private data, shared read-write data and shared read-only
//!   data.
//! * [`SharerProfile`] — Figure 2: for each (class, number-of-sharers) bubble,
//!   the fraction of L2 accesses it represents and the fraction of its blocks
//!   that are read-write.
//! * [`WorkingSetCdf`] — Figure 4: cumulative fraction of references captured
//!   by a given per-class footprint.
//! * [`ReuseHistogram`] — Figure 5: how many consecutive times one core
//!   re-uses an instruction (resp. shared-data) block before another core
//!   intervenes (resp. writes).

use rnuca_types::access::{AccessClass, MemoryAccess};
use std::collections::{HashMap, HashSet};

/// Figure 3: breakdown of L2 references by access class.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassBreakdown {
    /// Fraction of references that are instruction fetches.
    pub instructions: f64,
    /// Fraction of references to private data.
    pub private_data: f64,
    /// Fraction of references to shared blocks that see at least one write.
    pub shared_read_write: f64,
    /// Fraction of references to shared blocks that are never written.
    pub shared_read_only: f64,
}

impl ClassBreakdown {
    /// Sum of the four fractions (should be ~1 for a non-empty trace).
    pub fn total(&self) -> f64 {
        self.instructions + self.private_data + self.shared_read_write + self.shared_read_only
    }
}

/// One bubble of Figure 2: blocks of a class with a given number of sharers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharerBubble {
    /// Access class of the bubble.
    pub class: AccessClass,
    /// Number of distinct cores that touched the blocks in this bubble.
    pub sharers: usize,
    /// Fraction of all L2 accesses going to blocks in this bubble (bubble diameter).
    pub access_fraction: f64,
    /// Fraction of the bubble's blocks that saw at least one write (y-axis).
    pub read_write_fraction: f64,
    /// Number of distinct blocks in the bubble.
    pub blocks: usize,
}

/// Figure 2: the full set of sharer bubbles for a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SharerProfile {
    /// All non-empty bubbles, ordered by class then sharer count.
    pub bubbles: Vec<SharerBubble>,
}

impl SharerProfile {
    /// The bubble for a given class and sharer count, if present.
    pub fn bubble(&self, class: AccessClass, sharers: usize) -> Option<&SharerBubble> {
        self.bubbles
            .iter()
            .find(|b| b.class == class && b.sharers == sharers)
    }

    /// Access-weighted average sharer count for a class.
    pub fn mean_sharers(&self, class: AccessClass) -> f64 {
        let mut weight = 0.0;
        let mut total = 0.0;
        for b in self.bubbles.iter().filter(|b| b.class == class) {
            weight += b.access_fraction * b.sharers as f64;
            total += b.access_fraction;
        }
        if total == 0.0 {
            0.0
        } else {
            weight / total
        }
    }
}

/// Figure 4: cumulative distribution of references over a class's footprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkingSetCdf {
    /// `(footprint_kb, cumulative_fraction)` points, sorted by footprint, for
    /// blocks ordered from most- to least-referenced.
    pub points: Vec<(f64, f64)>,
}

impl WorkingSetCdf {
    /// The cumulative fraction of references captured by the hottest `kb` kilobytes.
    pub fn fraction_at_kb(&self, kb: f64) -> f64 {
        let mut last = 0.0;
        for &(x, y) in &self.points {
            if x > kb {
                return last;
            }
            last = y;
        }
        last
    }

    /// The footprint (KB) needed to capture a cumulative fraction `f` of references.
    pub fn kb_at_fraction(&self, f: f64) -> f64 {
        for &(x, y) in &self.points {
            if y >= f {
                return x;
            }
        }
        self.points.last().map(|&(x, _)| x).unwrap_or(0.0)
    }
}

/// Figure 5: reuse-run histogram (1st, 2nd, 3rd-4th, 5th-8th, 9+ accesses).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReuseHistogram {
    /// Accesses that start a run (first touch by this core since interference).
    pub first: u64,
    /// Second access of a run.
    pub second: u64,
    /// Third or fourth access of a run.
    pub third_fourth: u64,
    /// Fifth through eighth access of a run.
    pub fifth_eighth: u64,
    /// Ninth or later access of a run.
    pub ninth_plus: u64,
}

impl ReuseHistogram {
    fn record(&mut self, run_length: u64) {
        match run_length {
            0 => {}
            1 => self.first += 1,
            2 => self.second += 1,
            3 | 4 => self.third_fourth += 1,
            5..=8 => self.fifth_eighth += 1,
            _ => self.ninth_plus += 1,
        }
    }

    /// Total accesses recorded.
    pub fn total(&self) -> u64 {
        self.first + self.second + self.third_fourth + self.fifth_eighth + self.ninth_plus
    }

    /// Fraction of accesses that are re-uses (anything beyond the first access of a run).
    pub fn reuse_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.total() - self.first) as f64 / self.total() as f64
        }
    }

    /// The five bucket fractions in figure order (1st, 2nd, 3rd-4th, 5th-8th, 9+).
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total().max(1) as f64;
        [
            self.first as f64 / t,
            self.second as f64 / t,
            self.third_fourth as f64 / t,
            self.fifth_eighth as f64 / t,
            self.ninth_plus as f64 / t,
        ]
    }
}

/// The complete characterization of a trace (Figures 2-5 for one workload).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceCharacterization {
    /// Figure 3 data.
    pub breakdown: ClassBreakdown,
    /// Figure 2 data.
    pub sharers: SharerProfile,
    /// Figure 4, private data.
    pub private_cdf: WorkingSetCdf,
    /// Figure 4, instructions.
    pub instr_cdf: WorkingSetCdf,
    /// Figure 4, shared data.
    pub shared_cdf: WorkingSetCdf,
    /// Figure 5, instruction reuse by the same core between interventions by other cores.
    pub instr_reuse: ReuseHistogram,
    /// Figure 5, shared-data reuse by the same core between writes by other cores.
    pub shared_reuse: ReuseHistogram,
    /// Number of accesses analyzed.
    pub accesses: u64,
}

impl TraceCharacterization {
    /// Analyzes a trace. `block_bytes` is the cache-block size used to group addresses.
    pub fn analyze(trace: &[MemoryAccess], block_bytes: usize) -> Self {
        let mut per_block: HashMap<(AccessClass, u64), BlockRecord> = HashMap::new();
        let mut instr_reuse = ReuseHistogram::default();
        let mut shared_reuse = ReuseHistogram::default();
        // Reuse-run state.
        let mut instr_runs: HashMap<u64, (usize, u64)> = HashMap::new(); // block -> (core, run len)
        let mut shared_runs: HashMap<u64, HashMap<usize, u64>> = HashMap::new(); // block -> core -> count

        for a in trace {
            let block = a.addr.block(block_bytes).block_number();
            let rec = per_block.entry((a.class, block)).or_default();
            rec.accesses += 1;
            rec.sharers.insert(a.core.index());
            if a.kind.is_write() {
                rec.written = true;
            }

            match a.class {
                AccessClass::Instruction => {
                    let entry = instr_runs.entry(block).or_insert((a.core.index(), 0));
                    if entry.0 == a.core.index() {
                        entry.1 += 1;
                    } else {
                        *entry = (a.core.index(), 1);
                    }
                    instr_reuse.record(entry.1);
                }
                AccessClass::SharedData => {
                    let counts = shared_runs.entry(block).or_default();
                    let c = counts.entry(a.core.index()).or_insert(0);
                    *c += 1;
                    shared_reuse.record(*c);
                    if a.kind.is_write() {
                        let writer = a.core.index();
                        counts.retain(|&core, _| core == writer);
                    }
                }
                AccessClass::PrivateData => {}
            }
        }

        let total = trace.len() as f64;
        let mut breakdown = ClassBreakdown::default();
        for ((class, _), rec) in &per_block {
            let frac = rec.accesses as f64 / total.max(1.0);
            match class {
                AccessClass::Instruction => breakdown.instructions += frac,
                AccessClass::PrivateData => breakdown.private_data += frac,
                AccessClass::SharedData => {
                    if rec.written {
                        breakdown.shared_read_write += frac;
                    } else {
                        breakdown.shared_read_only += frac;
                    }
                }
            }
        }

        let sharers = Self::sharer_profile(&per_block, total);
        let private_cdf = Self::cdf_for(&per_block, AccessClass::PrivateData, block_bytes);
        let instr_cdf = Self::cdf_for(&per_block, AccessClass::Instruction, block_bytes);
        let shared_cdf = Self::cdf_for(&per_block, AccessClass::SharedData, block_bytes);

        TraceCharacterization {
            breakdown,
            sharers,
            private_cdf,
            instr_cdf,
            shared_cdf,
            instr_reuse,
            shared_reuse,
            accesses: trace.len() as u64,
        }
    }

    fn sharer_profile(
        per_block: &HashMap<(AccessClass, u64), BlockRecord>,
        total_accesses: f64,
    ) -> SharerProfile {
        // (class, sharer count) -> (accesses, blocks, rw blocks)
        let mut agg: HashMap<(AccessClass, usize), (u64, usize, usize)> = HashMap::new();
        for ((class, _), rec) in per_block {
            let e = agg.entry((*class, rec.sharers.len())).or_insert((0, 0, 0));
            e.0 += rec.accesses;
            e.1 += 1;
            if rec.written {
                e.2 += 1;
            }
        }
        let mut bubbles: Vec<SharerBubble> = agg
            .into_iter()
            .map(
                |((class, sharers), (accesses, blocks, rw_blocks))| SharerBubble {
                    class,
                    sharers,
                    access_fraction: accesses as f64 / total_accesses.max(1.0),
                    read_write_fraction: rw_blocks as f64 / blocks.max(1) as f64,
                    blocks,
                },
            )
            .collect();
        bubbles.sort_by_key(|a| (a.class, a.sharers));
        SharerProfile { bubbles }
    }

    fn cdf_for(
        per_block: &HashMap<(AccessClass, u64), BlockRecord>,
        class: AccessClass,
        block_bytes: usize,
    ) -> WorkingSetCdf {
        let mut counts: Vec<u64> = per_block
            .iter()
            .filter(|((c, _), _)| *c == class)
            .map(|(_, rec)| rec.accesses)
            .collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let class_total: u64 = counts.iter().sum();
        if class_total == 0 {
            return WorkingSetCdf::default();
        }
        let mut points = Vec::with_capacity(counts.len().min(4096) + 1);
        let mut cumulative = 0u64;
        let stride = (counts.len() / 2048).max(1);
        for (i, c) in counts.iter().enumerate() {
            cumulative += c;
            if i % stride == 0 || i + 1 == counts.len() {
                let kb = (i as f64 + 1.0) * block_bytes as f64 / 1024.0;
                points.push((kb, cumulative as f64 / class_total as f64));
            }
        }
        WorkingSetCdf { points }
    }
}

#[derive(Debug, Clone, Default)]
struct BlockRecord {
    accesses: u64,
    sharers: HashSet<usize>,
    written: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnuca_types::access::AccessKind;
    use rnuca_types::addr::PhysAddr;
    use rnuca_types::ids::CoreId;

    fn acc(core: usize, addr: u64, kind: AccessKind, class: AccessClass) -> MemoryAccess {
        MemoryAccess::new(CoreId::new(core), PhysAddr::new(addr), kind, class)
    }

    #[test]
    fn breakdown_splits_shared_by_write_behaviour() {
        let trace = vec![
            acc(0, 0x1000, AccessKind::InstrFetch, AccessClass::Instruction),
            acc(0, 0x2000, AccessKind::Read, AccessClass::PrivateData),
            acc(0, 0x3000, AccessKind::Read, AccessClass::SharedData), // read-only block
            acc(1, 0x4000, AccessKind::Write, AccessClass::SharedData), // read-write block
        ];
        let c = TraceCharacterization::analyze(&trace, 64);
        assert!((c.breakdown.instructions - 0.25).abs() < 1e-9);
        assert!((c.breakdown.private_data - 0.25).abs() < 1e-9);
        assert!((c.breakdown.shared_read_only - 0.25).abs() < 1e-9);
        assert!((c.breakdown.shared_read_write - 0.25).abs() < 1e-9);
        assert!((c.breakdown.total() - 1.0).abs() < 1e-9);
        assert_eq!(c.accesses, 4);
    }

    #[test]
    fn sharer_profile_counts_distinct_cores() {
        // One instruction block touched by 3 cores, one private block by 1 core.
        let trace = vec![
            acc(0, 0x1000, AccessKind::InstrFetch, AccessClass::Instruction),
            acc(1, 0x1000, AccessKind::InstrFetch, AccessClass::Instruction),
            acc(2, 0x1000, AccessKind::InstrFetch, AccessClass::Instruction),
            acc(3, 0x2000, AccessKind::Write, AccessClass::PrivateData),
        ];
        let c = TraceCharacterization::analyze(&trace, 64);
        let b = c
            .sharers
            .bubble(AccessClass::Instruction, 3)
            .expect("3-sharer instruction bubble");
        assert_eq!(b.blocks, 1);
        assert!((b.access_fraction - 0.75).abs() < 1e-9);
        assert_eq!(b.read_write_fraction, 0.0);
        let p = c.sharers.bubble(AccessClass::PrivateData, 1).unwrap();
        assert_eq!(p.read_write_fraction, 1.0);
        assert!((c.sharers.mean_sharers(AccessClass::Instruction) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn instruction_reuse_runs_reset_on_intervention() {
        // Core 0 touches the block twice, core 1 intervenes, core 0 touches again.
        let trace = vec![
            acc(0, 0x1000, AccessKind::InstrFetch, AccessClass::Instruction),
            acc(0, 0x1000, AccessKind::InstrFetch, AccessClass::Instruction),
            acc(1, 0x1000, AccessKind::InstrFetch, AccessClass::Instruction),
            acc(0, 0x1000, AccessKind::InstrFetch, AccessClass::Instruction),
        ];
        let c = TraceCharacterization::analyze(&trace, 64);
        assert_eq!(
            c.instr_reuse.first, 3,
            "two run starts by core 0 plus one by core 1"
        );
        assert_eq!(c.instr_reuse.second, 1);
        assert_eq!(c.instr_reuse.total(), 4);
        assert!((c.instr_reuse.reuse_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn shared_reuse_resets_on_other_cores_write() {
        let b = 0x5000;
        let trace = vec![
            acc(0, b, AccessKind::Read, AccessClass::SharedData), // core 0: 1st
            acc(0, b, AccessKind::Read, AccessClass::SharedData), // core 0: 2nd
            acc(1, b, AccessKind::Write, AccessClass::SharedData), // core 1: 1st, resets core 0
            acc(0, b, AccessKind::Read, AccessClass::SharedData), // core 0: 1st again
        ];
        let c = TraceCharacterization::analyze(&trace, 64);
        assert_eq!(c.shared_reuse.first, 3);
        assert_eq!(c.shared_reuse.second, 1);
    }

    #[test]
    fn cdf_is_monotonic_and_reaches_one() {
        let mut trace = Vec::new();
        // Block 0 is hot (10 accesses), blocks 1..10 are cold (1 access each).
        for _ in 0..10 {
            trace.push(acc(0, 0x10000, AccessKind::Read, AccessClass::PrivateData));
        }
        for i in 1..=10u64 {
            trace.push(acc(
                0,
                0x10000 + i * 64,
                AccessKind::Read,
                AccessClass::PrivateData,
            ));
        }
        let c = TraceCharacterization::analyze(&trace, 64);
        let cdf = &c.private_cdf;
        assert!(!cdf.points.is_empty());
        for w in cdf.points.windows(2) {
            assert!(
                w[1].0 >= w[0].0 && w[1].1 >= w[0].1,
                "CDF must be monotonic"
            );
        }
        let last = cdf.points.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-9, "CDF must reach 1.0");
        // The hottest single block (64 B) captures half the accesses.
        assert!((cdf.fraction_at_kb(0.0625) - 0.5).abs() < 1e-9);
        assert!(cdf.kb_at_fraction(1.0) >= 0.6);
    }

    #[test]
    fn empty_trace_yields_empty_characterization() {
        let c = TraceCharacterization::analyze(&[], 64);
        assert_eq!(c.accesses, 0);
        assert_eq!(c.breakdown.total(), 0.0);
        assert!(c.sharers.bubbles.is_empty());
        assert!(c.private_cdf.points.is_empty());
        assert_eq!(c.instr_reuse.total(), 0);
    }

    #[test]
    fn reuse_histogram_bucket_boundaries() {
        let mut h = ReuseHistogram::default();
        for len in 1..=12u64 {
            h.record(len);
        }
        assert_eq!(h.first, 1);
        assert_eq!(h.second, 1);
        assert_eq!(h.third_fourth, 2);
        assert_eq!(h.fifth_eighth, 4);
        assert_eq!(h.ninth_plus, 4);
        let fr = h.fractions();
        assert!((fr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
