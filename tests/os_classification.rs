//! Integration tests of the OS classification layer driven by real workload traces.

use proptest::prelude::*;
use rnuca_os::{ClassificationEvent, OsClassifier, PageClass};
use rnuca_types::access::AccessClass;
use rnuca_types::addr::PageAddr;
use rnuca_types::ids::CoreId;
use rnuca_workloads::{TraceGenerator, WorkloadSpec};
use std::collections::HashSet;

/// Drives the OS classifier with a generated OLTP trace and checks that pages
/// converge to their ground-truth classes.
#[test]
fn classifier_converges_to_ground_truth_on_oltp() {
    let spec = WorkloadSpec::oltp_db2();
    let mut gen = TraceGenerator::new(&spec, 3);
    let mut os = OsClassifier::new(spec.num_cores(), 512);
    let layout = *gen.layout();
    let trace = gen.generate(200_000);
    for a in &trace {
        let page = a.addr.page(8192);
        os.access(page, a.core, a.kind.is_instr_fetch());
    }
    // After the trace, every touched page's classification matches its region.
    let mut checked = 0;
    for (page, info) in os.page_table().iter() {
        let truth = layout
            .class_of_page(page)
            .expect("page comes from a known region");
        let expected_any = match truth {
            AccessClass::Instruction => info.class == PageClass::Instruction,
            AccessClass::PrivateData => info.class == PageClass::Private,
            // Cold shared pages touched by a single core so far may legitimately
            // still be classified private; hot ones must have converged.
            AccessClass::SharedData => {
                info.class == PageClass::Shared || info.class == PageClass::Private
            }
        };
        assert!(
            expected_any,
            "page {page} classified {:?} but ground truth is {truth}",
            info.class
        );
        checked += 1;
    }
    assert!(
        checked > 100,
        "expected a substantial number of touched pages"
    );
    // The hot shared pages specifically must be shared by now.
    let shared_pages = os
        .page_table()
        .iter()
        .filter(|(p, _)| layout.class_of_page(*p) == Some(AccessClass::SharedData))
        .count();
    let converged = os
        .page_table()
        .iter()
        .filter(|(p, i)| {
            layout.class_of_page(*p) == Some(AccessClass::SharedData)
                && i.class == PageClass::Shared
        })
        .count();
    assert!(
        converged * 2 > shared_pages,
        "most touched shared pages should have been re-classified ({converged}/{shared_pages})"
    );
}

/// Private pages of a purely private workload must never be re-classified;
/// any page that is re-classified is re-classified once and stays shared.
#[test]
fn private_workload_never_reclassifies_private_pages() {
    let spec = WorkloadSpec::mix();
    let mut gen = TraceGenerator::new(&spec, 11);
    let mut os = OsClassifier::new(spec.num_cores(), 512);
    let trace = gen.generate(100_000);
    let mut reclassified_private = 0;
    let mut reclassified = HashSet::new();
    for a in &trace {
        let page = a.addr.page(8192);
        let out = os.access(page, a.core, a.kind.is_instr_fetch());
        if let ClassificationEvent::Reclassified { .. } = out.event {
            assert!(
                reclassified.insert(page),
                "page {page} was re-classified twice"
            );
            if a.class == AccessClass::PrivateData {
                reclassified_private += 1;
            }
        }
    }
    assert_eq!(
        reclassified_private, 0,
        "ground-truth private pages are only ever touched by their owner"
    );
    let stats = os.stats();
    assert_eq!(stats.tlb_hits + stats.tlb_misses, trace.len() as u64);
    assert_eq!(stats.reclassifications, reclassified.len() as u64);
    for &page in &reclassified {
        assert_eq!(os.page_table().get(page).unwrap().class, PageClass::Shared);
    }
}

proptest! {
    /// Random interleavings of accesses by two cores always end with the page
    /// either private to a single accessor or shared, re-classified at most
    /// once, and the classification is stable under repetition.
    #[test]
    fn classification_state_machine_is_stable(accessors in proptest::collection::vec(0usize..2, 1..40)) {
        let mut os = OsClassifier::new(2, 64);
        let page = PageAddr::from_page_number(99);
        let mut reclassified = false;
        for &a in &accessors {
            let out = os.access(page, CoreId::new(a), false);
            if reclassified {
                prop_assert_eq!(out.class, PageClass::Shared, "a re-classified page stays shared");
            }
            reclassified |= matches!(out.event, ClassificationEvent::Reclassified { .. });
        }
        let info = *os.page_table().get(page).expect("page was touched");
        let distinct: HashSet<_> = accessors.iter().collect();
        if distinct.len() == 1 {
            prop_assert_eq!(info.class, PageClass::Private);
        } else {
            prop_assert_eq!(info.class, PageClass::Shared);
        }
        // Every access either hits a TLB or traps, and the one data page is
        // re-classified at most once.
        let stats = *os.stats();
        prop_assert_eq!(stats.tlb_hits + stats.tlb_misses, accessors.len() as u64);
        prop_assert!(stats.reclassifications <= 1);
        prop_assert_eq!(stats.reclassifications == 1, distinct.len() > 1);
        // Re-running the same final accessor does not change the class.
        let last = *accessors.last().unwrap();
        os.access(page, CoreId::new(last), false);
        prop_assert_eq!(os.page_table().get(page).unwrap().class, info.class);
    }
}

proptest! {
    /// The TLB size cannot change a classification. The only class
    /// transition, private to shared, shoots down the previous owner's TLB
    /// entry, and a private page sits in no other core's TLB, so a TLB hit
    /// always returns what the page table holds. A 1-entry and a 512-entry
    /// TLB, driven over four times more pages than the larger one holds,
    /// agree on every access's class, on which accesses are first touches
    /// and re-classifications (from the same previous owner), and on the
    /// re-classification count.
    #[test]
    fn tlb_size_never_changes_a_classification(
        accesses in proptest::collection::vec((0usize..4, 0u64..2048, any::<bool>(), 0u8..8), 1..3000)
    ) {
        let mut one = OsClassifier::new(4, 1);
        let mut full = OsClassifier::new(4, 512);
        let decisive = |event: ClassificationEvent| match event {
            ClassificationEvent::FirstTouch | ClassificationEvent::Reclassified { .. } => Some(event),
            ClassificationEvent::TlbHit | ClassificationEvent::PageTableHit => None,
        };
        for &(core, page, hot, fetch) in &accesses {
            // Half the references go to eight hot pages, so pages are
            // re-touched by several cores and re-classified; the rest
            // spread over 2,048 pages.
            let page = PageAddr::from_page_number(if hot { page % 8 } else { page });
            let core = CoreId::new(core);
            let is_instruction = fetch == 0;
            let a = one.access(page, core, is_instruction);
            let b = full.access(page, core, is_instruction);
            prop_assert_eq!(a.class, b.class);
            prop_assert_eq!(decisive(a.event), decisive(b.event));
        }
        prop_assert_eq!(one.stats().reclassifications, full.stats().reclassifications);
    }
}
