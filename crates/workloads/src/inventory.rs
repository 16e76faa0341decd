//! The static fork-site census (Table 4) as data.
//!
//! The paper's authors classified ~650 thread-creation sites found by
//! grepping Cedar's and GVX's (proprietary, now extinct) Mesa sources.
//! Only the *counts* survive, in Table 4, and they are transcribed here
//! verbatim: the census is its 22 numbers. The sites the synthetic
//! worlds fork are [`crate::cedar::modeled_sites`] and
//! [`crate::gvx::modeled_sites`]; `tests/invariants.rs` joins them
//! against the threads the cells create, both ways.

use paradigms::Paradigm;

/// Table 4's counts, transcribed, in [`Paradigm::ALL`]'s row order:
/// `(paradigm, cedar, gvx)`. Each column sums to its system's TOTAL row
/// (348 Cedar and 234 GVX sites).
pub const TABLE4_COUNTS: [(Paradigm, usize, usize); 11] = [
    (Paradigm::DeferWork, 108, 77),
    (Paradigm::GeneralPump, 48, 33),
    (Paradigm::SlackProcess, 7, 2),
    (Paradigm::Sleeper, 67, 15),
    (Paradigm::OneShot, 25, 11),
    (Paradigm::DeadlockAvoider, 35, 6),
    (Paradigm::TaskRejuvenation, 11, 0),
    (Paradigm::Serializer, 5, 7),
    (Paradigm::EncapsulatedFork, 14, 5),
    (Paradigm::ConcurrencyExploiter, 3, 0),
    (Paradigm::Unknown, 25, 78),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn totals() -> (usize, usize) {
        TABLE4_COUNTS
            .iter()
            .fold((0, 0), |(c, g), &(_, cn, gn)| (c + cn, g + gn))
    }

    fn row(p: Paradigm) -> (usize, usize) {
        let &(_, c, g) = TABLE4_COUNTS.iter().find(|r| r.0 == p).unwrap();
        (c, g)
    }

    #[test]
    fn census_totals_match_table_4() {
        assert_eq!(totals(), (348, 234));
    }

    #[test]
    fn counts_by_system_and_paradigm() {
        assert_eq!(row(Paradigm::DeferWork), (108, 77));
        assert_eq!(row(Paradigm::Sleeper), (67, 15));
        assert_eq!(row(Paradigm::Unknown), (25, 78));
    }

    #[test]
    fn counts_cover_every_paradigm_row() {
        let rows: Vec<Paradigm> = TABLE4_COUNTS.iter().map(|r| r.0).collect();
        assert_eq!(rows, Paradigm::ALL, "Table 4 is printed in this order");
    }

    #[test]
    fn census_counts_match_per_paradigm() {
        // The worlds may model no more sites of a paradigm than Table 4
        // counts for that system.
        let cedar = crate::cedar::modeled_sites();
        let gvx = crate::gvx::modeled_sites();
        for (p, c, g) in TABLE4_COUNTS {
            let modeled = |sites: &[(String, Paradigm)]| sites.iter().filter(|s| s.1 == p).count();
            assert!(modeled(&cedar) <= c, "{p:?}: Cedar models more than {c}");
            assert!(modeled(&gvx) <= g, "{p:?}: GVX models more than {g}");
        }
    }

    #[test]
    fn modeled_sites_present_and_flagged() {
        // The join keys: each name is unique across both worlds and
        // carries its own system's prefix.
        let mut names = Vec::new();
        for (prefix, sites) in [
            ("Cedar.", crate::cedar::modeled_sites()),
            ("GVX.", crate::gvx::modeled_sites()),
        ] {
            for (name, _) in sites {
                assert!(name.starts_with(prefix), "{name} lacks {prefix}");
                names.push(name);
            }
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate modeled site name");
    }

    #[test]
    fn paper_percentages_reproduce() {
        // Spot-check the percentage column: defer work is 31% of Cedar
        // and 33% of GVX; unknown is 7% / 33%.
        let (ct, gt) = totals();
        let (cedar_defer, gvx_defer) = row(Paradigm::DeferWork);
        let (cedar_unknown, gvx_unknown) = row(Paradigm::Unknown);
        assert!((cedar_defer as f64 / ct as f64 - 0.31).abs() < 0.01);
        assert!((gvx_defer as f64 / gt as f64 - 0.33).abs() < 0.01);
        assert!((cedar_unknown as f64 / ct as f64 - 0.07).abs() < 0.01);
        assert!((gvx_unknown as f64 / gt as f64 - 0.33).abs() < 0.01);
    }

    #[test]
    fn gvx_has_no_rejuvenation_or_exploiters() {
        assert_eq!(row(Paradigm::TaskRejuvenation).1, 0);
        assert_eq!(row(Paradigm::ConcurrencyExploiter).1, 0);
    }
}
