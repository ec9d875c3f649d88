//! Full evaluation suites and the paper's fixed case-study bundle.

use rebudget_apps::spec::app_by_name;

use crate::bundle::{generate_bundle, Bundle, WorkloadError};
use crate::category::Category;

/// Bundles generated per category (§5: "we randomly generate 40 workloads"
/// per category).
pub const BUNDLES_PER_CATEGORY: usize = 40;

/// Generates the full evaluation suite for a core count: 40 bundles for
/// each of the six categories (240 total), reproducibly from `seed`.
///
/// # Errors
///
/// Returns [`WorkloadError`] if `cores` is not divisible by 4.
pub fn full_suite(cores: usize, seed: u64) -> Result<Vec<Bundle>, WorkloadError> {
    let mut bundles = Vec::with_capacity(Category::ALL.len() * BUNDLES_PER_CATEGORY);
    for category in Category::ALL {
        for index in 0..BUNDLES_PER_CATEGORY {
            bundles.push(generate_bundle(category, cores, index, seed)?);
        }
    }
    Ok(bundles)
}

/// The fixed 8-core bundle of the paper's §6.1.1 / Figure 3 case study:
/// "four 'B' apps (*apsi* and *swim*, 2 copies each), two 'C' apps (2
/// copies of *mcf*), and two 'P' apps (*hmmer* and *sixtrack*)".
pub fn paper_bbpc_8core() -> Bundle {
    let apps = [
        "apsi", "apsi", "swim", "swim", "mcf", "mcf", "hmmer", "sixtrack",
    ]
    .iter()
    .map(|name| app_by_name(name).expect("paper apps exist"))
    .collect();
    Bundle {
        category: Category::Cpbb,
        index: usize::MAX, // sentinel: hand-constructed, not generated
        apps,
    }
}

/// The bundle a workload name means on `cores` cores: the paper's
/// case-study bundle for `bbpc` (8 cores only), otherwise bundle 0 of the
/// named [`Category`] drawn from `seed`. Names are case-insensitive.
///
/// # Errors
///
/// [`WorkloadError::UnknownCategory`] for any other name,
/// [`WorkloadError::BbpcNeeds8Cores`], or a generation error from
/// [`generate_bundle`].
pub fn bundle_by_name(name: &str, cores: usize, seed: u64) -> Result<Bundle, WorkloadError> {
    if name.eq_ignore_ascii_case("bbpc") {
        return match cores {
            8 => Ok(paper_bbpc_8core()),
            _ => Err(WorkloadError::BbpcNeeds8Cores),
        };
    }
    let category = Category::from_name(name).ok_or_else(|| WorkloadError::UnknownCategory {
        name: name.to_string(),
    })?;
    generate_bundle(category, cores, 0, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebudget_apps::AppClass;

    #[test]
    fn suite_has_240_bundles() {
        let suite = full_suite(8, 1).unwrap();
        assert_eq!(suite.len(), 240);
        for category in Category::ALL {
            assert_eq!(
                suite.iter().filter(|b| b.category == category).count(),
                BUNDLES_PER_CATEGORY
            );
        }
    }

    #[test]
    fn suite_reproducible() {
        let a = full_suite(8, 5).unwrap();
        let b = full_suite(8, 5).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.app_names(), y.app_names());
        }
    }

    #[test]
    fn suite_works_at_64_cores() {
        let suite = full_suite(64, 1).unwrap();
        assert!(suite.iter().all(|b| b.cores() == 64));
    }

    #[test]
    fn paper_bundle_composition() {
        let b = paper_bbpc_8core();
        assert_eq!(b.cores(), 8);
        let count = |class| b.apps.iter().filter(|a| a.class == class).count();
        assert_eq!(count(AppClass::Both), 4);
        assert_eq!(count(AppClass::Cache), 2);
        assert_eq!(count(AppClass::Power), 2);
        assert_eq!(b.app_names()[4], "mcf");
    }
}
