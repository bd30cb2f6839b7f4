//! The experiments, one module per table or figure. Each exposes
//! `run(&ExpCtx)` (`hierarchy` also takes `smoke`); the
//! binary of the same name is a one-line `main` that calls it, and
//! `--bin all` calls every entry of [`ALL`] in one process.

pub mod ablation;
pub mod coma_vs_numa;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod hierarchy;
pub mod inclusion;
pub mod seeds;
pub mod sensitivity;
pub mod table1;
pub mod thresholds;
pub mod traffic;

use crate::ExpCtx;

/// One experiment's entry point.
pub type Experiment = fn(&ExpCtx);

/// What `--bin all` runs, in order: every experiment but `hierarchy`
/// (its paper-scale matrix is run separately at `COMA_SCALE=0.25`).
pub const ALL: [(&str, Experiment); 12] = [
    ("table1", table1::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("sensitivity", sensitivity::run),
    ("thresholds", thresholds::run),
    ("coma_vs_numa", coma_vs_numa::run),
    ("inclusion", inclusion::run),
    ("ablation", ablation::run),
    ("traffic", traffic::run),
    ("seeds", seeds::run),
];

#[cfg(test)]
mod tests {
    use super::ALL;
    use std::collections::BTreeSet;

    /// A new experiment binary must also join `--bin all`.
    #[test]
    fn all_runs_every_bin_but_hierarchy() {
        let bin_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let bins: BTreeSet<String> = std::fs::read_dir(&bin_dir)
            .expect("read src/bin")
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .filter(|name| name != "all" && name != "hierarchy")
            .collect();
        let listed: BTreeSet<String> = ALL.iter().map(|(name, _)| name.to_string()).collect();
        assert_eq!(listed.len(), ALL.len(), "duplicate entry in ALL");
        assert_eq!(listed, bins);
    }
}
