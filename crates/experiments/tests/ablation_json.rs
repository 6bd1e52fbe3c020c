//! `ablation_dim --json PATH` writes every sweep table it prints — both
//! dimensionality sweeps and both distillation ladders — to one JSON
//! array, not just the last table.

use serde::Deserialize;
use std::process::Command;

/// The fields of a written table this test reads.
#[derive(Deserialize)]
struct Table {
    caption: String,
    rows: Vec<Vec<String>>,
}

#[test]
fn json_holds_both_dimensionality_sweeps_and_both_ladders() {
    let path =
        std::env::temp_dir().join(format!("hyperfex-ablation-dim-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_ablation_dim"))
        .args(["--quick", "--seed", "42", "--json"])
        .arg(&path)
        .output()
        .unwrap()
        .status;
    assert!(status.success(), "{status}");
    let json = std::fs::read_to_string(&path).unwrap();
    drop(std::fs::remove_file(&path));
    let tables: Vec<Table> = serde_json::from_str(&json).unwrap();
    let captions: Vec<&str> = tables.iter().map(|t| t.caption.as_str()).collect();
    assert_eq!(tables.len(), 4, "{captions:?}");
    for (table, cohort) in tables.iter().zip(["Pima R", "Syhlet"]) {
        assert_eq!(
            table.caption,
            format!("Dimensionality ablation — Hamming LOOCV on {cohort}")
        );
        assert_eq!(table.rows.len(), 6, "one row per width");
    }
    for (table, cohort) in tables[2..].iter().zip(["Pima R", "Syhlet"]) {
        assert!(
            table
                .caption
                .starts_with(&format!("Distillation Pareto — {cohort} ")),
            "{}",
            table.caption
        );
        assert!(!table.rows.is_empty());
    }
}
