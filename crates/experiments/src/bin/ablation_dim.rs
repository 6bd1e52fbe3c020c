//! Formalises the paper's §II dimensionality remark: Hamming LOOCV
//! accuracy and cost for 1k…30k-bit hypervectors, plus the HDC classifier
//! variant comparison.

use hyperfex::experiments::{ablation, distill};
use hyperfex_experiments::{fail, Cli};

fn main() {
    let cli = Cli::parse("ablation_dim");
    let datasets = cli.datasets().unwrap_or_else(|e| fail(e));
    let dims = [1_000, 2_000, 5_000, 10_000, 20_000, 30_000];

    for (label, table) in [("Pima R", &datasets.pima_r), ("Syhlet", &datasets.sylhet)] {
        let points = ablation::dimensionality_sweep(table, &dims, cli.config.seed)
            .unwrap_or_else(|e| fail(e));
        cli.emit(&ablation::sweep_report(&points, label));
    }

    // Distilled rows: instead of *encoding* at a smaller width, prune a
    // trained full-width model down to its most discriminative bits (the
    // `pareto_distill` binary runs the full ladder with latency numbers).
    for (label, table) in [("Pima R", &datasets.pima_r), ("Syhlet", &datasets.sylhet)] {
        let pruned_dims = [(cli.config.dim / 10).max(1), (cli.config.dim / 5).max(1)];
        let sweep = distill::pareto_sweep(
            table,
            cli.config.dim(),
            &pruned_dims,
            cli.config.seed,
            label,
            3,
        )
        .unwrap_or_else(|e| fail(e));
        println!("{}", distill::pareto_report(&sweep).render());
    }

    println!("HDC classifier variants (dim = {}):", cli.config.dim);
    for (label, table) in [("Pima R", &datasets.pima_r), ("Syhlet", &datasets.sylhet)] {
        let v = ablation::classifier_variants(table, cli.config.dim(), cli.config.seed)
            .unwrap_or_else(|e| fail(e));
        println!(
            "  {label}: 1-NN {:.1}% | 3-NN {:.1}% | 5-NN {:.1}% | centroid {:.1}% | retrained {:.1}%",
            v.one_nn * 100.0,
            v.three_nn * 100.0,
            v.five_nn * 100.0,
            v.centroid * 100.0,
            v.centroid_retrained * 100.0
        );
    }

    println!("\ndistance-metric comparison (1-NN LOOCV):");
    for (label, table) in [("Pima R", &datasets.pima_r), ("Syhlet", &datasets.sylhet)] {
        let c = ablation::distance_metrics(table, cli.config.dim(), cli.config.seed)
            .unwrap_or_else(|e| fail(e));
        println!(
            "  {label}: Hamming/HV {:.1}% | Euclidean/raw {:.1}% | Euclidean/scaled {:.1}%",
            c.hamming_hv * 100.0,
            c.euclidean_raw * 100.0,
            c.euclidean_scaled * 100.0
        );
    }

    println!(
        "\nencoding-resolution ablation (Pima R, Hamming LOOCV, dim = {}):",
        cli.config.dim
    );
    let points = ablation::resolution_sweep(
        &datasets.pima_r,
        cli.config.dim(),
        &[2, 4, 8, 16, 64, 256],
        cli.config.seed,
    )
    .unwrap_or_else(|e| fail(e));
    for p in &points {
        match p.levels {
            Some(l) => println!("  {l:>4} levels: {:.1}%", p.accuracy * 100.0),
            None => println!("  continuous: {:.1}%", p.accuracy * 100.0),
        }
    }
}
