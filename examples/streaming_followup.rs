//! Online clinical deployment (§III-B future-work scenario): start from a
//! small seed cohort, then fold each newly assessed patient into the
//! prototype memory and watch held-out accuracy improve — no retraining
//! pass, just integer prototype updates.
//!
//! ```sh
//! cargo run --release -p hyperfex --example streaming_followup
//! ```

use hyperfex::prelude::*;
use hyperfex_hdc::classify::ClassAccumulators;
use hyperfex_hdc::rng::SplitMix64;

fn main() -> Result<(), HyperfexError> {
    let cohort = sylhet::generate(&SylhetConfig::default())?;
    let dim = Dim::new(4_000);

    // Encode everything once (encoding is stateless after fit).
    let mut extractor = HdcFeatureExtractor::new(dim, 9);
    let hvs = extractor.fit_transform(&cohort)?;
    let labels = cohort.labels();

    // Hold out every 5th patient for evaluation; stream the rest in a
    // shuffled order (the generator emits positives first, but a clinic
    // sees interleaved arrivals).
    let mut stream: Vec<usize> = (0..cohort.n_rows()).filter(|i| i % 5 != 0).collect();
    let holdout: Vec<usize> = (0..cohort.n_rows()).filter(|i| i % 5 == 0).collect();
    let mut order_rng = SplitMix64::new(2026);
    order_rng.shuffle(&mut stream);

    // Seed the memory with the first 20 streamed patients.
    let seed = &stream[..20];
    let mut memory = ClassAccumulators::new(dim);
    memory.add_batch(
        &seed.iter().map(|&i| &hvs[i]).collect::<Vec<_>>(),
        &seed.iter().map(|&i| labels[i]).collect::<Vec<_>>(),
    )?;

    let evaluate = |memory: &ClassAccumulators| -> Result<f64, HyperfexError> {
        let mut correct = 0usize;
        for &i in &holdout {
            if memory.predict(&hvs[i])? == labels[i] {
                correct += 1;
            }
        }
        Ok(correct as f64 / holdout.len() as f64)
    };

    println!(
        "streaming {} follow-up patients into the prototype memory:\n",
        stream.len() - 20
    );
    println!("  seen   held-out accuracy");
    println!("  ----   ------------------");
    println!("  {:>4}   {:>6.1}%", 20, evaluate(&memory)? * 100.0);
    for (count, &i) in stream[20..].iter().enumerate() {
        memory.add_batch(&[&hvs[i]], &[labels[i]])?;
        let seen = 21 + count;
        if seen % 80 == 0 || count == stream.len() - 21 {
            println!("  {:>4}   {:>6.1}%", seen, evaluate(&memory)? * 100.0);
        }
    }

    println!(
        "\nprototype memory footprint: 2 classes × {} bits — constant regardless of cohort size",
        dim
    );
    Ok(())
}
