//! Brute-force reference answers the benchmark checks the program against.
//! They share no code with the library's kernels: distances are a plain
//! XOR-popcount over the packed words, and every tie rule is spelled out.

use hyperfex_hdc::BinaryHypervector;

pub fn hamming(a: &BinaryHypervector, b: &BinaryHypervector) -> u32 {
    a.words()
        .iter()
        .zip(b.words())
        .map(|(x, y)| (x ^ y).count_ones())
        .sum()
}

/// k-NN majority vote over the whole bank: neighbours ordered by distance,
/// then by global row; the vote's ties go to the label whose nearest
/// member comes first in that order.
pub fn knn_vote(
    bank: &[BinaryHypervector],
    labels: &[usize],
    query: &BinaryHypervector,
    k: usize,
) -> usize {
    let mut order: Vec<(u32, usize)> = bank
        .iter()
        .enumerate()
        .map(|(row, hv)| (hamming(query, hv), row))
        .collect();
    order.sort_unstable();
    // (label, votes) in order of each label's nearest member.
    let mut tally: Vec<(usize, usize)> = Vec::new();
    for &(_, row) in order.iter().take(k) {
        let label = labels[row];
        match tally.iter_mut().find(|(l, _)| *l == label) {
            Some((_, votes)) => *votes += 1,
            None => tally.push((label, 1)),
        }
    }
    let most = tally.iter().map(|&(_, v)| v).max().unwrap_or(0);
    tally
        .iter()
        .find(|&&(_, v)| v == most)
        .map_or(0, |&(label, _)| label)
}

/// Leave-one-out 1-NN: each row takes the label of its nearest other row,
/// the lowest index winning distance ties.
pub fn loocv_1nn(hvs: &[BinaryHypervector], labels: &[usize]) -> Vec<usize> {
    (0..hvs.len())
        .map(|held_out| {
            let mut best: Option<(u32, usize)> = None;
            for (row, hv) in hvs.iter().enumerate() {
                if row == held_out {
                    continue;
                }
                let d = hamming(&hvs[held_out], hv);
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, row));
                }
            }
            best.map_or(0, |(_, row)| labels[row])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperfex_hdc::classify::LeaveOneOut;
    use hyperfex_hdc::Dim;
    use hyperfex_serve::HvStore;

    const DIM: usize = 130; // three words, the last one partial

    /// A vector with exactly the listed bits set.
    fn bits(set: &[usize]) -> BinaryHypervector {
        BinaryHypervector::from_bits(Dim::new(DIM), (0..DIM).map(|i| set.contains(&i))).unwrap()
    }

    /// A bank whose distances from `bits(&[])` tie in planted ways:
    /// rows 0..=3 at distance 2, rows 4..=5 at distance 1, row 6 at 3.
    fn planted() -> (Vec<BinaryHypervector>, Vec<usize>) {
        let bank = vec![
            bits(&[0, 1]),
            bits(&[2, 129]),
            bits(&[64, 65]),
            bits(&[3, 128]),
            bits(&[100]),
            bits(&[127]),
            bits(&[5, 6, 7]),
        ];
        let labels = vec![1, 0, 0, 1, 2, 0, 1];
        (bank, labels)
    }

    #[test]
    fn knn_vote_applies_the_tie_rules() {
        let (bank, labels) = planted();
        let query = bits(&[]);
        // k = 1: rows 4 and 5 tie at distance 1; the lower row (label 2)
        // wins.
        assert_eq!(knn_vote(&bank, &labels, &query, 1), 2);
        // k = 2: labels 2 and 0 take one vote each; label 2's member is
        // nearer in (distance, row) order.
        assert_eq!(knn_vote(&bank, &labels, &query, 2), 2);
        // k = 4: rows 4, 5, 0, 1 → labels 2, 0, 1, 0; label 0 has two.
        assert_eq!(knn_vote(&bank, &labels, &query, 4), 0);
        // k = 5: rows 4, 5, 0, 1, 2 → label 0 has three.
        assert_eq!(knn_vote(&bank, &labels, &query, 5), 0);
    }

    #[test]
    fn knn_vote_matches_the_store_for_every_shard_layout() {
        let (bank, labels) = planted();
        let queries = vec![
            bits(&[]),
            bits(&[0]),
            bits(&[64, 65, 66]),
            bits(&[1, 2, 3, 128]),
        ];
        for n_shards in 1..=bank.len() {
            let store = HvStore::build(&bank, &labels, n_shards).unwrap();
            for k in 1..=bank.len() {
                let got = store.predict_batch(&queries, k).unwrap();
                let want: Vec<usize> = queries
                    .iter()
                    .map(|q| knn_vote(&bank, &labels, q, k))
                    .collect();
                assert_eq!(got, want, "{n_shards} shards, k = {k}");
            }
        }
    }

    #[test]
    fn loocv_oracle_breaks_ties_toward_the_lowest_index() {
        // Row 0 is at distance 1 from rows 1 and 2 (labels 1 and 0): the
        // lower index, row 1, wins. Row 3 is equidistant (2) from rows 1
        // and 2 as well.
        let hvs = vec![bits(&[10]), bits(&[10, 11]), bits(&[]), bits(&[11, 12])];
        let labels = vec![0, 1, 0, 1];
        let want = vec![1, 0, 0, 1];
        assert_eq!(loocv_1nn(&hvs, &labels), want);
        let got = LeaveOneOut::new().run(&hvs, &labels).unwrap().predictions;
        assert_eq!(got, want);
    }

    #[test]
    fn loocv_oracle_matches_the_program_on_planted_ties() {
        let (bank, labels) = planted();
        let got = LeaveOneOut::new().run(&bank, &labels).unwrap().predictions;
        assert_eq!(got, loocv_1nn(&bank, &labels));
    }
}
