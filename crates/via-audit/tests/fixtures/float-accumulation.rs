// audit-fixture: kind=sim
//! `float-accumulation` corpus: order-sensitive float folds in merge paths.

pub struct Stats {
    pub mean: f64,
    pub n: u64,
}

impl Stats {
    pub fn merge(&mut self, other: &Stats) {
        self.mean += other.mean;
        self.n += other.n;
    }

    // Shards are combined in ascending shard-index order by the one
    // caller, so the operation sequence is fixed per shard count.
    // via-audit: ordered-merge(pairwise update applied in shard-index order)
    pub fn merge_ordered(&mut self, other: &Stats) {
        self.mean += other.mean;
        self.n += other.n;
    }

    pub fn merge_counts(&mut self, other: &Stats) {
        self.n += other.n;
    }
}
