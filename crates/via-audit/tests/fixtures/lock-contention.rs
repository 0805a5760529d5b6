// audit-fixture: kind=hot
//! `lock-contention` corpus: whole-map mutexes on the hot path.

pub struct Positive {
    pub cells: Mutex<HashMap<u64, f64>>,
}

pub struct Suppressed {
    // Written once at startup before any worker exists, then read-only;
    // the lock is never contended after initialization.
    // via-audit: allow(lock-contention)
    pub boot: Mutex<BTreeMap<u64, f64>>,
}

pub struct Clean {
    pub shards: [RwLock<Vec<(u64, f64)>>; 16],
}
