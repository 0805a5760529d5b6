// audit-fixture: kind=sim
//! `map-iteration-order` corpus: hash iteration into order-sensitive sinks.

pub fn positive_chain(m: &HashMap<u32, f64>) -> f64 {
    let total: f64 = m.values().sum();
    total
}

pub fn positive_loop(m: &HashMap<u32, f64>) -> Vec<u32> {
    let mut out = Vec::new();
    for (k, _) in m.iter() {
        out.push(*k);
    }
    out
}

pub fn suppressed(m: &HashMap<u32, f64>) -> Vec<u32> {
    // The caller treats this as a set membership probe: it only checks
    // `contains`, so element order cannot reach any result.
    // via-audit: allow(map-iteration-order)
    let probe: Vec<u32> = m.keys().copied().collect();
    probe
}

pub fn clean_sorted(m: &HashMap<u32, f64>) -> Vec<u32> {
    let mut keys: Vec<u32> = m.keys().copied().collect();
    keys.sort_unstable();
    keys
}

pub fn clean_order_independent(m: &HashMap<u32, f64>) -> HashMap<u32, u64> {
    m.iter().map(|(k, v)| (*k, v.to_bits())).collect::<HashMap<u32, u64>>()
}
