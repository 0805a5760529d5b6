//! Relay-based network tomography (§4.4 of the paper, Figure 11).
//!
//! Call history only covers (pair, option) cells that actually carried calls.
//! Tomography expands coverage: every relayed path decomposes into a
//! *client-side segment* per (endpoint, relay) plus — for transit — a known
//! backbone segment. By treating each observed relayed call as a linear
//! equation over the unknown segment values,
//!
//! ```text
//! bounce(a,b via r):        u[a,r] + u[b,r]            = y
//! transit(a,b via r1,r2):   u[a,r1] + bb[r1,r2] + u[b,r2] = y
//! ```
//!
//! a weighted least-squares solve recovers `u`, and stitching the estimates
//! predicts paths never observed (the dotted line of Figure 11).
//!
//! RTT composes additively as-is. Loss and jitter are *linearized* first
//! (§4.4: "metrics that compose linearly (e.g., RTT) or can be linearized
//! (e.g., jitter and packet loss rate, under the assumption of independence
//! across network segments)"):
//!
//! * loss `p` (%) → `x = −ln(1 − p/100)`, since survival probabilities
//!   multiply across independent segments;
//! * jitter `j` → `x = j²`, since variances of independent delay-variation
//!   processes add.

use std::mem;
use via_model::ids::RelayId;
use via_model::metrics::{Metric, PathMetrics};
use via_model::options::RelayOption;
use via_model::time::Window;

use crate::history::{CallHistory, KeyPair, MetricStats};

/// Maps a raw metric value into its additively-composing space.
pub fn linearize(metric: Metric, value: f64) -> f64 {
    match metric {
        Metric::Rtt => value.max(0.0),
        Metric::Loss => {
            let p = (value / 100.0).clamp(0.0, 0.9999);
            -(1.0 - p).ln()
        }
        Metric::Jitter => value.max(0.0).powi(2),
    }
}

/// Inverse of [`linearize`].
pub fn delinearize(metric: Metric, x: f64) -> f64 {
    let x = x.max(0.0);
    match metric {
        Metric::Rtt => x,
        Metric::Loss => 100.0 * (1.0 - (-x).exp()),
        Metric::Jitter => x.sqrt(),
    }
}

/// Delta-method transport of a standard error through [`linearize`].
pub fn linearize_sem(metric: Metric, mean: f64, sem: f64) -> f64 {
    match metric {
        Metric::Rtt => sem,
        Metric::Loss => {
            // dx/dp at p percent: (1/100) / (1 − p/100).
            let p = (mean / 100.0).clamp(0.0, 0.9999);
            sem / 100.0 / (1.0 - p)
        }
        Metric::Jitter => 2.0 * mean.max(0.0) * sem,
    }
}

/// One client-side segment: spatial key (AS, country, or finer — see
/// `replay::SpatialGranularity`) to relay. Ordered key-major, the order the
/// fitted model stores its segments in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentKey {
    /// Spatial key of the client side.
    pub key: u32,
    /// Relay id.
    pub relay: RelayId,
}

/// Solved estimate for one segment, in linearized space.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentEstimate {
    /// Linearized value per metric.
    pub value: [f64; 3],
    /// Standard error per metric (linearized space).
    pub sem: [f64; 3],
    /// Number of observations touching this segment.
    pub n_obs: u32,
}

/// One linear observation `u[i] + u[j] = y` (per metric, weight `w`: the
/// sample count) as the row of one of its unknowns holds it: the other
/// unknown, and whether this one is `i` — a residual subtracts the two in
/// that order.
#[derive(Debug, Clone, Copy, Default)]
struct Edge {
    y: [f64; 3],
    w: f64,
    partner: u32,
    lead: bool,
}

/// Gauss–Seidel sweeps (the system is sparse and well-conditioned;
/// 25 sweeps is far past convergence for realistic densities).
const ITERATIONS: usize = 25;
/// Relative SEM floor applied to solved segments (prevents overconfident
/// stitching off few observations).
const MIN_REL_SEM: f64 = 0.05;

/// Configuration for the tomography solve. It has no field: the fit runs
/// in one order on one thread — the Gauss–Seidel sweeps' result depends on
/// update order, which determinism pins down. The type stays because
/// callers pass it to [`Tomography::fit`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TomographyConfig;

/// One observed cell of a training window, as the fits read it.
pub(crate) type CellRef<'a> = (&'a (KeyPair, RelayOption), &'a MetricStats);

/// What the refit's counting sort orders: two `u32` keys, then the place
/// the entry came from.
type Keyed = (u32, u32, usize);

/// The refit's buffers, kept by a caller that refits again so a refit
/// reuses them: the entries being sorted, the other half of each pass, and
/// the tomography's equation places and segment numbering.
#[derive(Debug, Default)]
pub(crate) struct FitScratch {
    keyed: Vec<Keyed>,
    buf: Vec<Keyed>,
    place: Vec<u32>,
    unknown_of: Vec<u32>,
}

/// Sorts `items` stably by `(.0, .1)`: one counting pass per 8-bit digit,
/// `.1`'s least significant first, skipping any digit every item shares. The
/// counts are sized by the digit, never by a key's value.
fn sort_keyed(items: &mut [Keyed], buf: &mut Vec<Keyed>) {
    let digit = |x: &Keyed, d: usize| usize::from([x.1, x.0][d / 4].to_le_bytes()[d % 4]);
    let mut counts = [[0usize; 256]; 8];
    for x in items.iter() {
        for (d, count) in counts.iter_mut().enumerate() {
            count[digit(x, d)] += 1;
        }
    }
    for (d, count) in counts.iter_mut().enumerate() {
        if count.contains(&items.len()) {
            continue;
        }
        // Each digit's count becomes where its items start.
        count.iter_mut().fold(0, |at, c| at + mem::replace(c, at));
        buf.clear();
        buf.extend_from_slice(items);
        for x in buf.iter() {
            let to = &mut count[digit(x, d)];
            items[*to] = *x;
            *to += 1;
        }
    }
}

/// The cells a fit reads: sorted by `(pair, option)` and without any that
/// holds no RTT sample (a non-finite report's). Hash-map and shard order
/// must pick neither the order the per-cell fits are kept in nor the order
/// the solver numbers its unknowns in (Gauss–Seidel results depend on update
/// order at fixed iteration counts). Every `(pair, option)` is there once,
/// so any sort gives this order: the counting passes order the pairs, and a
/// pair's few options are sorted in place.
pub(crate) fn fit_order<'a, C>(
    cells: &'a [C],
    cell: impl Fn(&'a C) -> CellRef<'a>,
    scratch: &mut FitScratch,
) -> Vec<CellRef<'a>> {
    let FitScratch { keyed, buf, .. } = scratch;
    // Room for the tomography's column too, so neither sort buffer grows
    // during the refit: a cell fills at most four equation places.
    for v in [&mut *keyed, &mut *buf] {
        v.clear();
        v.reserve(4 * cells.len());
    }
    keyed.extend(cells.iter().enumerate().filter_map(|(at, c)| {
        let (&(pair, _), stats) = cell(c);
        (stats.count() > 0).then_some((pair.lo, pair.hi, at))
    }));
    sort_keyed(keyed, buf);
    for run in keyed.chunk_by_mut(|x, y| (x.0, x.1) == (y.0, y.1)) {
        run.sort_unstable_by_key(|&(_, _, at)| cell(&cells[at]).0 .1);
    }
    keyed.iter().map(|&(_, _, at)| cell(&cells[at])).collect()
}

/// The equations one observed cell contributes, each as the two client-side
/// segments it sums. A bounce is one equation. A transit is two: ingress and
/// egress cannot be told apart in the aggregate, so both orientations are
/// recorded (at half weight — with symmetric client legs this is the
/// least-biased linear attribution).
pub(crate) fn equations(
    pair: KeyPair,
    option: RelayOption,
) -> impl Iterator<Item = (SegmentKey, SegmentKey)> {
    let seg = |key, relay| SegmentKey { key, relay };
    let (first, second) = match option.canonical() {
        RelayOption::Direct => (None, None),
        RelayOption::Bounce(r) => (Some((seg(pair.lo, r), seg(pair.hi, r))), None),
        RelayOption::Transit(r1, r2) => (
            Some((seg(pair.lo, r1), seg(pair.hi, r2))),
            Some((seg(pair.lo, r2), seg(pair.hi, r1))),
        ),
    };
    first.into_iter().chain(second)
}

/// The window's linear system, one row per unknown: `edges[starts[i]..
/// starts[i + 1]]` are the observations touching unknown `i`, in observation
/// order (cell by cell, equation by equation), a self-loop (`i == j`) once.
/// `place` holds each equation's `[i, j]` in that order. The values of a
/// cell's equations are its linearized means, less the backbone leg and at
/// half weight for a transit.
fn rows(
    cells: &[CellRef<'_>],
    place: &[u32],
    n_unknowns: usize,
    backbone: &dyn Fn(RelayId, RelayId) -> PathMetrics,
) -> (Vec<Edge>, Vec<usize>) {
    let mut starts = vec![0usize; n_unknowns + 1];
    for e in place.chunks_exact(2) {
        starts[e[0] as usize + 1] += 1;
        starts[e[1] as usize + 1] += usize::from(e[1] != e[0]);
    }
    for i in 0..n_unknowns {
        starts[i + 1] += starts[i];
    }
    let mut edges = vec![Edge::default(); starts[n_unknowns]];
    // Each row's start is its fill cursor, and a filled row's cursor ends on
    // the next row's start: the last entry dropped and a zero prepended, the
    // cursors are the starts again (within the capacity, so no allocation).
    let mut at = place.chunks_exact(2);
    for &(&(pair, option), stats) in cells {
        if option == RelayOption::Direct {
            continue; // no equations
        }
        let mut y = [0.0f64; 3];
        for (m_idx, &metric) in Metric::ALL.iter().enumerate() {
            y[m_idx] = linearize(metric, stats.metric(metric).mean().unwrap_or(0.0));
        }
        let mut w = stats.count() as f64;
        if let RelayOption::Transit(r1, r2) = option.canonical() {
            let bbm = backbone(r1, r2);
            for (m_idx, &metric) in Metric::ALL.iter().enumerate() {
                y[m_idx] = (y[m_idx] - linearize(metric, bbm[metric])).max(0.0);
            }
            w /= 2.0;
        }
        for (_, e) in equations(pair, option).zip(at.by_ref()) {
            let (i, j) = (e[0], e[1]);
            let ends = [(i, j), (j, i)].into_iter().take(1 + usize::from(j != i));
            for (row, partner) in ends.map(|(row, partner)| (row as usize, partner)) {
                edges[starts[row]] = Edge {
                    y,
                    w,
                    partner,
                    lead: row == i as usize,
                };
                starts[row] += 1;
            }
        }
    }
    starts.pop();
    starts.insert(0, 0);
    (edges, starts)
}

/// Weighted least squares over the system's rows: every unknown starts at
/// half of the weighted mean of its observations, then [`ITERATIONS`]
/// Gauss–Seidel sweeps in unknown-index order. Returns one estimate per
/// unknown, in that order. Every sum runs in observation order, and a
/// self-loop, which is both of its equation's unknowns, counts twice where
/// an observation is summed into both of them.
fn solve(edges: &[Edge], starts: &[usize]) -> Vec<SegmentEstimate> {
    let rows = || {
        starts
            .windows(2)
            .map(|r| edges.get(r[0]..r[1]).unwrap_or_default())
    };
    let n_unknowns = starts.len().saturating_sub(1);
    let twice = |i: usize, e: &Edge| 1 + usize::from(e.partner as usize == i);
    let mut u = vec![[0.0f64; 3]; n_unknowns];
    let mut w_sum = vec![0.0f64; n_unknowns];
    for ((i, row), (ui, wi)) in rows().enumerate().zip(u.iter_mut().zip(&mut w_sum)) {
        for e in row {
            for _ in 0..twice(i, e) {
                for (v, &y) in ui.iter_mut().zip(&e.y) {
                    *v += e.w * y / 2.0;
                }
                *wi += e.w;
            }
        }
        if *wi > 0.0 {
            for v in ui.iter_mut() {
                *v /= *wi;
            }
        }
    }
    // An update's denominator is the weight touching the unknown, the same
    // in every sweep. It is not `w_sum`, which counts a self-loop twice.
    let den: Vec<f64> = rows()
        .map(|row| row.iter().fold(0.0, |d, e| d + e.w))
        .collect();

    for _ in 0..ITERATIONS {
        for (i, row) in rows().enumerate().filter(|&(i, _)| den[i] > 0.0) {
            let mut num = [0.0f64; 3];
            for e in row {
                let partner = u[e.partner as usize];
                for m in 0..3 {
                    num[m] += e.w * (e.y[m] - partner[m]);
                }
            }
            for m in 0..3 {
                u[i][m] = (num[m] / den[i]).max(0.0);
            }
        }
    }

    // Residual-based SEM per unknown.
    rows()
        .enumerate()
        .map(|(i, row)| {
            let mut res_sq = [0.0f64; 3];
            for e in row {
                let partner = u[e.partner as usize];
                let (a, b) = if e.lead {
                    (u[i], partner)
                } else {
                    (partner, u[i])
                };
                for _ in 0..twice(i, e) {
                    for m in 0..3 {
                        let r = e.y[m] - a[m] - b[m];
                        res_sq[m] += e.w * r * r;
                    }
                }
            }
            let n_obs = u32::try_from(row.len()).unwrap_or(u32::MAX);
            let mut sem = [0.0f64; 3];
            for m in 0..3 {
                let var = if w_sum[i] > 0.0 {
                    res_sq[m] / w_sum[i]
                } else {
                    0.0
                };
                let base = (var / (n_obs.max(1) as f64)).sqrt();
                sem[m] = base.max(MIN_REL_SEM * u[i][m]);
            }
            SegmentEstimate {
                value: u[i],
                sem,
                n_obs,
            }
        })
        .collect()
}

/// One solved segment in its key's row.
#[derive(Debug, Clone, Copy)]
struct Segment {
    relay: RelayId,
    estimate: SegmentEstimate,
}

/// Relay ids below this are looked up in a [`KeyRow`] through its slot
/// array; larger ids fall back to a binary search of the row. It covers the
/// paper-scale fleet (30 relays), and a row's first `ROW_SLOTS` segments are
/// the only ones that can hold such an id, so a slot fits in a `u8`.
pub(crate) const ROW_SLOTS: usize = 32;
const _: () = assert!(ROW_SLOTS < u8::MAX as usize);

/// The solved segments of one spatial key, sorted by relay, and where to
/// find each: `slot[r]` is one past the position of relay `r`'s segment, or
/// `0` when it is unsolved. The array is fixed-size, so the model stays
/// sized by the number of segments, never by a relay id's value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyRow<'a> {
    segs: &'a [Segment],
    slot: &'a [u8; ROW_SLOTS],
}

impl<'a> KeyRow<'a> {
    /// Solved estimate of this key's segment to `relay`.
    pub(crate) fn get(&self, relay: RelayId) -> Option<&'a SegmentEstimate> {
        let i = match self.slot.get(relay.index()) {
            Some(&at) => usize::from(at).checked_sub(1)?,
            None => self.segs.binary_search_by_key(&relay, |s| s.relay).ok()?,
        };
        self.segs.get(i).map(|s| &s.estimate)
    }
}

/// Fitted tomography model for one training window, laid out for its
/// reader: `keys` holds the sorted unique spatial keys with a solved
/// segment, and key `keys[i]`'s segments are `segs[starts[i].0..starts[i +
/// 1].0]` in relay order, with `starts[i].1` their `KeyRow` slot array,
/// resolved once by the fit for every view to read. Sized by the number of
/// solved segments — never by the value of a key or a relay id, which for a
/// live controller arrive off the wire.
#[derive(Debug, Default)]
pub struct Tomography {
    keys: Vec<u32>,
    starts: Vec<(usize, [u8; ROW_SLOTS])>,
    segs: Vec<Segment>,
}

impl Tomography {
    /// Fits segment estimates from one history window. `backbone` supplies
    /// the provider's known inter-relay metrics (§3.2).
    pub fn fit(
        history: &CallHistory,
        window: Window,
        backbone: &dyn Fn(RelayId, RelayId) -> PathMetrics,
        _cfg: &TomographyConfig,
    ) -> Tomography {
        let cells: Vec<CellRef<'_>> = history.window_cells(window).collect();
        let mut bufs = FitScratch::default();
        Self::fit_sorted(fit_order(&cells, |&c| c, &mut bufs), backbone, &mut bufs)
    }

    /// [`Tomography::fit`] over cells already in [`fit_order`],
    /// which it drops once their equations are assembled.
    pub(crate) fn fit_sorted(
        cells: Vec<CellRef<'_>>,
        backbone: &dyn Fn(RelayId, RelayId) -> PathMetrics,
        scratch: &mut FitScratch,
    ) -> Tomography {
        // Every equation's two segments are solved, so the model's layout is
        // known before the solve: the sorted unique segments, key-major. Each
        // segment is listed once per equation place it fills (`i` of equation
        // `e` at `2e`, `j` at `2e + 1`) as `(key, relay, place)`, places
        // ascending, so one stable sort by `(key, relay)` yields both the
        // layout and every place's position in it.
        let n_places: usize = 2 * cells
            .iter()
            .map(|&(&(pair, option), _)| equations(pair, option).count())
            .sum::<usize>();
        if n_places == 0 || u32::try_from(n_places).is_err() {
            return Tomography::default();
        }
        let column = &mut scratch.keyed;
        column.clear();
        for &(&(pair, option), _) in &cells {
            for (si, sj) in equations(pair, option) {
                for seg in [si, sj] {
                    column.push((seg.key, seg.relay.0, column.len()));
                }
            }
        }
        sort_keyed(column, &mut scratch.buf);
        let runs = |same: fn(&Keyed, &Keyed) -> bool| {
            1 + column.windows(2).filter(|w| !same(&w[0], &w[1])).count()
        };
        let n_keys = runs(|x, y| x.0 == y.0);
        let mut keys = Vec::with_capacity(n_keys);
        let mut starts = Vec::with_capacity(n_keys + 1);
        let mut segs = Vec::with_capacity(runs(|x, y| (x.0, x.1) == (y.0, y.1)));
        let place = &mut scratch.place;
        place.resize(n_places, 0); // every place is written below
        let mut last = None;
        for &(key, relay, at) in column.iter() {
            if last != Some((key, relay)) {
                last = Some((key, relay));
                if keys.last() != Some(&key) {
                    keys.push(key);
                    starts.push((segs.len(), [0; ROW_SLOTS]));
                }
                segs.push(Segment {
                    relay: RelayId(relay),
                    estimate: SegmentEstimate::default(),
                });
                // A row holds each relay once, in order, so relay `r` sits at
                // most `r` into it: a slotted one's position fits its `u8`.
                if let Some((start, slot)) = starts.last_mut() {
                    let at = u8::try_from(segs.len() - *start);
                    if let (Some(v), Ok(at)) = (slot.get_mut(RelayId(relay).index()), at) {
                        *v = at;
                    }
                }
            }
            // Every layout position is below `n_places`, which fits a `u32`.
            place[at] = u32::try_from(segs.len() - 1).unwrap_or(u32::MAX);
        }
        starts.push((segs.len(), [0; ROW_SLOTS]));

        // Unknowns are numbered in first-seen order — the Gauss–Seidel update
        // order is part of the result — and `unknown_of` maps a segment's
        // place in the layout to that number; each equation place is
        // rewritten from the one to the other.
        let unknown_of = &mut scratch.unknown_of;
        unknown_of.clear();
        unknown_of.resize(segs.len(), u32::MAX);
        let mut n_unknowns = 0;
        for p in place.iter_mut() {
            let id = &mut unknown_of[*p as usize];
            if *id == u32::MAX {
                *id = n_unknowns;
                n_unknowns += 1;
            }
            *p = *id;
        }
        let (edges, row_starts) = rows(&cells, place, n_unknowns as usize, backbone);
        drop(cells);
        let solved = solve(&edges, &row_starts);
        for (seg, &id) in segs.iter_mut().zip(unknown_of.iter()) {
            seg.estimate = solved[id as usize];
        }
        Tomography { keys, starts, segs }
    }

    /// Number of solved segments.
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// True if the model solved no segments.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// The solved segments of `key` (empty when none were).
    pub(crate) fn row(&self, key: u32) -> KeyRow<'_> {
        let row = self.keys.binary_search(&key).ok().and_then(|i| {
            let ((start, slot), (end, _)) = (self.starts.get(i)?, self.starts.get(i + 1)?);
            Some((self.segs.get(*start..*end)?, slot))
        });
        let (segs, slot) = row.unwrap_or((&[], &[0; ROW_SLOTS]));
        KeyRow { segs, slot }
    }
}

/// Stitched prediction for a relayed option over the rows of a pair's lower
/// and higher key, resolved once for the many options a caller scores, in
/// linearized space: `(mean, sem)` per metric. Returns `None` for the direct
/// option (tomography is relay-based) or when a needed segment is unsolved.
/// A transit covered equally in both orientations is stitched `lo`-side
/// first.
pub(crate) fn stitch_rows(
    row_lo: &KeyRow<'_>,
    row_hi: &KeyRow<'_>,
    option: RelayOption,
    backbone: &dyn Fn(RelayId, RelayId) -> PathMetrics,
) -> Option<([f64; 3], [f64; 3])> {
    match option.canonical() {
        RelayOption::Direct => None,
        RelayOption::Bounce(r) => {
            let sa = row_lo.get(r)?;
            let sb = row_hi.get(r)?;
            let mut mean = [0.0; 3];
            let mut sem = [0.0; 3];
            for m in 0..3 {
                mean[m] = sa.value[m] + sb.value[m];
                sem[m] = (sa.sem[m].powi(2) + sb.sem[m].powi(2)).sqrt();
            }
            Some((mean, sem))
        }
        RelayOption::Transit(r1, r2) => {
            // Try both orientations; use the better-covered one.
            let fwd = row_lo.get(r1).zip(row_hi.get(r2));
            let rev = row_lo.get(r2).zip(row_hi.get(r1));
            let (sa, sb) = match (fwd, rev) {
                (Some(f), Some(r)) => {
                    if f.0.n_obs + f.1.n_obs >= r.0.n_obs + r.1.n_obs {
                        f
                    } else {
                        r
                    }
                }
                (Some(f), None) => f,
                (None, Some(r)) => r,
                (None, None) => return None,
            };
            let bbm = backbone(r1, r2);
            let mut mean = [0.0; 3];
            let mut sem = [0.0; 3];
            for (m_idx, &metric) in Metric::ALL.iter().enumerate() {
                mean[m_idx] = sa.value[m_idx] + sb.value[m_idx] + linearize(metric, bbm[metric]);
                sem[m_idx] = (sa.sem[m_idx].powi(2) + sb.sem[m_idx].powi(2)).sqrt();
            }
            Some((mean, sem))
        }
    }
}

/// This module's layout before the key rows, kept as the reference the
/// equivalence tests compare against: unknowns interned through a `HashMap`
/// in first-seen order, solved segments stored in one, every leg of a stitch
/// a probe, and the solve as it was. The equations are the model's own.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use std::collections::HashMap;

    /// One linear observation: `u[i] + u[j] = y` (per metric), with weight
    /// `w` (sample count).
    #[derive(Debug, Clone, Copy)]
    struct Obs {
        i: usize,
        j: usize,
        y: [f64; 3],
        w: f64,
    }

    /// The window's observations in order — cell by cell, equation by
    /// equation — each unknown numbered by `intern`, `i` before `j`.
    fn observations(
        cells: &[CellRef<'_>],
        backbone: &dyn Fn(RelayId, RelayId) -> PathMetrics,
        mut intern: impl FnMut(SegmentKey) -> usize,
    ) -> Vec<Obs> {
        let mut obs = Vec::new();
        for &(&(pair, option), stats) in cells {
            let mut y = [0.0f64; 3];
            for (m_idx, &metric) in Metric::ALL.iter().enumerate() {
                y[m_idx] = linearize(metric, stats.metric(metric).mean().unwrap_or(0.0));
            }
            let mut w = stats.count() as f64;
            if let RelayOption::Transit(r1, r2) = option.canonical() {
                let bbm = backbone(r1, r2);
                for (m_idx, &metric) in Metric::ALL.iter().enumerate() {
                    y[m_idx] = (y[m_idx] - linearize(metric, bbm[metric])).max(0.0);
                }
                w /= 2.0;
            }
            for (si, sj) in equations(pair, option) {
                let (i, j) = (intern(si), intern(sj));
                obs.push(Obs { i, j, y, w });
            }
        }
        obs
    }

    /// [`super::solve`] before its adjacency became one row of inline
    /// observations per unknown and the sweep-invariant denominators were
    /// hoisted: one `Vec` of observation indices per unknown, `den` re-summed
    /// in every sweep.
    fn solve(obs: &[Obs], n_unknowns: usize) -> Vec<SegmentEstimate> {
        let mut u = vec![[0.0f64; 3]; n_unknowns];
        let mut w_sum = vec![0.0f64; n_unknowns];
        for o in obs {
            for (m, &y) in o.y.iter().enumerate() {
                u[o.i][m] += o.w * y / 2.0;
                u[o.j][m] += o.w * y / 2.0;
            }
            w_sum[o.i] += o.w;
            w_sum[o.j] += o.w;
        }
        for (ui, &w) in u.iter_mut().zip(&w_sum) {
            if w > 0.0 {
                for v in ui.iter_mut() {
                    *v /= w;
                }
            }
        }

        // Adjacency: unknown → observation indices.
        let mut touching: Vec<Vec<usize>> = vec![Vec::new(); n_unknowns];
        for (oi, o) in obs.iter().enumerate() {
            touching[o.i].push(oi);
            if o.j != o.i {
                touching[o.j].push(oi);
            }
        }

        for _ in 0..ITERATIONS {
            for i in 0..n_unknowns {
                let mut num = [0.0f64; 3];
                let mut den = 0.0f64;
                for &oi in &touching[i] {
                    let o = &obs[oi];
                    let partner = if o.i == i { o.j } else { o.i };
                    for m in 0..3 {
                        let partner_val = if partner == i { u[i][m] } else { u[partner][m] };
                        num[m] += o.w * (o.y[m] - partner_val);
                    }
                    den += o.w;
                }
                if den > 0.0 {
                    for m in 0..3 {
                        u[i][m] = (num[m] / den).max(0.0);
                    }
                }
            }
        }

        // Residual-based SEM per unknown.
        let mut res_sq = vec![[0.0f64; 3]; n_unknowns];
        let mut n_obs = vec![0u32; n_unknowns];
        for o in obs {
            for m in 0..3 {
                let r = o.y[m] - u[o.i][m] - u[o.j][m];
                res_sq[o.i][m] += o.w * r * r;
                res_sq[o.j][m] += o.w * r * r;
            }
            n_obs[o.i] += 1;
            if o.j != o.i {
                n_obs[o.j] += 1;
            }
        }

        (0..n_unknowns)
            .map(|idx| {
                let mut sem = [0.0f64; 3];
                for m in 0..3 {
                    let var = if w_sum[idx] > 0.0 {
                        res_sq[idx][m] / w_sum[idx]
                    } else {
                        0.0
                    };
                    let base = (var / (n_obs[idx].max(1) as f64)).sqrt();
                    sem[m] = base.max(MIN_REL_SEM * u[idx][m]);
                }
                SegmentEstimate {
                    value: u[idx],
                    sem,
                    n_obs: n_obs[idx],
                }
            })
            .collect()
    }

    /// [`super::fit_order`] as one comparison sort: every `(pair, option)`
    /// is there once, so any sort gives the one order.
    pub(crate) fn fit_order<'a>(cells: impl IntoIterator<Item = CellRef<'a>>) -> Vec<CellRef<'a>> {
        let mut cells: Vec<CellRef<'a>> = cells.into_iter().collect();
        cells.sort_unstable_by_key(|(key, _)| **key);
        cells.retain(|(_, stats)| stats.count() > 0);
        cells
    }

    #[derive(Debug, Default)]
    pub(crate) struct Tomography {
        pub(crate) segments: HashMap<SegmentKey, SegmentEstimate>,
    }

    impl Tomography {
        pub(crate) fn fit(
            history: &CallHistory,
            window: Window,
            backbone: &dyn Fn(RelayId, RelayId) -> PathMetrics,
        ) -> Tomography {
            let cells = self::fit_order(history.window_cells(window));
            let mut index: HashMap<SegmentKey, usize> = HashMap::new();
            let mut keys: Vec<SegmentKey> = Vec::new();
            let obs = observations(&cells, backbone, |k| {
                *index.entry(k).or_insert_with(|| {
                    keys.push(k);
                    keys.len() - 1
                })
            });
            let solved = solve(&obs, keys.len());
            Tomography {
                segments: keys.into_iter().zip(solved).collect(),
            }
        }

        pub(crate) fn stitch(
            &self,
            pair: KeyPair,
            option: RelayOption,
            backbone: &dyn Fn(RelayId, RelayId) -> PathMetrics,
        ) -> Option<([f64; 3], [f64; 3])> {
            let (a, b) = (pair.lo, pair.hi);
            match option.canonical() {
                RelayOption::Direct => None,
                RelayOption::Bounce(r) => {
                    let sa = self.segments.get(&SegmentKey { key: a, relay: r })?;
                    let sb = self.segments.get(&SegmentKey { key: b, relay: r })?;
                    let mut mean = [0.0; 3];
                    let mut sem = [0.0; 3];
                    for m in 0..3 {
                        mean[m] = sa.value[m] + sb.value[m];
                        sem[m] = (sa.sem[m].powi(2) + sb.sem[m].powi(2)).sqrt();
                    }
                    Some((mean, sem))
                }
                RelayOption::Transit(r1, r2) => {
                    // Try both orientations; use the better-covered one.
                    let fwd = self
                        .segments
                        .get(&SegmentKey { key: a, relay: r1 })
                        .zip(self.segments.get(&SegmentKey { key: b, relay: r2 }));
                    let rev = self
                        .segments
                        .get(&SegmentKey { key: a, relay: r2 })
                        .zip(self.segments.get(&SegmentKey { key: b, relay: r1 }));
                    let (sa, sb) = match (fwd, rev) {
                        (Some(f), Some(r)) => {
                            if f.0.n_obs + f.1.n_obs >= r.0.n_obs + r.1.n_obs {
                                f
                            } else {
                                r
                            }
                        }
                        (Some(f), None) => f,
                        (None, Some(r)) => r,
                        (None, None) => return None,
                    };
                    let bbm = backbone(r1, r2);
                    let mut mean = [0.0; 3];
                    let mut sem = [0.0; 3];
                    for (m_idx, &metric) in Metric::ALL.iter().enumerate() {
                        mean[m_idx] =
                            sa.value[m_idx] + sb.value[m_idx] + linearize(metric, bbm[metric]);
                        sem[m_idx] = (sa.sem[m_idx].powi(2) + sb.sem[m_idx].powi(2)).sqrt();
                    }
                    Some((mean, sem))
                }
            }
        }
    }
}

#[cfg(test)]
impl Tomography {
    /// Elements reserved across the model's vectors: the memory figure the
    /// hostile-value test reads.
    pub(crate) fn reserved(&self) -> usize {
        self.keys.capacity() + self.starts.capacity() + self.segs.capacity()
    }

    /// Solved estimate for one segment.
    pub(crate) fn segment(&self, key: u32, relay: RelayId) -> Option<&SegmentEstimate> {
        self.row(key).get(relay)
    }

    /// [`stitch_rows`] over the rows of `pair`'s keys.
    pub(crate) fn stitch(
        &self,
        pair: KeyPair,
        option: RelayOption,
        backbone: &dyn Fn(RelayId, RelayId) -> PathMetrics,
    ) -> Option<([f64; 3], [f64; 3])> {
        stitch_rows(&self.row(pair.lo), &self.row(pair.hi), option, backbone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{GroupedCell, KeyPair};
    use proptest::prelude::*;
    use via_model::time::{SimTime, WindowLen};

    /// Keys and relay ids on both sides of every 8-bit digit edge a sort by
    /// digits could split on, `u32::MAX` with every digit set.
    const EDGES: [u32; 8] = [0, 1, 255, 256, 65_535, 65_536, 16_777_216, u32::MAX];

    /// The option a generated report names: every kind, over edge relays.
    fn edge_option(kind: u32, r1: usize, r2: usize) -> RelayOption {
        match kind {
            0 => RelayOption::Direct,
            1 => RelayOption::Bounce(RelayId(EDGES[r1])),
            _ => RelayOption::Transit(RelayId(EDGES[r1]), RelayId(EDGES[r2])),
        }
    }

    /// One report's metrics, distinct per report and sample.
    fn edge_metrics(i: usize, k: u64) -> PathMetrics {
        PathMetrics::new(
            60.0 + 17.0 * i as f64 + 3.0 * k as f64,
            0.1 * (1 + i) as f64,
            1.0 + k as f64,
        )
    }

    fn edge_backbone(a: RelayId, b: RelayId) -> PathMetrics {
        PathMetrics::new(20.0 + f64::from(a.0 % 7 + 2 * (b.0 % 5)), 0.02, 0.5)
    }

    #[test]
    fn linearize_roundtrips() {
        for metric in Metric::ALL {
            for v in [0.0, 0.5, 5.0, 50.0] {
                let x = linearize(metric, v);
                let back = delinearize(metric, x);
                assert!((back - v).abs() < 1e-9, "{metric} {v} → {x} → {back}");
            }
        }
    }

    #[test]
    fn loss_linearization_composes_multiplicatively() {
        // Two segments at 2% and 3% loss: end-to-end = 1 − 0.98·0.97.
        let x = linearize(Metric::Loss, 2.0) + linearize(Metric::Loss, 3.0);
        let combined = delinearize(Metric::Loss, x);
        assert!((combined - (100.0 * (1.0 - 0.98 * 0.97))).abs() < 1e-9);
    }

    #[test]
    fn jitter_linearization_adds_in_quadrature() {
        let x = linearize(Metric::Jitter, 3.0) + linearize(Metric::Jitter, 4.0);
        assert!((delinearize(Metric::Jitter, x) - 5.0).abs() < 1e-12);
    }

    /// Builds a synthetic ground truth of segment values, observes a few
    /// bounce paths, and checks that the solver recovers held-out paths.
    #[test]
    fn solver_recovers_figure_11_scenario() {
        // Figure 11: calls AS1↔AS4, AS2↔AS3, AS1↔AS2 through relay RN exist;
        // predict AS3↔AS4.
        let truth = |a: u32| 20.0 + 10.0 * a as f64; // u[a, RN] in ms
        let r = RelayId(0);
        let window = WindowLen::DAY.window_of(SimTime::ZERO);
        let mut h = CallHistory::new();
        let mut push = |a: u32, b: u32| {
            let y = truth(a) + truth(b);
            for _ in 0..10 {
                h.record(
                    window,
                    KeyPair::new(a, b),
                    RelayOption::Bounce(r),
                    &PathMetrics::new(y, 0.0, 0.0),
                );
            }
        };
        push(1, 4);
        push(2, 3);
        push(1, 2);

        let bb = |_: RelayId, _: RelayId| PathMetrics::ZERO;
        let tomo = Tomography::fit(&h, window, &bb, &TomographyConfig);
        let (mean, _) = tomo
            .stitch(KeyPair::new(3, 4), RelayOption::Bounce(r), &bb)
            .expect("stitched");
        let expected = truth(3) + truth(4);
        assert!(
            (mean[0] - expected).abs() < 1.0,
            "predicted {} expected {expected}",
            mean[0]
        );
    }

    #[test]
    fn transit_stitching_subtracts_backbone() {
        let r1 = RelayId(0);
        let r2 = RelayId(1);
        let window = WindowLen::DAY.window_of(SimTime::ZERO);
        let mut h = CallHistory::new();
        // Ground truth: u[1,r1]=30, u[2,r2]=50, backbone=40.
        for _ in 0..10 {
            h.record(
                window,
                KeyPair::new(1, 2),
                RelayOption::Transit(r1, r2),
                &PathMetrics::new(120.0, 0.0, 0.0),
            );
            // Anchor the split with bounce observations on each side.
            h.record(
                window,
                KeyPair::new(1, 1),
                RelayOption::Bounce(r1),
                &PathMetrics::new(60.0, 0.0, 0.0),
            );
            h.record(
                window,
                KeyPair::new(2, 2),
                RelayOption::Bounce(r2),
                &PathMetrics::new(100.0, 0.0, 0.0),
            );
        }
        let bb = |_: RelayId, _: RelayId| PathMetrics::new(40.0, 0.0, 0.0);
        let tomo = Tomography::fit(&h, window, &bb, &TomographyConfig);
        let (mean, _) = tomo
            .stitch(KeyPair::new(1, 2), RelayOption::Transit(r1, r2), &bb)
            .expect("stitched");
        assert!((mean[0] - 120.0).abs() < 3.0, "got {}", mean[0]);
    }

    #[test]
    fn empty_window_yields_empty_model() {
        let h = CallHistory::new();
        let window = WindowLen::DAY.window_of(SimTime::ZERO);
        let bb = |_: RelayId, _: RelayId| PathMetrics::ZERO;
        let tomo = Tomography::fit(&h, window, &bb, &TomographyConfig);
        assert!(tomo.is_empty());
        assert!(tomo
            .stitch(KeyPair::new(0, 1), RelayOption::Bounce(RelayId(0)), &bb)
            .is_none());
    }

    #[test]
    fn direct_paths_are_not_stitched() {
        let tomo = Tomography::default();
        let bb = |_: RelayId, _: RelayId| PathMetrics::ZERO;
        assert!(tomo
            .stitch(KeyPair::new(0, 1), RelayOption::Direct, &bb)
            .is_none());
    }

    #[test]
    fn a_row_holding_every_slotted_relay_answers_each_like_the_reference() {
        // Key 0's row holds relays 0 ..= ROW_SLOTS + 1 and u32::MAX, so its
        // slot array is full and its tail is only reachable by the fallback.
        let window = WindowLen::DAY.window_of(SimTime::ZERO);
        let relays: Vec<RelayId> = (0..ROW_SLOTS as u32 + 2)
            .chain([u32::MAX])
            .map(RelayId)
            .collect();
        let mut h = CallHistory::new();
        for (i, &r) in relays.iter().enumerate() {
            let m = PathMetrics::new(80.0 + i as f64, 0.1, 2.0);
            h.record(window, KeyPair::new(0, 1), RelayOption::Bounce(r), &m);
        }
        let bb = |_: RelayId, _: RelayId| PathMetrics::ZERO;
        let tomo = Tomography::fit(&h, window, &bb, &TomographyConfig);
        let want = reference::Tomography::fit(&h, window, &bb);
        let bits = |s: &SegmentEstimate| (s.value.map(f64::to_bits), s.sem.map(f64::to_bits));
        for &r in &relays {
            for key in [0, 1] {
                let got = tomo.segment(key, r).map(bits);
                assert_eq!(
                    got,
                    want.segments.get(&SegmentKey { key, relay: r }).map(bits)
                );
                assert!(got.is_some(), "key {key} relay {r}");
            }
            assert!(tomo.segment(2, r).is_none());
            let option = RelayOption::Bounce(r);
            assert_eq!(
                tomo.stitch(KeyPair::new(1, 0), option, &bb)
                    .map(|(m, s)| (m.map(f64::to_bits), s.map(f64::to_bits))),
                want.stitch(KeyPair::new(1, 0), option, &bb)
                    .map(|(m, s)| (m.map(f64::to_bits), s.map(f64::to_bits))),
            );
        }
    }

    #[test]
    fn sem_shrinks_with_more_data() {
        let r = RelayId(0);
        let window = WindowLen::DAY.window_of(SimTime::ZERO);
        let bb = |_: RelayId, _: RelayId| PathMetrics::ZERO;

        let fit_with = |n_pairs: u32| {
            let mut h = CallHistory::new();
            for a in 0..n_pairs {
                for b in (a + 1)..n_pairs {
                    // Noisy observations around u=50 per side.
                    for k in 0..5 {
                        let y = 100.0 + (k as f64 - 2.0) * 4.0;
                        h.record(
                            window,
                            KeyPair::new(a, b),
                            RelayOption::Bounce(r),
                            &PathMetrics::new(y, 0.0, 0.0),
                        );
                    }
                }
            }
            let tomo = Tomography::fit(&h, window, &bb, &TomographyConfig);
            tomo.segment(0, r).map(|s| s.sem[0])
        };

        let sparse = fit_with(3).unwrap();
        let dense = fit_with(8).unwrap();
        assert!(
            dense <= sparse,
            "denser coverage should not increase SEM ({dense} vs {sparse})"
        );
    }

    proptest! {
        // Runs under miri too: keep the windows tiny.
        #[test]
        fn fit_order_matches_the_comparison_sort(
            reports in prop::collection::vec(
                (0usize..8, 0usize..8, 0u32..3, 0usize..8, 0usize..8, 0u64..3),
                0..24,
            ),
            fan_lo in 0usize..8,
            fan in 0usize..8,
        ) {
            // Cells in arrival order, each `(pair, option)` once, some empty
            // (no sample), `a == b` pairs among them, and one `lo` fanned out
            // over many `hi`.
            let fanned = (0..fan).map(|j| (fan_lo, j, 1, j, 0, 1));
            let mut cells: Vec<GroupedCell> = Vec::new();
            for (i, (a, b, kind, r1, r2, n)) in reports.into_iter().chain(fanned).enumerate() {
                let key = (KeyPair::new(EDGES[a], EDGES[b]), edge_option(kind, r1, r2).canonical());
                if cells.iter().any(|(k, _)| *k == key) {
                    continue;
                }
                let mut stats = MetricStats::default();
                for k in 0..n {
                    stats.push(&edge_metrics(i, k));
                }
                cells.push((key, stats));
            }
            let got = fit_order(&cells, |(key, stats)| (key, stats), &mut FitScratch::default());
            let want = reference::fit_order(cells.iter().map(|(key, stats)| (key, stats)));
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert!(std::ptr::eq(g.0, w.0), "{:?} where {:?}", g.0, w.0);
            }
        }

        // Runs under miri too: keep the windows tiny.
        #[test]
        fn layout_matches_the_reference_across_digit_edges(
            reports in prop::collection::vec(
                (0usize..8, 0usize..8, 0u32..3, 0usize..8, 0usize..8, 1u64..4),
                0..12,
            ),
        ) {
            let window = WindowLen::DAY.window_of(SimTime::ZERO);
            let mut h = CallHistory::new();
            for (i, &(a, b, kind, r1, r2, n)) in reports.iter().enumerate() {
                let pair = KeyPair::new(EDGES[a], EDGES[b]);
                for k in 0..n {
                    h.record(window, pair, edge_option(kind, r1, r2), &edge_metrics(i, k));
                }
            }
            let tomo = Tomography::fit(&h, window, &edge_backbone, &TomographyConfig);
            let want = reference::Tomography::fit(&h, window, &edge_backbone);
            prop_assert_eq!(tomo.len(), want.segments.len());
            // Key-major, relay-minor, each segment once.
            prop_assert!(tomo.keys.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(tomo.starts.len(), tomo.keys.len() + usize::from(!tomo.keys.is_empty()));
            for &key in &tomo.keys {
                let row = tomo.row(key);
                prop_assert!(row.segs.windows(2).all(|w| w[0].relay < w[1].relay));
            }
            let bits = |s: &SegmentEstimate| {
                (s.value.map(f64::to_bits), s.sem.map(f64::to_bits), s.n_obs)
            };
            #[expect(
                clippy::iter_over_hash_type,
                reason = "every segment is checked; the order picks only which mismatch is reported"
            )]
            for (seg, est) in &want.segments {
                prop_assert_eq!(tomo.segment(seg.key, seg.relay).map(bits), Some(bits(est)), "{:?}", seg);
            }
            let stitched = |s: Option<([f64; 3], [f64; 3])>| {
                s.map(|(m, e)| (m.map(f64::to_bits), e.map(f64::to_bits)))
            };
            for a in EDGES {
                for b in EDGES {
                    for (kind, r1, r2) in [(1, 0, 0), (1, 3, 0), (1, 7, 0), (2, 2, 5), (2, 7, 0)] {
                        let (pair, option) = (KeyPair::new(a, b), edge_option(kind, r1, r2));
                        prop_assert_eq!(
                            stitched(tomo.stitch(pair, option, &edge_backbone)),
                            stitched(want.stitch(pair, option, &edge_backbone)),
                            "{:?} {}", pair, option
                        );
                    }
                }
            }
        }

        #[test]
        fn linearize_is_monotone(m_idx in 0usize..3, a in 0f64..99.0, b in 0f64..99.0) {
            let metric = Metric::ALL[m_idx];
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(linearize(metric, lo) <= linearize(metric, hi) + 1e-12);
        }

        #[test]
        fn delinearize_roundtrip(m_idx in 0usize..3, v in 0f64..95.0) {
            let metric = Metric::ALL[m_idx];
            let back = delinearize(metric, linearize(metric, v));
            prop_assert!((back - v).abs() < 1e-6);
        }

        #[test]
        fn linearize_sem_nonnegative(m_idx in 0usize..3, mean in 0f64..95.0, sem in 0f64..10.0) {
            let metric = Metric::ALL[m_idx];
            prop_assert!(linearize_sem(metric, mean, sem) >= 0.0);
        }
    }
}
