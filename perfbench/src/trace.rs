//! In-memory spans for the traced run: name, start, end, parent span and
//! worker lane. Spans are recorded around the benchmark's calls into each
//! layer, kept in memory, and written out when the run ends.
//!
//! Two views of a span tree:
//! * **self time** — a span's duration minus the part of it its children
//!   cover (children that overlap in time, e.g. sweep cells on parallel
//!   workers, count once);
//! * **wall attribution** — the root interval split over the layers: every
//!   instant goes to the innermost spans open at that instant, shared
//!   equally when several run in parallel. The shares sum to the root's
//!   duration, so they show which layers the traced wall time went to.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Worker lane: 0 is the calling thread, sweep helpers are 1, 2, ….
    pub lane: usize,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. When off, `enter`/`exit` do nothing, so the untraced
/// end-to-end runs share the traced code path at the cost of a branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false, Instant::now())
    }

    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a span on the calling thread; `None` when tracing is off.
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = self.now();
        Some(self.record(name, parent, start, f64::NAN, 0))
    }

    /// Close a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.now();
        }
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, parent);
        let out = f();
        self.exit(id);
        out
    }

    /// Add a span timed elsewhere (e.g. on a sweep worker) and return its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: f64,
        end: f64,
        lane: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            lane,
        });
        self.spans.len() - 1
    }

    /// Total duration of the spans named `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_length(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in intervals {
        let (a, b) = (a.max(lo), b.min(hi));
        if b <= a {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// Self time of every span: duration minus the union of its children.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - union_length(kids, s.start, s.end))
        .collect()
}

/// Wall time of `root`'s interval attributed to each span name (see the
/// module docs). The values sum to the root span's duration.
pub fn wall_attribution(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let (lo, hi) = (spans[root].start, spans[root].end);
    let in_root = |mut i: usize| loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    };
    let members: Vec<usize> = (0..spans.len()).filter(|&i| in_root(i)).collect();
    let mut cuts: Vec<f64> = members
        .iter()
        .flat_map(|&i| [spans[i].start.max(lo), spans[i].end.min(hi)])
        .collect();
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut out = BTreeMap::new();
    let mut has_open_child = vec![false; spans.len()];
    for w in cuts.windows(2) {
        let mid = 0.5 * (w[0] + w[1]);
        let open: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| spans[i].start <= mid && mid < spans[i].end)
            .collect();
        for &i in &open {
            if let Some(p) = spans[i].parent {
                has_open_child[p] = true;
            }
        }
        let leaves: Vec<usize> = open
            .iter()
            .copied()
            .filter(|&i| !has_open_child[i])
            .collect();
        let share = (w[1] - w[0]) / leaves.len().max(1) as f64;
        for &i in &leaves {
            *out.entry(spans[i].name).or_insert(0.0) += share;
        }
        for &i in &open {
            if let Some(p) = spans[i].parent {
                has_open_child[p] = false;
            }
        }
    }
    out
}

/// Value at the highest rank that still has at least ten samples beyond
/// it (`sorted[n - 11]`), or the maximum when there are fewer than 11.
pub fn tail(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n >= 11 => sorted[n - 11],
        n => sorted[n - 1],
    }
}

/// Median of `xs` (mean of the middle two for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            lane: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 3.0, 7.0, Some(0)),
        ];
        let st = self_times(&spans);
        assert!((st[0] - 4.0).abs() < 1e-12);
        assert!((st[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn attribution_splits_parallel_time_and_sums_to_root() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("batch", 2.0, 8.0, Some(0)),
            span("cell", 2.0, 6.0, Some(1)),
            span("cell", 2.0, 8.0, Some(1)),
            span("des", 2.0, 4.0, Some(2)),
        ];
        let a = wall_attribution(&spans, 0);
        let total: f64 = a.values().sum();
        assert!((total - 10.0).abs() < 1e-12);
        assert!((a["root"] - 4.0).abs() < 1e-12);
        // [2,4): des + cell share; [4,6): two cells; [6,8): one cell.
        assert!((a["des"] - 1.0).abs() < 1e-12);
        assert!((a["cell"] - 5.0).abs() < 1e-12);
        assert!(!a.contains_key("batch"));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&xs), 89.0);
        assert_eq!(tail(&[1.0, 2.0, 3.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
