//! Criterion benchmark of the simulator's event queue: push/pop churn
//! at 10⁵ events through the hand-rolled 4-ary indexed heap
//! (`fpk_sim::event::EventQueue`) versus a reference
//! `BinaryHeap<Event>` using the same `(t, seq)` ordering. The two pop
//! identical sequences (pinned by proptests); this tracks the speed gap
//! that justifies the hand-rolled structure.
//!
//! `des_population` churns the same queue at the population a DES sweep
//! actually keeps: a 1-worker `des_static` sweep averaged 10.9 pending
//! heap events and 6.5 occupied side lanes, with about as many lane
//! schedules (6.10 M) as heap pushes (6.27 M). The `*_100k` rows hold
//! 512 events resident, far from that.

use criterion::{criterion_group, criterion_main, Criterion};
use fpk_sim::event::{Event, EventKind, EventQueue};
use std::collections::BinaryHeap;
use std::hint::black_box;

const N: usize = 100_000;
/// Steady-state heap population during the churn phase.
const RESIDENT: usize = 512;

/// Deterministic pseudo-random event times (splitmix64 bits mapped into
/// [0, 1)), mimicking the short-horizon offsets the engine schedules.
fn times(n: usize) -> Vec<f64> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// Fill to `RESIDENT`, then alternate push/pop for the remaining
/// events (the DES steady state), then drain.
fn churn_indexed(ts: &[f64]) -> f64 {
    let mut q = EventQueue::new();
    let mut now = 0.0f64;
    for (i, &dt) in ts.iter().enumerate() {
        if i >= RESIDENT {
            let e = q.pop().expect("resident events");
            now = e.t;
        }
        q.push(now + dt, EventKind::Departure { hop: i & 7 });
    }
    let mut last = 0.0;
    while let Some(e) = q.pop() {
        last = e.t;
    }
    last
}

fn churn_binary_heap(ts: &[f64]) -> f64 {
    let mut q: BinaryHeap<Event> = BinaryHeap::new();
    let mut now = 0.0f64;
    for (i, &dt) in ts.iter().enumerate() {
        if i >= RESIDENT {
            let e = q.pop().expect("resident events");
            now = e.t;
        }
        q.push(Event {
            t: now + dt,
            seq: i as u64,
            kind: EventKind::Departure { hop: i & 7 },
        });
    }
    let mut last = 0.0;
    while let Some(e) = q.pop() {
        last = e.t;
    }
    last
}

/// Heap events and side lanes kept pending by `churn_des_population`.
const DES_HEAP: usize = 11;
const DES_LANES: usize = 7;

/// Pop `ts.len()` events from a queue holding `DES_HEAP` heap events and
/// `DES_LANES` lanes, re-arming whatever fired where it came from. Lane
/// offsets are scaled by `DES_LANES / DES_HEAP` so lanes fire as often
/// as the heap, as in the DES.
fn churn_des_population(ts: &[f64]) -> f64 {
    let lane_scale = DES_LANES as f64 / DES_HEAP as f64;
    let mut q = EventQueue::new();
    q.set_lane_count(DES_LANES);
    for (i, &dt) in ts.iter().take(DES_HEAP).enumerate() {
        q.push(dt, EventKind::Observe { flow: i });
    }
    for (lane, &dt) in ts.iter().take(DES_LANES).enumerate() {
        q.schedule_lane(lane, dt * lane_scale, EventKind::Departure { hop: lane });
    }
    let mut now = 0.0f64;
    for &dt in ts {
        let e = q.pop().expect("resident events");
        now = e.t;
        match e.kind {
            EventKind::Departure { hop } => {
                q.schedule_lane(hop, now + dt * lane_scale, e.kind);
            }
            kind => q.push(now + dt, kind),
        }
    }
    now
}

fn bench_event_queue(c: &mut Criterion) {
    let ts = times(N);
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("indexed_100k", |b| {
        b.iter(|| churn_indexed(black_box(&ts)));
    });
    group.bench_function("binary_heap_100k", |b| {
        b.iter(|| churn_binary_heap(black_box(&ts)));
    });
    group.bench_function("des_population", |b| {
        b.iter(|| churn_des_population(black_box(&ts)));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_event_queue
}
criterion_main!(benches);
