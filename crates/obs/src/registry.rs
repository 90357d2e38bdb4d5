//! The live metrics registry and span recorder (`enabled` feature on).
//!
//! Counters and gauges are single relaxed atomics; histograms shard their
//! buckets across a fixed set of atomic accumulators (one per worker-ish
//! thread, picked round-robin) so the repository's training threads never
//! contend on a lock in the hot path.
//! All accumulation is integer addition, which commutes, so snapshots are
//! bit-identical regardless of thread count or interleaving.
//!
//! Spans record enter/exit events into one bounded ring guarded by a mutex;
//! spans are coarse (stage/frame granularity), so the lock is uncontended in
//! practice. Per-thread span stacks give hierarchical parent/depth without
//! cross-thread coordination.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

use crate::clock::{Clock, MonotonicClock};
use crate::snapshot::{
    to_micros, CounterSample, FixedHistogram, GaugeSample, HistogramSample, MetricsSnapshot,
    SpanSample,
};

const N_SHARDS: usize = 8;
const RING_CAP: usize = 8192;

/// Always `true` in this build: the `enabled` feature is on.
pub const fn enabled() -> bool {
    true
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Monotonic counter: one relaxed `fetch_add`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    #[inline]
    pub fn add(&self, v: u64) {
        self.value.fetch_add(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins gauge storing `f64` bits in an atomic.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0.0f64.to_bits(), Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct HistShard {
    /// `bounds.len() + 1` buckets, overflow last.
    counts: Box<[AtomicU64]>,
    sum_micros: AtomicI64,
}

/// Sharded fixed-bucket histogram. Each thread accumulates into its
/// round-robin-assigned shard; `merged()` folds the shards into a plain
/// [`FixedHistogram`]. Integer bucket counts + micro-unit sums make the
/// merge order-independent, hence deterministic across thread counts.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    shards: Vec<HistShard>,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        let shards = (0..N_SHARDS)
            .map(|_| HistShard {
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_micros: AtomicI64::new(0),
            })
            .collect();
        Self { bounds, shards }
    }

    #[inline]
    pub fn record(&self, v: f64) {
        let bucket = FixedHistogram::bucket_index(self.bounds, v);
        let shard = &self.shards[shard_index()];
        shard.counts[bucket].fetch_add(1, Ordering::Relaxed);
        shard.sum_micros.fetch_add(to_micros(v), Ordering::Relaxed);
    }

    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Fold all shards into one plain histogram.
    pub fn merged(&self) -> FixedHistogram {
        let mut counts = vec![0u64; self.bounds.len() + 1];
        let mut sum_micros = 0i64;
        for shard in &self.shards {
            for (acc, c) in counts.iter_mut().zip(shard.counts.iter()) {
                *acc += c.load(Ordering::Relaxed);
            }
            sum_micros += shard.sum_micros.load(Ordering::Relaxed);
        }
        FixedHistogram::from_parts(self.bounds, counts, sum_micros)
    }

    fn reset(&self) {
        for shard in &self.shards {
            for c in shard.counts.iter() {
                c.store(0, Ordering::Relaxed);
            }
            shard.sum_micros.store(0, Ordering::Relaxed);
        }
    }
}

fn shard_index() -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
            s.set(idx);
        }
        idx
    })
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Ring {
    events: VecDeque<SpanEvent>,
    dropped: u64,
}

#[derive(Clone, Copy)]
struct SpanEvent {
    enter: bool,
    id: u64,
    parent: u64,
    name: &'static str,
    depth: u32,
    tick: u64,
}

struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    ring: Mutex<Ring>,
    clock: RwLock<Box<dyn Clock>>,
    next_span_id: AtomicU64,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        ring: Mutex::new(Ring {
            events: VecDeque::with_capacity(RING_CAP),
            dropped: 0,
        }),
        clock: RwLock::new(Box::new(MonotonicClock::new())),
        next_span_id: AtomicU64::new(0),
    })
}

/// Resolve (registering on first use) the counter named `name`. The handle
/// is `'static`: metrics live for the process lifetime.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = registry().counters.lock().expect("counter registry");
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::default())))
}

/// Resolve (registering on first use) the gauge named `name`.
fn gauge(name: &'static str) -> &'static Gauge {
    let mut map = registry().gauges.lock().expect("gauge registry");
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Gauge::default())))
}

/// Resolve (registering on first use) the histogram named `name` with the
/// given bucket bounds. If the name is already registered, the existing
/// bounds win.
pub fn histogram(name: &'static str, bounds: &'static [f64]) -> &'static Histogram {
    let mut map = registry().histograms.lock().expect("histogram registry");
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new(bounds))))
}

/// Add `v` to the counter named `name` (registry lookup per call; prefer
/// the `counter_add!` macro in hot paths, which caches the handle).
pub fn counter_add(name: &'static str, v: u64) {
    counter(name).add(v);
}

/// Set the gauge named `name` (registry lookup per call; prefer the
/// `gauge_set!` macro in hot paths).
pub fn gauge_set(name: &'static str, v: f64) {
    gauge(name).set(v);
}

/// Record `v` into the histogram named `name` (registry lookup per call;
/// prefer the `histogram_record!` macro in hot paths).
pub fn histogram_record(name: &'static str, bounds: &'static [f64], v: f64) {
    histogram(name, bounds).record(v);
}

// ---------------------------------------------------------------------------
// Call-site caches backing the `counter_add!`/`gauge_set!`/`histogram_record!`
// macros: one registry lookup per call site, one atomic op per call after.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
pub struct CounterSite(OnceLock<&'static Counter>);

impl CounterSite {
    pub const fn new() -> Self {
        Self(OnceLock::new())
    }

    #[inline]
    pub fn add(&self, name: &'static str, v: u64) {
        self.0.get_or_init(|| counter(name)).add(v);
    }
}

#[derive(Debug, Default)]
pub struct GaugeSite(OnceLock<&'static Gauge>);

impl GaugeSite {
    pub const fn new() -> Self {
        Self(OnceLock::new())
    }

    #[inline]
    pub fn set(&self, name: &'static str, v: f64) {
        self.0.get_or_init(|| gauge(name)).set(v);
    }
}

#[derive(Debug, Default)]
pub struct HistogramSite(OnceLock<&'static Histogram>);

impl HistogramSite {
    pub const fn new() -> Self {
        Self(OnceLock::new())
    }

    #[inline]
    pub fn record(&self, name: &'static str, bounds: &'static [f64], v: f64) {
        self.0.get_or_init(|| histogram(name, bounds)).record(v);
    }
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// Install a new time source for span timing (e.g. a deterministic
/// [`crate::TickClock`] in tests).
pub fn set_clock(clock: Box<dyn Clock>) {
    *registry().clock.write().expect("clock lock") = clock;
}

/// Current tick from the installed clock (nanoseconds under the default
/// [`MonotonicClock`]).
pub fn now() -> u64 {
    registry().clock.read().expect("clock lock").now()
}

/// Milliseconds elapsed since a tick previously obtained from [`now`].
/// Under a `TickClock` this is ticks / 1e6 — tiny but deterministic.
pub fn elapsed_ms(t0: u64) -> f64 {
    now().saturating_sub(t0) as f64 / 1e6
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static LAST_ROOT: Cell<u64> = const { Cell::new(0) };
}

/// RAII guard returned by [`span_enter`]/the `span!` macro: records the
/// enter event on creation and the exit event on drop.
#[derive(Debug)]
pub struct SpanGuard {
    id: u64,
    name: &'static str,
    depth: u32,
}

impl SpanGuard {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Open a span named `name` on the current thread. Nesting is tracked via a
/// per-thread stack; the returned guard closes the span when dropped.
pub fn span_enter(name: &'static str) -> SpanGuard {
    let reg = registry();
    let id = reg.next_span_id.fetch_add(1, Ordering::Relaxed) + 1;
    let (parent, depth) = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        let depth = stack.len() as u32;
        stack.push(id);
        (parent, depth)
    });
    let tick = now();
    push_event(SpanEvent {
        enter: true,
        id,
        parent,
        name,
        depth,
        tick,
    });
    SpanGuard { id, name, depth }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else {
                // Out-of-order drop (guards moved across scopes): remove by id.
                stack.retain(|&x| x != self.id);
            }
        });
        let tick = now();
        push_event(SpanEvent {
            enter: false,
            id: self.id,
            parent: 0,
            name: self.name,
            depth: self.depth,
            tick,
        });
        if self.depth == 0 {
            LAST_ROOT.with(|c| c.set(self.id));
        }
    }
}

fn push_event(ev: SpanEvent) {
    let mut ring = registry().ring.lock().expect("span ring");
    if ring.events.len() == RING_CAP {
        ring.events.pop_front();
        ring.dropped += 1;
    }
    ring.events.push_back(ev);
}

/// Id of the most recently *closed* root span on the current thread (0 if
/// none). `Telemetry::record` uses this to link each frame to the
/// `omi.engine.step` span that produced it.
pub fn last_root_span_id() -> u64 {
    LAST_ROOT.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// Export / reset
// ---------------------------------------------------------------------------

/// Snapshot every registered metric plus the span ring.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .expect("counter registry")
        .iter()
        .map(|(name, c)| CounterSample {
            name: (*name).to_string(),
            value: c.get(),
        })
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .expect("gauge registry")
        .iter()
        .map(|(name, g)| GaugeSample {
            name: (*name).to_string(),
            value: g.get(),
        })
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .expect("histogram registry")
        .iter()
        .map(|(name, h)| HistogramSample {
            name: (*name).to_string(),
            histogram: h.merged(),
        })
        .collect();

    let (spans, dropped) = {
        let ring = reg.ring.lock().expect("span ring");
        let mut spans: Vec<SpanSample> = Vec::new();
        let mut index: BTreeMap<u64, usize> = BTreeMap::new();
        for ev in &ring.events {
            if ev.enter {
                index.insert(ev.id, spans.len());
                spans.push(SpanSample {
                    id: ev.id,
                    parent: ev.parent,
                    name: ev.name.to_string(),
                    depth: ev.depth,
                    enter_tick: ev.tick,
                    exit_tick: None,
                });
            } else if let Some(&i) = index.get(&ev.id) {
                spans[i].exit_tick = Some(ev.tick);
            }
        }
        (spans, ring.dropped)
    };

    MetricsSnapshot {
        counters,
        gauges,
        histograms,
        spans,
        dropped_span_events: dropped,
    }
}

/// Capture one time-series window into `rec`: snapshots the registry and
/// diffs it against the recorder's previous capture, stamping the window
/// with the installed clock's tick (deterministic under a
/// [`crate::TickClock`]). Drive this at a fixed cadence — once per
/// scheduling window or every N frames — then query `rec` for windowed
/// rates and quantiles.
pub fn capture_series(rec: &mut crate::SeriesRecorder) {
    rec.capture(now(), &snapshot());
}

/// Prometheus text exposition of the current registry state.
pub fn to_prometheus() -> String {
    snapshot().to_prometheus()
}

/// Pretty-printed JSON of the current registry state.
pub fn to_json() -> String {
    snapshot().to_json()
}

/// Flamegraph-style text rendering of the span ring (`trace.txt` format).
pub fn render_trace() -> String {
    snapshot().render_trace()
}

/// Zero every metric, clear the span ring, and restart span ids.
///
/// Contract: reset clears *values only* — it never invalidates handles.
/// Metric registrations are `'static` (leaked once on first use), so a
/// [`Counter`]/[`Gauge`]/[`Histogram`] reference obtained before the reset,
/// and in particular the per-call-site [`CounterSite`]/[`GaugeSite`]/
/// [`HistogramSite`] caches behind the `counter_add!`-family macros, keep
/// pointing at the live (now zeroed) metric: bumps through a cached handle
/// after `reset()` are visible in the next [`snapshot`]. Intended for
/// tests; the current thread's last-root marker is also cleared.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().expect("counter registry").values() {
        c.reset();
    }
    for g in reg.gauges.lock().expect("gauge registry").values() {
        g.reset();
    }
    for h in reg.histograms.lock().expect("histogram registry").values() {
        h.reset();
    }
    {
        let mut ring = reg.ring.lock().expect("span ring");
        ring.events.clear();
        ring.dropped = 0;
    }
    reg.next_span_id.store(0, Ordering::Relaxed);
    LAST_ROOT.with(|c| c.set(0));
}
