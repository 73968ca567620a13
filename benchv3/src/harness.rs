//! Measurement plumbing shared by every workload: the span recorder, output checks,
//! the metric table, order statistics, host probes and the counting allocator.

use ccache_json::{Json, ToJson};
use column_caching::telemetry::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// ------------------------------------------------------------------ allocation counter

/// Counts every allocation the process makes (bytes requested and calls), so a run can
/// report allocation work as a deterministic counter next to its timings.
pub struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: u64) {
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to the system allocator with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc*` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size as u64);
        // SAFETY: `ptr`/`layout` come from this allocator and the caller guarantees
        // `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(bytes, calls)` allocated so far by the whole process.
pub fn alloc_totals() -> (u64, u64) {
    (
        ALLOC_BYTES.load(Ordering::Relaxed),
        ALLOC_COUNT.load(Ordering::Relaxed),
    )
}

/// Starts a new heap peak at what is live now, so the next `peak_heap_mb` covers only
/// the work in between.
pub fn reset_peak_heap() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The most heap memory the process has held live at once since the last
/// `reset_peak_heap`, in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

// ------------------------------------------------------------------ host probes

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// CPU time (user + system, every thread) this process has used so far. Reads
/// `/proc/self/stat` in clock ticks of 10 ms (the Linux `USER_HZ`).
pub fn cpu_time() -> Duration {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and stime are the
            // 14th and 15th fields of the whole line.
            let rest = &stat[stat.rfind(')')? + 2..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: u64 = fields.get(11)?.parse().ok()?;
            let stime: u64 = fields.get(12)?.parse().ok()?;
            Some(utime + stime)
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ------------------------------------------------------------------ order statistics

/// The median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile (`0 < q ≤ 1`); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Runs `f` `reps` times and returns the median duration in seconds plus the last
/// result.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&samples), last.expect("at least one repetition"))
}

/// Ratio that reads 0 instead of NaN when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a 64-bit digest, rendered as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

// ------------------------------------------------------------------ checks

/// Output verification: every check and every workload operation counts as attempted;
/// failures are reported on stderr and feed `error_rate`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchv3: check failed: {}", what());
        }
    }

    /// Records one check that `actual` equals `expected`.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        actual: T,
        expected: T,
    ) {
        let ok = actual == expected;
        self.check(ok, || {
            format!("{what}: got {actual:?}, expected {expected:?}")
        });
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.check(false, || what.to_string());
    }
}

// ------------------------------------------------------------------ metrics

/// The metric table a run prints: name → (value, unit), sorted by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets (or overwrites) a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.into(), (value, unit));
    }

    /// Whether `name` has been set.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// Keeps only the named metrics.
    pub fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.0.retain(|name, _| keep(name));
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(name, (value, unit))| {
            (
                name.as_str(),
                Json::obj([("value", value.to_json()), ("unit", unit.to_json())]),
            )
        }))
    }
}

// ------------------------------------------------------------------ spans

/// One recorded span: a timed call into a layer, with the span that caused it.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub track: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder. Disabled recorders only run the wrapped closure, so the
/// untraced passes execute exactly the same calls without the bookkeeping.
pub struct Tracer {
    enabled: bool,
    track: usize,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `track` tells concurrent recorders (one per client thread) apart.
    pub fn new(enabled: bool, track: usize, origin: Instant) -> Self {
        Tracer {
            enabled,
            track,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name` (named `<layer>.<call>`).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            track: self.track,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// A recorder for another thread: same on/off state and clock, its own track.
    pub fn fork(&self, track: usize) -> Tracer {
        Tracer::new(self.enabled, track, self.origin)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Moves another recorder's spans into this one (parent indices rebased).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per layer (the span's duration minus what its children cover), in
    /// seconds, plus the summed duration of root spans.
    pub fn self_time_by_layer(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut roots = 0.0;
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *layers.entry(layer).or_default() += dur.saturating_sub(*children) as f64 * 1e-9;
            if s.parent.is_none() {
                roots += dur as f64 * 1e-9;
            }
        }
        (layers, roots)
    }

    /// The spans as a JSON document (`name`, `track`, `start_ns`, `end_ns`, `parent`).
    pub fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().map(|s| {
            Json::obj([
                ("name", s.name.to_json()),
                ("track", (s.track as u64).to_json()),
                ("start_ns", s.start_ns.to_json()),
                ("end_ns", s.end_ns.to_json()),
                ("parent", s.parent.map(|p| p as u64).to_json()),
            ])
        }))
    }
}

/// Every counter of a telemetry registry.
pub fn counters(registry: &Registry) -> BTreeMap<String, u64> {
    registry.counters_with_prefix("").into_iter().collect()
}

/// `after − before` per counter (counters only grow).
pub fn delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// A counter from a delta map, as `f64`.
pub fn get(map: &BTreeMap<String, u64>, name: &str) -> f64 {
    map.get(name).copied().unwrap_or(0) as f64
}
