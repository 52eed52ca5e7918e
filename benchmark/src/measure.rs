//! Host-side measurement: the clock, percentiles, peak memory, the output
//! digest and the benchmark's own span recorder.

use std::time::Instant;

use faasnap_obs::{TraceContext, Tracer};
use sim_core::time::SimTime;

/// Nearest-rank percentile of `samples` (`p` in `[0, 100]`); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A fixed job of the benchmark's own, timed between rounds so host speed
/// can be stated relative to the machine's speed at that moment. The
/// machine shares its cores with other tenants: over minutes, the same
/// work takes ±15% longer or shorter, and the reference moves with it.
/// The job mixes what the simulator spends its time on: heap
/// allocation, ordered-map pointer chasing, scattered writes over a few
/// MB, and sorting. No simulator code runs in it, so a change to the
/// simulator leaves it alone.
pub struct Reference {
    scratch: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            scratch: vec![0; Self::SCRATCH_WORDS],
        }
    }
}

impl Reference {
    /// 4 MiB of scattered writes: past the private caches.
    const SCRATCH_WORDS: usize = 1 << 19;

    /// Runs the job once; returns its host time in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.job());
        t.elapsed().as_secs_f64() * 1e3
    }

    fn job(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut map = std::collections::BTreeMap::new();
        for _ in 0..30_000 {
            map.insert(next() % 1_000_000, next());
        }
        let mut acc = 0u64;
        for _ in 0..30_000 {
            if let Some(v) = map.get(&(next() % 1_000_000)) {
                acc ^= v;
            }
        }
        let mask = Self::SCRATCH_WORDS - 1;
        for _ in 0..200_000 {
            let i = next() as usize & mask;
            self.scratch[i] = self.scratch[i].wrapping_add(next());
        }
        let mut v: Vec<u64> = (0..100_000).map(|_| next()).collect();
        v.sort_unstable();
        acc ^ v[v.len() / 2] ^ self.scratch[(acc as usize) & mask]
    }
}

/// FNV-1a over every simulated output a workload produces. Host timings
/// never enter it, so two runs of one seed — traced or not — must agree.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value in.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a float in by its bit pattern.
    pub fn add_f64(&mut self, v: f64) {
        self.add(v.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Benchmark-side spans around the public calls into each layer. The
/// timestamps are host nanoseconds since the run started; spans stay in
/// memory and are written once, at the end, as Chrome trace JSON. While
/// not recording, the recorder still times calls.
pub struct Spans {
    start: Instant,
    live: Tracer,
    off: Tracer,
    recording: bool,
}

impl Spans {
    /// A recorder whose clock starts now; `enabled` gives it a buffer.
    pub fn new(enabled: bool) -> Self {
        Spans {
            start: Instant::now(),
            live: if enabled {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            },
            off: Tracer::disabled(),
            recording: enabled,
        }
    }

    /// Starts or stops recording spans into the buffer.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// Runs `f` inside a span named `name` under `parent`, tagged with the
    /// request id, and returns its result with its host duration in
    /// nanoseconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: TraceContext,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let (out, _, ns) = self.time_ctx(name, parent, request, |_| f());
        (out, ns)
    }

    /// Like [`Spans::time`], but hands the span's own context to `f` so
    /// sub-calls can nest under it.
    pub fn time_ctx<T>(
        &self,
        name: &'static str,
        parent: TraceContext,
        request: u64,
        f: impl FnOnce(TraceContext) -> T,
    ) -> (T, TraceContext, u64) {
        let tracer = if self.recording {
            &self.live
        } else {
            &self.off
        };
        let begin = self.now();
        let ctx = tracer.begin(name, "bench", begin, parent);
        tracer.tag(ctx, "request", request);
        let out = f(ctx);
        let end = self.now();
        tracer.end(ctx, end);
        (out, ctx, end.since(begin).as_nanos())
    }

    /// The recorded spans.
    pub fn tracer(&self) -> &Tracer {
        &self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 6.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add(1);
        a.add(2);
        b.add(2);
        b.add(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn spans_nest_and_time() {
        let spans = Spans::new(true);
        let (v, _, outer_ns) = spans.time_ctx("outer", TraceContext::NONE, 7, |ctx| {
            spans.time("inner", ctx, 7, || 3).0
        });
        assert_eq!(v, 3);
        assert!(outer_ns > 0);
        let recorded = spans.tracer().spans();
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded[1].name, "inner");
        assert!(!recorded[1].parent.is_none());
    }
}
