//! Measurement helpers: percentiles, process CPU time and peak memory,
//! CPU pinning, and the in-memory span recorder of the traced run.
//!
//! The OS calls assume 64-bit Linux (`long` and `time_t` are 64 bits).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct` % of the samples at or below it. `None` for an
/// empty slice or a `pct` outside 0–100.
pub fn nearest_rank(sorted: &[u64], pct: f64) -> Option<u64> {
    if sorted.is_empty() || !(0.0..=100.0).contains(&pct) {
        return None;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a non-empty set of values (mean of the middle two for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Resource use of this process so far, all threads included.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time, in seconds.
    pub cpu_s: f64,
    /// Peak resident set size, in kilobytes.
    pub peak_rss_kb: u64,
}

/// Reads [`Usage`] through `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a writable `struct rusage` with the 64-bit Linux
    // layout (two timevals of two longs, then fourteen longs).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_kb: u64::try_from(ru.maxrss).unwrap_or(0),
    }
}

/// A `cpu_set_t`: 1024 CPUs.
type CpuSet = [u64; 16];

/// Pins the calling thread, and every thread it spawns later, to the
/// highest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self time of each span in `spans`: its duration minus the part of
/// it that its child spans cover. `base` is the index of `spans[0]` in
/// the recorder, which parent indices refer to.
pub fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
    (0..spans.len())
        .map(|i| {
            let s = &spans[i];
            let mut covered: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(base + i))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort_unstable();
            let mut total = 0;
            let mut reach = s.start_ns;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    total += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(total)
        })
        .collect()
}

/// Calls and summed self time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    pub calls: u64,
    pub self_ns: u64,
}

/// Spans kept for the written trace; later operations are still
/// aggregated into the layer totals.
const KEPT_SPANS: usize = 200_000;

/// Records spans in memory, one operation at a time, and folds each
/// closed operation's self times into per-layer totals.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    op: u64,
    op_first: usize,
    layers: BTreeMap<&'static str, Layer>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            op: 0,
            op_first: 0,
            layers: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of the current operation.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, parent);
        let out = f();
        self.end(span);
        out
    }

    /// Ends the current operation: adds its spans' self times to the
    /// layer totals and starts the next operation.
    pub fn close_op(&mut self) {
        let ops = &self.spans[self.op_first..];
        for (span, self_ns) in ops.iter().zip(self_times(ops, self.op_first)) {
            let layer = self.layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.self_ns += self_ns;
        }
        if self.spans.len() > KEPT_SPANS {
            self.spans.truncate(self.op_first);
        }
        self.op += 1;
        self.op_first = self.spans.len();
    }

    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Writes the kept spans as tab-separated lines.
    pub fn write_tsv(&self, mut out: impl Write) -> io::Result<()> {
        writeln!(out, "span\top\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5));
        assert_eq!(nearest_rank(&v, 90.0), Some(9));
        assert_eq!(nearest_rank(&v, 91.0), Some(10));
        assert_eq!(nearest_rank(&v, 100.0), Some(10));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        assert_eq!(nearest_rank(&[7], 50.0), Some(7));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&v, 101.0), None);
        let odd = [1, 2, 3, 4, 100];
        assert_eq!(nearest_rank(&odd, 50.0), Some(3));
        assert_eq!(nearest_rank(&odd, 90.0), Some(100));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children_once() {
        let spans = [
            span(None, 0, 100),     // 0: root
            span(Some(0), 10, 40),  // 1: child
            span(Some(1), 15, 25),  // 2: grandchild, inside 1
            span(Some(0), 30, 60),  // 3: child overlapping 1
            span(Some(0), 90, 130), // 4: child running past the root
        ];
        // Root: children cover 10..60 and 90..100.
        assert_eq!(self_times(&spans, 0), vec![40, 20, 10, 30, 40]);
        // Parent indices are relative to `base`.
        let shifted: Vec<Span> = spans
            .iter()
            .map(|s| Span {
                parent: s.parent.map(|p| p + 7),
                ..*s
            })
            .collect();
        assert_eq!(self_times(&shifted, 7), vec![40, 20, 10, 30, 40]);
    }

    #[test]
    fn tracer_folds_closed_ops_into_layers() {
        let mut t = Tracer::default();
        for _ in 0..3 {
            let root = t.begin("op", None);
            t.time("leaf", Some(root), || std::hint::black_box(1 + 1));
            t.end(root);
            t.close_op();
        }
        assert_eq!(t.layer("op").calls, 3);
        assert_eq!(t.layer("leaf").calls, 3);
        assert_eq!(t.layer("none"), Layer::default());
        let mut out = Vec::new();
        t.write_tsv(&mut out).expect("writes to memory");
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(text.lines().count(), 7);
        assert!(text
            .lines()
            .nth(2)
            .expect("a leaf")
            .contains("\t0\t0\tleaf\t"));
    }

    #[test]
    fn cpu_time_counts_work_on_every_thread() {
        let burn = || {
            let t = Instant::now();
            let mut x = 0u64;
            while t.elapsed().as_millis() < 60 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
            x
        };
        let before = usage().cpu_s;
        std::thread::scope(|s| {
            s.spawn(burn);
        });
        burn();
        let spent = usage().cpu_s - before;
        assert!(spent >= 0.1, "two 60 ms burns read {spent} s");
    }

    #[test]
    fn peak_rss_covers_touched_memory() {
        let mut block = vec![0u8; 64 << 20];
        for page in block.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&block);
        let peak = usage().peak_rss_kb;
        assert!(peak >= 64 << 10, "64 MiB touched, peak reads {peak} kB");
    }
}
