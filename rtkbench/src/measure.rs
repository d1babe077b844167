//! Measurement helpers: quantiles, span self time, the host reference
//! kernel, process CPU and memory, and the per-layer call probe.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rtk_obs::SpanRecord;

/// The `q`-quantile of `xs` (nearest rank on a sorted copy).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Sums self time by span kind, in nanoseconds. A span's self time is its
/// duration minus the part of that interval its child spans cover; child
/// intervals are clipped to the parent and merged first, because spans
/// recorded on the wire server thread can overlap each other or outlive
/// the client span that caused them.
pub fn self_time_by_kind(spans: &[SpanRecord]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0 && s.dur_ns() > 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.open) {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        *out.entry(s.kind).or_insert(0) += s.dur_ns() - covered;
    }
    out
}

/// One call of the host reference kernel: `alloc_units` units of small
/// allocations and hashing plus `alu_iters` iterations of register-only
/// arithmetic, both fixed, pure Rust and independent of the toolkit.
///
/// On a shared 2-vCPU host the speed of memory-bound code flips between
/// two phases lasting one to ten seconds (the allocation part runs about
/// 1.75x slower in the slow one), while register-only code stays within a
/// few percent. An op is partly of each kind, so each workload's call
/// mixes the two parts in the proportion its ops have; then op time over
/// reference time stays level across the phases. The mix was fit once by
/// regressing per-block op time on allocation-kernel time over both phases.
#[derive(Clone, Copy, Debug)]
pub struct RefCall {
    pub alloc_units: u32,
    pub alu_iters: u64,
}

/// A reference call's parts on the nominal host: an x86-64 vCPU of a
/// shared 2-vCPU machine in its fast phase. Normalized times are scaled
/// to this host, so they read close to its raw microseconds.
const NOMINAL_ALLOC_UNIT_US: f64 = 9.5;
const NOMINAL_ALU_ITER_US: f64 = 0.0022;

impl RefCall {
    /// Runs the call once and returns its wall time in microseconds.
    pub fn time_us(self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(alloc_kernel(self.alloc_units) ^ alu_kernel(self.alu_iters));
        t.elapsed().as_secs_f64() * 1e6
    }

    /// The call's wall time on the nominal host, in microseconds.
    pub fn nominal_us(self) -> f64 {
        f64::from(self.alloc_units) * NOMINAL_ALLOC_UNIT_US
            + self.alu_iters as f64 * NOMINAL_ALU_ITER_US
    }
}

/// Register-only arithmetic: a multiply-add-xorshift chain the compiler
/// cannot fold. Returns the chain's end so the work cannot be dropped.
fn alu_kernel(iters: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..iters {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 17);
    }
    std::hint::black_box(x)
}

/// Units of small allocations and hashing, the kind of work the toolkit
/// does per op. Returns a checksum so the work cannot be optimized away.
fn alloc_kernel(units: u32) -> u64 {
    let mut sum = 0u64;
    for u in 0..units {
        let mut keep: Vec<String> = Vec::with_capacity(16);
        for i in 0..64u32 {
            let s = format!("ref-{u}-{i}-{}", i.wrapping_mul(2_654_435_761));
            let mut h = std::collections::hash_map::DefaultHasher::new();
            s.hash(&mut h);
            sum = sum.wrapping_add(h.finish());
            if i % 4 == 0 {
                keep.push(s);
            }
        }
        sum = sum.wrapping_add(keep.iter().map(String::len).sum::<usize>() as u64);
    }
    std::hint::black_box(sum)
}

/// Process CPU time (user + system, all threads) in microseconds, from
/// `/proc/self/stat` (clock ticks of 10 ms on Linux).
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    ticks as f64 * 10_000.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread it spawns later (the wire
/// transport's dispatcher among them), to the first CPU this process may
/// use, and returns that CPU.
///
/// On a small virtual machine, waking a thread on the other, idle vCPU
/// costs anywhere from tens to hundreds of microseconds depending on the
/// host's load, and whole runs slowed down twofold at random. On one CPU
/// each client-to-dispatcher hop is a local context switch, so run-to-run
/// differences follow the program and the host's speed, not vCPU wake-ups.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let cpu: usize = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| {
            let first = list.trim().split([',', '-']).next()?;
            first.parse().ok()
        })
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or("CPU number beyond 1023")? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized buffer of exactly
    // `size_of_val(&mask)` bytes, which the kernel only reads; pid 0 names
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!("sched_setaffinity to CPU {cpu} failed"))
    }
}

/// The layer entry points the harness times in a traced run.
#[derive(Clone, Copy)]
pub enum Call {
    TclEval,
    TkEval,
    TkDispatch,
    TkUpdate,
    XsimInput,
}

pub const CALLS: [(Call, &str); 5] = [
    (Call::TclEval, "tcl.eval_us"),
    (Call::TkEval, "tk.eval_us"),
    (Call::TkDispatch, "tk.dispatch_us"),
    (Call::TkUpdate, "tk.update_us"),
    (Call::XsimInput, "xsim.input_us"),
];

/// Times the harness's calls into each layer's public functions. Off, it
/// only forwards the call, so an untimed run pays one branch per call.
#[derive(Default)]
pub struct Probe {
    on: Cell<bool>,
    ns: [Cell<u64>; 5],
}

impl Probe {
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    pub fn call<R>(&self, call: Call, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let slot = &self.ns[call as usize];
        slot.set(slot.get() + t.elapsed().as_nanos() as u64);
        r
    }

    /// Total nanoseconds spent in `call` while the probe was on.
    pub fn total_ns(&self, call: Call) -> u64 {
        self.ns[call as usize].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            kind,
            detail: String::new(),
            client: 0,
            seq: 0,
            start_ns: start,
            end_ns: end,
            start_vms: 0,
            end_vms: 0,
            epoch: 0,
            open: false,
        }
    }

    #[test]
    fn self_time_subtracts_merged_clipped_children() {
        // update [0,100) has two overlapping children [10,40) and [30,50)
        // (union 40) and one that runs past its end, [90,120) (10 inside).
        // The first child has a grandchild of 5 and an instant.
        let spans = vec![
            span(1, 0, "update", 0, 100),
            span(2, 1, "redraw", 10, 40),
            span(3, 1, "flush", 30, 50),
            span(4, 1, "flush", 90, 120),
            span(5, 2, "rasterize", 20, 25),
            span(6, 2, "damage", 22, 22),
        ];
        let st = self_time_by_kind(&spans);
        assert_eq!(st["update"], 100 - 40 - 10);
        assert_eq!(st["redraw"], 30 - 5);
        assert_eq!(st["flush"], 20 + 30);
        assert_eq!(st["rasterize"], 5);
        assert_eq!(st["damage"], 0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.95), 95.0);
        assert_eq!(quantile(&[3.0], 0.95), 3.0);
    }
}
