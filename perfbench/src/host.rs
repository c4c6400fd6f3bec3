//! What the host can tell about itself: the stamp every result carries,
//! peak resident memory, and order statistics of timings.

use std::path::Path;
use std::time::Instant;

use sim_util::json::JsonObject;

/// The host stamp: enough to attribute a result to the machine, build
/// and inputs that produced it.
pub fn stamp(workload: &str, seed: u64, threads: usize, trace: bool) -> String {
    let mut o = JsonObject::new();
    o.field_str("workload", workload);
    o.field_u64("seed", seed);
    o.field_u64("threads", threads as u64);
    o.field_bool("trace", trace);
    o.field_u64("available_parallelism", available_parallelism() as u64);
    o.field_str("cpu_max", &cpu_max());
    o.field_str(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    o.field_str("git_rev", &git_rev());
    let mut outer = JsonObject::new();
    outer.field_raw("stamp", &o.finish());
    outer.finish()
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The cgroup CPU quota: v2 `cpu.max`, else v1 quota and period, else
/// `"unlimited"` when neither file exists.
fn cpu_max() -> String {
    if let Ok(s) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        return s.trim().to_string();
    }
    let v1 = |f: &str| std::fs::read_to_string(format!("/sys/fs/cgroup/cpu/{f}")).ok();
    match (v1("cpu.cfs_quota_us"), v1("cpu.cfs_period_us")) {
        (Some(q), Some(p)) => format!("{} {}", q.trim(), p.trim()),
        _ => "unlimited".to_string(),
    }
}

/// The commit the benchmark runs on, read from `.git` in the working
/// directory (no process is spawned), or `"unknown"` (e.g. in an
/// exported source tree).
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What [`Calibration::run`] takes with one copy on the reference host
/// (2 vCPUs, Intel Xeon at 2.0 GHz, Linux 6.18): the median of
/// `calib_ms_p50` over three `table2_app` runs (14.53, 14.21 and
/// 14.13 ms), rounded.
/// Host times are reported in reference milliseconds:
/// measured time × this ÷ the calibration time measured right after it,
/// i.e. what the measurement would have taken at that host speed.
pub const CALIB_REF_MS: f64 = 14.2;

/// A fixed reference workload that shares no code with the simulator,
/// run as one copy per thread the measured iteration uses: the shared
/// host the benchmark was built on drifts by a fifth to two fifths
/// within minutes, and dividing by this cancels the drift while keeping
/// the simulator's own cost. A pooled iteration on two vCPUs is
/// divided by two copies running at once, so that it is compared with
/// the speed of both vCPUs, not of one.
pub struct Calibration {
    copies: Vec<Reference>,
}

impl Calibration {
    pub fn new(threads: usize) -> Self {
        Calibration {
            copies: (0..threads.max(1)).map(|_| Reference::new()).collect(),
        }
    }

    /// Runs every copy at once; returns the time until all are done, in
    /// ms.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        match self.copies.as_mut_slice() {
            [one] => one.run(),
            copies => std::thread::scope(|s| {
                for c in copies {
                    s.spawn(|| c.run());
                }
            }),
        }
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// One copy of the reference workload: random updates to a 1 MiB table,
/// then a refill, sort and binary searches of an 800 KB buffer, so that
/// cache, branch and memory behaviour all weigh in. Its buffers are
/// allocated once, so it does not call the allocator the simulator uses.
struct Reference {
    table: Vec<u64>,
    keys: Vec<u64>,
}

impl Reference {
    fn new() -> Self {
        Reference {
            table: vec![0; 1 << 17],
            keys: vec![0; 100_000],
        }
    }

    fn run(&mut self) {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mask = self.table.len() - 1;
        for i in 0..500_000u64 {
            let r = next();
            let j = r as usize & mask;
            self.table[j] = self.table[j].wrapping_add(i ^ r);
            if self.table[j] & 3 == 0 {
                self.table[(j * 7) & mask] ^= r;
            }
        }
        for k in self.keys.iter_mut() {
            *k = next();
        }
        self.keys.sort_unstable();
        let mut found = 0usize;
        for _ in 0..200_000 {
            found += self.keys.binary_search(&next()).unwrap_or_else(|i| i) & 1;
        }
        std::hint::black_box((self.table[self.keys[0] as usize & mask], found));
    }
}

/// Peak resident set size (`VmHWM`) in MiB, or `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The `p`-th percentile (0–100) of `v` by linear interpolation between
/// closest ranks. `v` must be non-empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(percentile(&v, 90.0), 10.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[3.0]), 3.0);
    }
}
