//! Access statistics and bandwidth reporting.

use crate::{Picos, Request, RequestOutcome};

/// Counters accumulated by a controller or an entire memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of requests served.
    pub requests: u64,
    /// Bytes moved memory → FPGA.
    pub bytes_read: u64,
    /// Bytes moved FPGA → memory.
    pub bytes_written: u64,
    /// Row activations issued.
    pub activations: u64,
    /// Requests that found their row already open.
    pub row_hits: u64,
    /// Requests that required an activate.
    pub row_misses: u64,
    /// Sum of per-request latencies (arrival to last beat).
    pub latency_sum: Picos,
    /// Largest single-request latency observed.
    pub latency_max: Picos,
    /// Earliest data beat observed (start of the measured interval).
    pub first_beat: Option<Picos>,
    /// Latest data beat observed (end of the measured interval).
    pub last_beat: Picos,
}

impl Stats {
    /// Total bytes moved in either direction.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Fraction of requests that hit an open row, in `[0, 1]`.
    /// Returns 0 when no requests were recorded.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Mean request latency; zero when no requests were recorded.
    pub fn latency_mean(&self) -> Picos {
        if self.requests == 0 {
            Picos::ZERO
        } else {
            self.latency_sum / self.requests
        }
    }

    /// Time from the first data beat to the last (the busy interval used
    /// for bandwidth computation).
    pub fn makespan(&self) -> Picos {
        self.last_beat
            .saturating_sub(self.first_beat.unwrap_or(Picos::ZERO))
    }

    /// Achieved bandwidth over [0, `last_beat`] in GB/s (1 GB = 1e9 B).
    ///
    /// Measured from time zero rather than from the first beat so that
    /// initial latency counts against throughput, matching the paper's
    /// whole-application throughput definition.
    pub fn bandwidth_gbps(&self) -> f64 {
        if self.last_beat == Picos::ZERO {
            return 0.0;
        }
        self.bytes_total() as f64 / self.last_beat.as_ps() as f64 * 1_000.0
    }

    /// Folds the timing of one request into the counters.
    pub(crate) fn record(&mut self, req: &Request, out: &RequestOutcome) {
        self.requests += 1;
        let lat = out.latency_from(req.at);
        self.latency_sum += lat;
        self.latency_max = self.latency_max.max(lat);
        if self.first_beat.is_none_or(|fb| out.data_start < fb) {
            self.first_beat = Some(out.data_start);
        }
        self.last_beat = self.last_beat.max(out.done);
    }

    /// Counter-wise difference `self − before` for the monotonic
    /// counters, keeping the interval fields (`latency_max`,
    /// `first_beat`, `last_beat`) from `self` — the shape every
    /// "stats since a snapshot" call site needs (phase reports, stream
    /// replay summaries, per-tenant service accounting). Subtractions
    /// saturate, so a mismatched snapshot can never panic mid-run.
    pub fn delta(&self, before: &Stats) -> Stats {
        Stats {
            requests: self.requests.saturating_sub(before.requests),
            bytes_read: self.bytes_read.saturating_sub(before.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(before.bytes_written),
            activations: self.activations.saturating_sub(before.activations),
            row_hits: self.row_hits.saturating_sub(before.row_hits),
            row_misses: self.row_misses.saturating_sub(before.row_misses),
            latency_sum: self.latency_sum.saturating_sub(before.latency_sum),
            latency_max: self.latency_max,
            first_beat: self.first_beat,
            last_beat: self.last_beat,
        }
    }

    /// `self` with `k` more copies of the counters it gained since
    /// `before` — what `k` more runs add that repeat the last one (the
    /// same hits and misses), each completing `drift` later than the
    /// one before relative to its arrivals. With `drift` zero the
    /// latencies repeat too. Otherwise repeat *j* adds the last run's
    /// latency sum `L` plus `j·drift` per request, so the `k` repeats of
    /// a run of `b` requests add `k·L + drift·b·k(k+1)/2`; the last
    /// run's largest latency, then the maximum, grows by `k·drift` — so
    /// the last run must have raised the maximum (`None` otherwise: its
    /// own largest latency is unknown). `first_beat` stays (repeats
    /// start no earlier beat) and the caller moves `last_beat`. `None`
    /// when a counter would overflow.
    pub(crate) fn plus_repeats(&self, k: u64, before: &Stats, drift: u64) -> Option<Stats> {
        let add = |now: u64, then: u64| now.checked_sub(then)?.checked_mul(k)?.checked_add(now);
        let requests = self.requests.checked_sub(before.requests)?;
        let (series, latency_max) = if drift == 0 {
            (0, self.latency_max)
        } else if self.latency_max > before.latency_max {
            let wide = |x: u64| u128::from(x);
            let series = (wide(k).checked_mul(wide(k) + 1)? / 2)
                .checked_mul(wide(drift))?
                .checked_mul(wide(requests))?;
            let series = u64::try_from(series).ok()?;
            let max = self
                .latency_max
                .as_ps()
                .checked_add(k.checked_mul(drift)?)?;
            (series, Picos(max))
        } else {
            return None;
        };
        let latency_sum = add(self.latency_sum.as_ps(), before.latency_sum.as_ps())?;
        Some(Stats {
            requests: add(self.requests, before.requests)?,
            bytes_read: add(self.bytes_read, before.bytes_read)?,
            bytes_written: add(self.bytes_written, before.bytes_written)?,
            activations: add(self.activations, before.activations)?,
            row_hits: add(self.row_hits, before.row_hits)?,
            row_misses: add(self.row_misses, before.row_misses)?,
            latency_sum: Picos(latency_sum.checked_add(series)?),
            latency_max,
            ..*self
        })
    }

    /// Merges another counter set into `self` (used to aggregate vaults).
    pub fn merge(&mut self, other: &Stats) {
        self.requests += other.requests;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.activations += other.activations;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.latency_sum += other.latency_sum;
        self.latency_max = self.latency_max.max(other.latency_max);
        self.first_beat = match (self.first_beat, other.first_beat) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_beat = self.last_beat.max(other.last_beat);
    }
}

/// A bandwidth figure paired with the peak it is measured against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthReport {
    /// Achieved bandwidth in GB/s.
    pub achieved_gbps: f64,
    /// Device peak bandwidth in GB/s.
    pub peak_gbps: f64,
}

impl BandwidthReport {
    /// Peak-bandwidth utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.peak_gbps == 0.0 {
            0.0
        } else {
            self.achieved_gbps / self.peak_gbps
        }
    }
}

impl std::fmt::Display for BandwidthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2} GB/s ({:.1}% of {:.1} GB/s peak)",
            self.achieved_gbps,
            self.utilization() * 100.0,
            self.peak_gbps
        )
    }
}

impl Stats {
    /// Serializes the counters as a JSON object (timestamps in ps).
    pub fn to_json(&self) -> String {
        let mut o = sim_util::json::JsonObject::new();
        o.field_u64("requests", self.requests);
        o.field_u64("bytes_read", self.bytes_read);
        o.field_u64("bytes_written", self.bytes_written);
        o.field_u64("activations", self.activations);
        o.field_u64("row_hits", self.row_hits);
        o.field_u64("row_misses", self.row_misses);
        o.field_f64("row_hit_rate", self.row_hit_rate());
        o.field_u64("latency_mean_ps", self.latency_mean().as_ps());
        o.field_u64("latency_max_ps", self.latency_max.as_ps());
        match self.first_beat {
            Some(t) => o.field_u64("first_beat_ps", t.as_ps()),
            None => o.field_raw("first_beat_ps", "null"),
        };
        o.field_u64("last_beat_ps", self.last_beat.as_ps());
        o.finish()
    }
}

impl BandwidthReport {
    /// Serializes the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = sim_util::json::JsonObject::new();
        o.field_f64("achieved_gbps", self.achieved_gbps);
        o.field_f64("peak_gbps", self.peak_gbps);
        o.field_f64("utilization", self.utilization());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Direction, Location};

    fn record_one(stats: &mut Stats, at: u64, start: u64, done: u64) {
        let req = Request {
            loc: Location::ZERO,
            bytes: 8,
            dir: Direction::Read,
            at: Picos(at),
        };
        let out = RequestOutcome {
            data_start: Picos(start),
            done: Picos(done),
            row_hit: true,
        };
        stats.record(&req, &out);
    }

    #[test]
    fn empty_stats_are_well_defined() {
        let s = Stats::default();
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.latency_mean(), Picos::ZERO);
        assert_eq!(s.bandwidth_gbps(), 0.0);
        assert_eq!(s.makespan(), Picos::ZERO);
    }

    #[test]
    fn record_tracks_extremes_and_means() {
        let mut s = Stats::default();
        record_one(&mut s, 0, 10, 20);
        record_one(&mut s, 5, 30, 105);
        assert_eq!(s.requests, 2);
        assert_eq!(s.latency_max, Picos(100));
        assert_eq!(s.latency_mean(), Picos(60));
        assert_eq!(s.first_beat, Some(Picos(10)));
        assert_eq!(s.last_beat, Picos(105));
        assert_eq!(s.makespan(), Picos(95));
    }

    #[test]
    fn merge_combines_intervals() {
        let mut a = Stats::default();
        record_one(&mut a, 0, 10, 20);
        a.bytes_read = 8;
        let mut b = Stats::default();
        record_one(&mut b, 0, 5, 50);
        b.bytes_written = 16;
        a.merge(&b);
        assert_eq!(a.requests, 2);
        assert_eq!(a.bytes_total(), 24);
        assert_eq!(a.first_beat, Some(Picos(5)));
        assert_eq!(a.last_beat, Picos(50));
    }

    #[test]
    fn bandwidth_math() {
        // 1000 bytes over 1000 ns => 1 GB/s.
        let s = Stats {
            bytes_read: 1000,
            last_beat: Picos::from_ns(1000),
            ..Stats::default()
        };
        assert!((s.bandwidth_gbps() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn report_utilization_and_display() {
        let r = BandwidthReport {
            achieved_gbps: 20.0,
            peak_gbps: 80.0,
        };
        assert!((r.utilization() - 0.25).abs() < 1e-12);
        assert!(r.to_string().contains("25.0%"));
        let zero = BandwidthReport {
            achieved_gbps: 1.0,
            peak_gbps: 0.0,
        };
        assert_eq!(zero.utilization(), 0.0);
    }
}
