//! Design-space exploration — the paper's stated future work: "a design
//! framework targeted at throughput-oriented signal processing kernels,
//! which enables automatic data layout optimizations".
//!
//! [`explore`](System::explore) sweeps kernel lane counts against the
//! full layout-family registry ([`layout::enumerate_candidates`]) for a
//! problem size, simulates each candidate's column phase **in
//! parallel** on the `sim-exec` work-stealing pool, costs it on the
//! FPGA, and returns the candidates with their throughput/resource
//! trade-off. [`pareto_front`] filters them to the throughput-vs-DSP
//! Pareto set.
//!
//! The sweep is layout-oblivious: no concrete layout type appears here.
//! Candidates are [`FamilySpec`]s from the registry, built through
//! [`layout::FamilyId::build`], and simulated through the
//! [`layout::LayoutFamily`] trait — registering a new family makes the
//! explorer race it with zero changes in this module.
//!
//! Three contracts the sweep upholds:
//!
//! * **determinism** — candidates are enumerated in a fixed order and
//!   results reassembled by submission index, so the output (including
//!   its JSON serialization) is byte-identical whether the pool runs 1
//!   thread or 64 (`SIM_EXEC_THREADS=1` is the sequential reference);
//! * **no silent truncation** — infeasible candidates are counted per
//!   reason in [`SkipCounts`] instead of being dropped without record;
//! * **fault isolation** — a candidate whose simulation errors or
//!   panics becomes an [`ExploreFailure`] entry for *that* design point
//!   while every other point completes.

use fpga_model::Resources;
use layout::{enumerate_candidates, FamilyId, FamilySpec, LayoutError, LayoutParams};
use mem3d::{Direction, Picos};
use sim_exec::ExecConfig;
use sim_util::json::{self, JsonObject};

use crate::cache::{column_key, point_key, CacheStats, ExploreCache};
use crate::{
    run_phase, Architecture, ColumnPhaseResult, DriverConfig, Fft2dError, ProcessorModel, System,
};

/// One evaluated design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Kernel lanes (elements per cycle).
    pub lanes: usize,
    /// Which layout family this point raced.
    pub family: FamilyId,
    /// The family's swept parameter (block height for the block
    /// families, tile rows for the tiled one, map variant for
    /// row-major).
    pub h: usize,
    /// Column-phase throughput in GB/s (closed loop, kernel-coupled).
    pub throughput_gbps: f64,
    /// FPGA resources of the processor.
    pub resources: Resources,
    /// Achieved clock in MHz.
    pub clock_mhz: f64,
    /// Whether the design fits the device budget.
    pub fits: bool,
}

impl DesignPoint {
    /// Serializes the point as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("lanes", self.lanes as u64);
        o.field_str("family", self.family.name());
        o.field_u64("h", self.h as u64);
        o.field_f64("throughput_gbps", self.throughput_gbps);
        o.field_f64("clock_mhz", self.clock_mhz);
        o.field_bool("fits", self.fits);
        o.field_raw("resources", &self.resources.to_json());
        o.finish()
    }

    /// Parses a point back from a parsed JSON value — the inverse of
    /// [`to_json`](Self::to_json), used by the exploration cache to
    /// replay persisted points. Returns `None` when any field is
    /// missing or ill-typed (e.g. a non-finite throughput emitted as
    /// `null`), which the cache treats as a miss and re-evaluates.
    pub fn from_json(v: &json::Value) -> Option<DesignPoint> {
        Some(DesignPoint {
            lanes: usize::try_from(v.get("lanes")?.as_i64()?).ok()?,
            family: FamilyId::from_name(v.get("family")?.as_str()?)?,
            h: usize::try_from(v.get("h")?.as_i64()?).ok()?,
            throughput_gbps: v.get("throughput_gbps")?.as_f64()?,
            clock_mhz: v.get("clock_mhz")?.as_f64()?,
            fits: v.get("fits")?.as_bool()?,
            resources: Resources::from_json(v.get("resources")?)?,
        })
    }
}

/// Why candidates were excluded from a sweep, per reason — returned
/// alongside the design points so truncated coverage is visible instead
/// of silently dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipCounts {
    /// Lane *values* rejected up front (zero, not a power of two, or
    /// larger than the problem size); each bad value counts once.
    pub invalid_lanes: usize,
    /// `(lanes, family)` candidates whose layout is infeasible.
    pub infeasible_layout: usize,
    /// `(lanes, family)` candidates whose processor cannot be
    /// constructed.
    pub infeasible_processor: usize,
    /// The structured reason of the most recent layout skip (which
    /// constructor parameter was infeasible), threaded up from
    /// [`LayoutError`] so skip accounting names the constraint, not
    /// just a count.
    pub last_layout_skip: Option<LayoutError>,
}

impl SkipCounts {
    /// Total skipped entries across all reasons.
    pub fn total(&self) -> usize {
        self.invalid_lanes + self.infeasible_layout + self.infeasible_processor
    }

    /// Serializes the counters as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("invalid_lanes", self.invalid_lanes as u64);
        o.field_u64("infeasible_layout", self.infeasible_layout as u64);
        o.field_u64("infeasible_processor", self.infeasible_processor as u64);
        if let Some(e) = &self.last_layout_skip {
            o.field_str("last_layout_skip", &e.to_string());
        }
        o.finish()
    }
}

impl std::fmt::Display for SkipCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} skipped ({} invalid lane values, {} infeasible layouts, \
             {} infeasible processors)",
            self.total(),
            self.invalid_lanes,
            self.infeasible_layout,
            self.infeasible_processor
        )?;
        if let Some(e) = &self.last_layout_skip {
            write!(f, "; last layout skip: {e}")?;
        }
        Ok(())
    }
}

/// A design point whose evaluation failed (simulation error, panic,
/// timeout or cancellation) without killing the rest of the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreFailure {
    /// Kernel lanes of the failed candidate.
    pub lanes: usize,
    /// Layout family of the failed candidate.
    pub family: FamilyId,
    /// Family parameter of the failed candidate.
    pub h: usize,
    /// What went wrong, stringified.
    pub error: String,
}

impl ExploreFailure {
    /// Serializes the failure as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("lanes", self.lanes as u64);
        o.field_str("family", self.family.name());
        o.field_u64("h", self.h as u64);
        o.field_str("error", &self.error);
        o.finish()
    }
}

/// The full outcome of a design-space sweep: every evaluated point,
/// plus an account of everything that was *not* evaluated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exploration {
    /// Evaluated design points, in candidate-enumeration order.
    pub points: Vec<DesignPoint>,
    /// Candidates excluded before simulation, per reason.
    pub skipped: SkipCounts,
    /// Candidates whose simulation failed (isolated, not fatal).
    pub failures: Vec<ExploreFailure>,
}

impl Exploration {
    /// Serializes the whole sweep outcome as one JSON object —
    /// deterministic, so parallel and sequential runs can be compared
    /// byte for byte.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_raw(
            "points",
            &json::array(self.points.iter().map(DesignPoint::to_json)),
        );
        o.field_raw("skipped", &self.skipped.to_json());
        o.field_raw(
            "failures",
            &json::array(self.failures.iter().map(ExploreFailure::to_json)),
        );
        o.finish()
    }
}

/// Per-candidate evaluation outcome, before reassembly into an
/// [`Exploration`].
enum Eval {
    Point(DesignPoint),
    SkipLayout(LayoutError),
    SkipProcessor,
    Failed(String),
}

impl System {
    /// Sweeps `lanes × h` for size `n` on the `sim-exec` pool configured
    /// from the environment (`SIM_EXEC_THREADS` etc.; see
    /// [`ExecConfig::from_env`]) and returns every evaluated design
    /// point plus skip/failure accounting.
    ///
    /// # Errors
    ///
    /// Reserved for sweep-level failures; per-candidate simulation
    /// errors are isolated into [`Exploration::failures`] instead.
    pub fn explore(&self, n: usize, lane_options: &[usize]) -> Result<Exploration, Fft2dError> {
        self.explore_with(&ExecConfig::from_env(), n, lane_options)
    }

    /// [`explore`](Self::explore) with an explicit executor
    /// configuration (thread count, seed, timeout, cancellation token).
    ///
    /// # Errors
    ///
    /// Reserved for sweep-level failures; per-candidate simulation
    /// errors are isolated into [`Exploration::failures`] instead.
    pub fn explore_with(
        &self,
        exec: &ExecConfig,
        n: usize,
        lane_options: &[usize],
    ) -> Result<Exploration, Fft2dError> {
        // One code path: an uncached sweep is a cached sweep against an
        // empty in-memory cache (every candidate misses).
        let mut cache = ExploreCache::in_memory();
        let (exploration, _stats) = self.explore_cached(exec, n, lane_options, &mut cache)?;
        Ok(exploration)
    }

    /// [`explore_with`](Self::explore_with) consulting (and extending)
    /// a persistent content-hashed cache: candidates whose key is
    /// already present are replayed without simulation, the rest are
    /// evaluated on the pool and appended to the cache through the
    /// ordered sink. The returned [`Exploration`] — including its JSON
    /// serialization — is **byte-identical** to an uncached sweep; the
    /// [`CacheStats`] tell the caller how much work the cache saved.
    ///
    /// Infeasible candidates (layout/processor skips) and isolated
    /// failures carry structured reasons that do not round-trip through
    /// the cache; they are re-derived on every run (cheap — no
    /// simulation happens on those paths) and counted as
    /// [`CacheStats::uncacheable`].
    ///
    /// # Errors
    ///
    /// Returns [`Fft2dError::Cache`] when newly-evaluated points cannot
    /// be appended to the cache's backing file; per-candidate
    /// simulation errors are isolated into [`Exploration::failures`].
    pub fn explore_cached(
        &self,
        exec: &ExecConfig,
        n: usize,
        lane_options: &[usize],
        cache: &mut ExploreCache,
    ) -> Result<(Exploration, CacheStats), Fft2dError> {
        let params = self.layout_params_pub(n);
        let mut skipped = SkipCounts::default();
        let specs = enumerate_candidates(&params);
        let mut candidates: Vec<(usize, FamilySpec)> = Vec::new();
        for &lanes in lane_options {
            if lanes == 0 || !lanes.is_power_of_two() || lanes > n {
                skipped.invalid_lanes += 1;
                continue;
            }
            for &spec in &specs {
                candidates.push((lanes, spec));
            }
        }

        let keys: Vec<u64> = candidates
            .iter()
            .map(|&(lanes, spec)| point_key(self.config(), n, lanes, spec.id, spec.param))
            .collect();
        let mut replayed: Vec<Option<DesignPoint>> =
            keys.iter().map(|&k| cache.get_point(k)).collect();
        let miss_idx: Vec<usize> = (0..candidates.len())
            .filter(|&i| replayed[i].is_none())
            .collect();
        let miss_jobs: Vec<(usize, FamilySpec)> = miss_idx.iter().map(|&i| candidates[i]).collect();

        let results = sim_exec::par_map(exec, &miss_jobs, |&(lanes, spec), _ctx| {
            self.evaluate(&params, lanes, spec)
        });

        // Reassemble in candidate-enumeration order, pulling each slot
        // from the cache replay or the (order-preserving) miss results —
        // emission order is independent of the hit/miss split.
        let mut stats = CacheStats::default();
        let mut new_points: Vec<(u64, DesignPoint)> = Vec::new();
        let mut points = Vec::new();
        let mut failures = Vec::new();
        let mut misses = miss_idx.into_iter().zip(results);
        for (i, &(lanes, spec)) in candidates.iter().enumerate() {
            if let Some(p) = replayed[i].take() {
                stats.hits += 1;
                points.push(p);
                continue;
            }
            let Some((mi, result)) = misses.next() else {
                return Err(Fft2dError::Cache(
                    "miss results exhausted before candidates".into(),
                ));
            };
            debug_assert_eq!(mi, i, "miss results must align with candidates");
            match result {
                Ok(Eval::Point(p)) => {
                    stats.misses += 1;
                    new_points.push((keys[i], p));
                    points.push(p);
                }
                Ok(Eval::SkipLayout(e)) => {
                    stats.uncacheable += 1;
                    skipped.infeasible_layout += 1;
                    skipped.last_layout_skip = Some(e);
                }
                Ok(Eval::SkipProcessor) => {
                    stats.uncacheable += 1;
                    skipped.infeasible_processor += 1;
                }
                Ok(Eval::Failed(error)) => {
                    stats.uncacheable += 1;
                    failures.push(ExploreFailure {
                        lanes,
                        family: spec.id,
                        h: spec.param,
                        error,
                    });
                }
                Err(job_error) => {
                    stats.uncacheable += 1;
                    failures.push(ExploreFailure {
                        lanes,
                        family: spec.id,
                        h: spec.param,
                        error: job_error.to_string(),
                    });
                }
            }
        }
        cache
            .record_points(new_points)
            .map_err(|e| Fft2dError::Cache(format!("append failed: {e}")))?;
        Ok((
            Exploration {
                points,
                skipped,
                failures,
            },
            stats,
        ))
    }

    /// [`column_phase`](System::column_phase) through the persistent
    /// cache: replays a previously-measured `(arch, n)` result when its
    /// content key is present, otherwise simulates and appends it.
    /// Returns the result and whether it was a cache hit.
    ///
    /// # Errors
    ///
    /// Returns [`Fft2dError::Cache`] when a fresh result cannot be
    /// appended to the cache's backing file, or any simulation error.
    pub fn column_phase_cached(
        &self,
        cache: &mut ExploreCache,
        arch: Architecture,
        n: usize,
    ) -> Result<(ColumnPhaseResult, bool), Fft2dError> {
        let key = column_key(self.config(), n, arch);
        if let Some(r) = cache.get_column(key) {
            return Ok((r, true));
        }
        let r = self.column_phase(arch, n)?;
        cache
            .record_column(key, r)
            .map_err(|e| Fft2dError::Cache(format!("append failed: {e}")))?;
        Ok((r, false))
    }

    /// Evaluates one `(lanes, family)` candidate: closed-loop
    /// column-phase simulation plus FPGA costing, entirely through the
    /// [`layout::LayoutFamily`] trait. Pure per-candidate — no shared
    /// mutable state — which is what makes the parallel sweep
    /// deterministic.
    fn evaluate(&self, params: &LayoutParams, lanes: usize, spec: FamilySpec) -> Eval {
        let family = match spec.build(params) {
            Ok(f) => f,
            Err(e) => return Eval::SkipLayout(e),
        };
        let reorg = family.reorg_rows();
        let Ok(proc) = ProcessorModel::new(params, lanes, reorg, &self.config().budget) else {
            return Eval::SkipProcessor;
        };
        let mut mem = match self.fresh_mem() {
            Ok(mem) => mem,
            Err(e) => return Eval::Failed(e.to_string()),
        };
        // Lazy stream: the sweep's per-candidate memory is O(1), not
        // O(N²), so wide explorations never materialize a trace.
        let mut reads = family.col_stream(Direction::Read);
        let cfg = DriverConfig {
            ps_per_byte: proc.ps_per_byte(),
            window_bytes: self.config().window_bytes,
            write_delay: Picos::ZERO,
            latency_probe_bytes: 0,
        };
        let outcome = run_phase(
            &mut mem,
            &cfg,
            reads.as_mut(),
            family.map_kind(),
            None,
            Picos::ZERO,
        );
        match outcome {
            Ok(rep) => Eval::Point(DesignPoint {
                lanes,
                family: spec.id,
                h: spec.param,
                throughput_gbps: rep.read_bandwidth_gbps(),
                resources: proc.fpga().resources,
                clock_mhz: proc.fpga().clock_mhz,
                fits: proc.fpga().resources.fits(&self.config().budget),
            }),
            Err(e) => Eval::Failed(e.to_string()),
        }
    }

    /// Internal accessor used by the explorer (kept private elsewhere).
    fn layout_params_pub(&self, n: usize) -> LayoutParams {
        LayoutParams::for_device(n, &self.config().geometry, &self.config().timing)
    }
}

/// Filters design points to the throughput-vs-DSP Pareto front among
/// those that fit the device, sorted by ascending DSP count.
pub fn pareto_front(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut fitting: Vec<DesignPoint> = points.iter().copied().filter(|p| p.fits).collect();
    fitting.sort_by(|a, b| {
        a.resources
            .dsp48
            .cmp(&b.resources.dsp48)
            // total_cmp, not partial_cmp: a NaN throughput (e.g. from a
            // degenerate candidate) must not panic the sort. Under the
            // total order NaN compares above every finite value, so a
            // NaN point sorts like an infinitely fast candidate here —
            // but `NaN > best` below is false, so it never enters the
            // front.
            .then(b.throughput_gbps.total_cmp(&a.throughput_gbps))
            .then(a.resources.bram36.cmp(&b.resources.bram36))
    });
    let mut front = Vec::new();
    let mut best = f64::NEG_INFINITY;
    for p in fitting {
        if p.throughput_gbps > best {
            best = p.throughput_gbps;
            front.push(p);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_finds_the_paper_configuration() {
        let sys = System::default();
        let ex = sys.explore(512, &[4, 8]).unwrap();
        assert!(!ex.points.is_empty());
        assert!(ex.failures.is_empty(), "failures: {:?}", ex.failures);
        // The 8-lane points must include one near the 32 GB/s ceiling.
        let best8 = ex
            .points
            .iter()
            .filter(|p| p.lanes == 8)
            .map(|p| p.throughput_gbps)
            .fold(0.0, f64::max);
        assert!(best8 > 28.0, "got {best8}");
        // 4-lane designs cap at ~16 GB/s.
        let best4 = ex
            .points
            .iter()
            .filter(|p| p.lanes == 4)
            .map(|p| p.throughput_gbps)
            .fold(0.0, f64::max);
        assert!(best4 < 17.0, "got {best4}");
    }

    #[test]
    fn explore_races_every_registered_family() {
        let sys = System::default();
        let ex = sys.explore(512, &[8]).unwrap();
        assert!(ex.failures.is_empty(), "failures: {:?}", ex.failures);
        for id in FamilyId::ALL {
            assert!(
                ex.points.iter().any(|p| p.family == id),
                "family {id} missing from sweep"
            );
        }
        // The family name is part of the JSON emission.
        let text = ex.to_json();
        assert!(text.contains("\"family\":\"block-ddl\""), "got: {text}");
        assert!(text.contains("\"family\":\"irredundant\""));
    }

    #[test]
    fn pareto_front_is_monotone() {
        let sys = System::default();
        let ex = sys.explore(512, &[2, 4, 8]).unwrap();
        let front = pareto_front(&ex.points);
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].resources.dsp48 <= w[1].resources.dsp48);
            assert!(w[0].throughput_gbps < w[1].throughput_gbps);
        }
    }

    #[test]
    fn pareto_front_survives_nan_throughput() {
        // Regression: a NaN throughput used to panic the sort's
        // `partial_cmp(..).expect("finite")`.
        let point = |dsp48: u64, gbps: f64| DesignPoint {
            lanes: 8,
            family: FamilyId::BlockDynamic,
            h: 4,
            throughput_gbps: gbps,
            resources: Resources {
                dsp48,
                ..Resources::default()
            },
            clock_mhz: 500.0,
            fits: true,
        };
        let points = [point(10, 4.0), point(10, f64::NAN), point(20, 8.0)];
        let front = pareto_front(&points);
        // The NaN point is excluded; the finite points form the front.
        assert_eq!(front.len(), 2);
        assert!(front.iter().all(|p| p.throughput_gbps.is_finite()));
        assert_eq!(front[0].throughput_gbps, 4.0);
        assert_eq!(front[1].throughput_gbps, 8.0);
    }

    #[test]
    fn explore_counts_skipped_lanes_instead_of_dropping_them() {
        let sys = System::default();
        let ex = sys.explore(512, &[0, 3, 1024]).unwrap();
        assert!(ex.points.is_empty());
        assert_eq!(ex.skipped.invalid_lanes, 3);
        assert_eq!(ex.skipped.total(), 3);
        let text = ex.skipped.to_string();
        assert!(text.contains("3 invalid lane values"), "got: {text}");
    }

    #[test]
    fn parallel_and_sequential_explorations_are_byte_identical() {
        let sys = System::default();
        let seq = sys
            .explore_with(&ExecConfig::sequential(), 256, &[2, 4, 8, 3])
            .unwrap();
        let par = sys
            .explore_with(
                &ExecConfig::sequential().with_threads(4),
                256,
                &[2, 4, 8, 3],
            )
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.to_json(), par.to_json());
        assert_eq!(seq.skipped.invalid_lanes, 1); // the `3`
    }

    #[test]
    fn exploration_emission_order_is_stable() {
        // The determinism contract this crate's reporting rests on (and
        // simlint rule D002 protects): two identical sweeps emit byte-
        // identical JSON, points stay in candidate-enumeration order,
        // and object keys keep their declared order — no hash-ordered
        // collection anywhere in the path.
        let sys = System::default();
        let a = sys.explore(256, &[8, 2, 4]).unwrap();
        let b = sys.explore(256, &[8, 2, 4]).unwrap();
        let text = a.to_json();
        assert_eq!(text, b.to_json());
        // Candidate-enumeration order: lane options are evaluated as
        // given, not sorted or hashed.
        let lanes: Vec<usize> = a.points.iter().map(|p| p.lanes).collect();
        let mut first_seen = Vec::new();
        for l in &lanes {
            if !first_seen.contains(l) {
                first_seen.push(*l);
            }
        }
        assert_eq!(first_seen, [8, 2, 4]);
        // Key order is part of the byte-identity contract: parse and
        // re-emit through sim_util::json and require byte equality.
        let parsed = sim_util::json::parse(&text).expect("exploration JSON parses");
        assert_eq!(parsed.to_json(), text);
        assert!(text.starts_with("{\"points\":["), "got: {}", &text[..40]);
    }
}
