//! Layout virtualization: the [`LayoutFamily`] trait and its registry.
//!
//! A *family* bundles everything the rest of the stack needs to run a
//! 2D FFT over one layout scheme — the address map, the five phase
//! streams, the reorganization footprint, and the knob the explorer
//! sweeps — behind one object-safe trait. The core pipeline, the
//! explorer, the benches, and the tenancy book consume families only
//! through this trait, so adding a layout never touches those layers:
//! implement the trait, register a [`FamilyId`], and every consumer
//! (including the design-space explorer) picks it up.
//!
//! The **fast-path hook** is inherited rather than re-invented: every
//! default stream is the crate's one segment stream, whose walk
//! consults the underlying [`MatrixLayout`]'s contiguity hooks
//! (`row_run`, `row_stride`, `group_block_addr`, `row_block_addr`) to
//! cost one address call per contiguous segment, and whose `next_run`
//! emits multi-beat [`mem3d::TraceRun`]s wherever the segments prove
//! strided or whole-row spans. A family that cannot prove anything simply leaves
//! those hooks at their defaults and the same stream degrades
//! gracefully to per-element segments — correctness never depends on
//! the hooks, only the speed of generation and of the simulator's
//! skip-ahead core does.

use std::fmt;

use mem3d::{AccessTrace, AddressMapKind, Direction, RequestSource};

use crate::{
    band_block_write_stream, block_write_stream, col_phase_stream, optimal_h, row_phase_stream,
    tile_band_write_stream, tile_sweep_stream, BlockDynamic, BurstInterleaved, ColMajor,
    Irredundant, LayoutError, LayoutParams, MatrixLayout, RowMajor, Tiled,
};

/// One layout scheme, virtualized: address map plus phase streams plus
/// reorganization footprint. See the module docs for the contract.
pub trait LayoutFamily: fmt::Debug + Send + Sync {
    /// Which registry entry this family instantiates.
    fn id(&self) -> FamilyId;

    /// The underlying address mapping.
    fn layout(&self) -> &dyn MatrixLayout;

    /// The family's swept parameter (block height, tile rows, map
    /// variant…) — the explorer's `h` axis, echoed back by
    /// [`FamilyId::build`].
    fn param(&self) -> usize;

    /// How many columns the column phase gathers per group (the `w` of
    /// block families; 1 for strided column walks).
    fn col_group(&self) -> usize {
        1
    }

    /// Rows of on-chip band buffering the row phase needs before it can
    /// write this layout back (0 = none: the row phase streams straight
    /// through). Feeds the processor model's permutation-network sizing
    /// and the reorganization fill latency.
    fn reorg_rows(&self) -> usize {
        0
    }

    /// Height of the block the column phase consumes at once (≥ 1);
    /// reported as `block_h` in phase results.
    fn block_rows(&self) -> usize {
        self.reorg_rows().max(1)
    }

    /// Human-readable family name (stable: used in JSON emissions).
    fn name(&self) -> &'static str {
        self.id().name()
    }

    /// The address-map kind every request of this family decodes under.
    fn map_kind(&self) -> AddressMapKind {
        self.layout().map_kind()
    }

    /// The row phase's access stream (reads or writes row by row).
    fn row_stream(&self, dir: Direction) -> Box<dyn RequestSource + '_> {
        Box::new(row_phase_stream(self.layout(), dir))
    }

    /// The column phase's access stream. The default routes through
    /// [`col_phase_stream`] with [`col_group`](Self::col_group) columns
    /// per group, inheriting the fast-path run fusion described in the
    /// module docs.
    fn col_stream(&self, dir: Direction) -> Box<dyn RequestSource + '_> {
        Box::new(col_phase_stream(self.layout(), dir, self.col_group()))
    }

    /// The row phase's write-back stream (how reorganized data lands in
    /// memory). Defaults to plain row-order writes for families with no
    /// reorganization.
    fn write_stream(&self) -> Box<dyn RequestSource + '_> {
        Box::new(row_phase_stream(self.layout(), Direction::Write))
    }

    /// Collected [`row_stream`](Self::row_stream) — thin wrapper over
    /// [`crate::collect_stream`], never a separate implementation.
    fn row_trace(&self, dir: Direction) -> AccessTrace {
        crate::collect_stream(&mut *self.row_stream(dir))
    }

    /// Collected [`col_stream`](Self::col_stream).
    fn col_trace(&self, dir: Direction) -> AccessTrace {
        crate::collect_stream(&mut *self.col_stream(dir))
    }

    /// Collected [`write_stream`](Self::write_stream).
    fn write_trace(&self) -> AccessTrace {
        crate::collect_stream(&mut *self.write_stream())
    }
}

/// The registry of layout families the explorer races.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyId {
    /// Plain row-major (param 0 = chunked map, 1 = vault-interleaved).
    RowMajor,
    /// Plain column-major over the vault-interleaved map.
    ColMajor,
    /// Akin-style square-ish tiles with an on-chip transposer.
    Tiled,
    /// The paper's dynamic data layout: row-buffer-sized blocks with
    /// diagonal rotation.
    BlockDynamic,
    /// Burst-granular blocks with diagonal rotation (arXiv 2202.05933).
    BurstInterleaved,
    /// Rotation-free consumer-order blocks (arXiv 2401.12071).
    Irredundant,
}

impl FamilyId {
    /// Every registered family, in the deterministic order candidate
    /// enumeration uses.
    pub const ALL: [FamilyId; 6] = [
        FamilyId::RowMajor,
        FamilyId::ColMajor,
        FamilyId::Tiled,
        FamilyId::BlockDynamic,
        FamilyId::BurstInterleaved,
        FamilyId::Irredundant,
    ];

    /// Stable name, used in JSON emissions and bench gates.
    pub fn name(self) -> &'static str {
        match self {
            FamilyId::RowMajor => "row-major",
            FamilyId::ColMajor => "col-major",
            FamilyId::Tiled => "tiled",
            FamilyId::BlockDynamic => "block-ddl",
            FamilyId::BurstInterleaved => "burst-interleaved",
            FamilyId::Irredundant => "irredundant",
        }
    }

    /// The inverse of [`name`](Self::name): resolves a stable name back
    /// to its family, or `None` for an unknown name (e.g. a cache line
    /// written by a build with a family this one does not register).
    pub fn from_name(name: &str) -> Option<FamilyId> {
        FamilyId::ALL.into_iter().find(|id| id.name() == name)
    }

    /// The parameter values worth racing for this family under
    /// `params`, ascending. Every returned value makes
    /// [`build`](Self::build) succeed by construction.
    pub fn candidate_params(self, params: &LayoutParams) -> Vec<usize> {
        match self {
            FamilyId::RowMajor => vec![0, 1],
            FamilyId::ColMajor => vec![0],
            FamilyId::Tiled => {
                let mut trs = Vec::new();
                let mut tr = 1usize;
                // Capping at `n` keeps `param == tile_rows` a round
                // trip; taller tiles would alias the `tr = n` shape.
                while tr <= params.s.min(params.n) {
                    if params.s.is_multiple_of(tr)
                        && params.n.is_multiple_of(tr.min(params.n))
                        && params.n.is_multiple_of((params.s / tr).min(params.n))
                    {
                        trs.push(tr);
                    }
                    tr *= 2;
                }
                trs
            }
            FamilyId::BlockDynamic | FamilyId::Irredundant => params.valid_block_heights(),
            FamilyId::BurstInterleaved => BurstInterleaved::valid_heights(params),
        }
    }

    /// Builds the family with the given parameter value.
    ///
    /// # Errors
    ///
    /// Returns the underlying constructor's [`LayoutError`] when the
    /// parameter is infeasible for `params`.
    // simlint::entry(service_path)
    pub fn build(
        self,
        params: &LayoutParams,
        param: usize,
    ) -> Result<Box<dyn LayoutFamily>, LayoutError> {
        Ok(match self {
            FamilyId::RowMajor => Box::new(RowMajorFamily::new(params, param)),
            FamilyId::ColMajor => Box::new(ColMajorFamily(ColMajor::new(params))),
            FamilyId::Tiled => {
                if param == 0 {
                    return Err(LayoutError::Zero { what: "tile_rows" });
                }
                if !params.s.is_multiple_of(param) {
                    return Err(LayoutError::NotDivisor {
                        what: "tile_rows",
                        value: param,
                        of: "s",
                        of_value: params.s,
                    });
                }
                let tr = param.min(params.n);
                let tc = (params.s / param).min(params.n);
                Box::new(TiledFamily(Tiled::new(params, tr, tc)?))
            }
            FamilyId::BlockDynamic => Box::new(BlockDynamicFamily(BlockDynamic::with_height(
                params, param,
            )?)),
            FamilyId::BurstInterleaved => Box::new(BurstInterleaved::with_height(params, param)?),
            FamilyId::Irredundant => Box::new(Irredundant::with_height(params, param)?),
        })
    }

    /// The representative parameter benches race when they want one
    /// point per family: the analytically optimal height for block
    /// families, the row-buffer tile for the tiled family, the
    /// interleaved map for row-major.
    pub fn default_param(self, params: &LayoutParams) -> usize {
        match self {
            FamilyId::RowMajor => 1,
            FamilyId::ColMajor => 0,
            FamilyId::Tiled => Tiled::row_buffer_rows(params),
            FamilyId::BlockDynamic | FamilyId::Irredundant => optimal_h(params),
            FamilyId::BurstInterleaved => {
                // Largest feasible burst height not above the DDL's
                // optimum; smallest feasible otherwise.
                let target = optimal_h(params);
                let hs = BurstInterleaved::valid_heights(params);
                match hs.iter().copied().filter(|&h| h <= target).max() {
                    Some(h) => h,
                    None => hs.first().copied().unwrap_or(1),
                }
            }
        }
    }
}

impl fmt::Display for FamilyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One explorer candidate: a family plus the parameter value to build
/// it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilySpec {
    /// Which family.
    pub id: FamilyId,
    /// Its swept parameter value.
    pub param: usize,
}

impl FamilySpec {
    /// Builds the family this spec names.
    ///
    /// # Errors
    ///
    /// Propagates [`FamilyId::build`]'s [`LayoutError`].
    pub fn build(self, params: &LayoutParams) -> Result<Box<dyn LayoutFamily>, LayoutError> {
        self.id.build(params, self.param)
    }
}

/// Every candidate the explorer should race for `params`: the cross
/// product of [`FamilyId::ALL`] with each family's
/// [`candidate_params`](FamilyId::candidate_params), in that
/// deterministic order.
pub fn enumerate_candidates(params: &LayoutParams) -> Vec<FamilySpec> {
    FamilyId::ALL
        .iter()
        .flat_map(|&id| {
            id.candidate_params(params)
                .into_iter()
                .map(move |param| FamilySpec { id, param })
        })
        .collect()
}

/// [`RowMajor`] as a family: param 0 keeps the chunked map, any other
/// value selects the vault-interleaved map.
#[derive(Debug, Clone, Copy)]
pub struct RowMajorFamily {
    inner: RowMajor,
    variant: usize,
}

impl RowMajorFamily {
    /// Wraps the row-major layout; see the type docs for `variant`.
    pub fn new(params: &LayoutParams, variant: usize) -> Self {
        let inner = if variant == 0 {
            RowMajor::new(params)
        } else {
            RowMajor::interleaved(params)
        };
        RowMajorFamily { inner, variant }
    }
}

impl LayoutFamily for RowMajorFamily {
    fn id(&self) -> FamilyId {
        FamilyId::RowMajor
    }

    fn layout(&self) -> &dyn MatrixLayout {
        &self.inner
    }

    fn param(&self) -> usize {
        self.variant
    }
}

/// [`ColMajor`] as a family (no parameter).
#[derive(Debug, Clone, Copy)]
pub struct ColMajorFamily(pub ColMajor);

impl LayoutFamily for ColMajorFamily {
    fn id(&self) -> FamilyId {
        FamilyId::ColMajor
    }

    fn layout(&self) -> &dyn MatrixLayout {
        &self.0
    }

    fn param(&self) -> usize {
        0
    }
}

/// [`Tiled`] as a family: the column phase sweeps whole tiles through
/// the on-chip transposer instead of gathering column groups.
#[derive(Debug, Clone, Copy)]
pub struct TiledFamily(pub Tiled);

impl LayoutFamily for TiledFamily {
    fn id(&self) -> FamilyId {
        FamilyId::Tiled
    }

    fn layout(&self) -> &dyn MatrixLayout {
        &self.0
    }

    fn param(&self) -> usize {
        self.0.tile_rows()
    }

    fn reorg_rows(&self) -> usize {
        self.0.tile_rows()
    }

    fn col_stream(&self, dir: Direction) -> Box<dyn RequestSource + '_> {
        Box::new(tile_sweep_stream(&self.0, dir))
    }

    fn write_stream(&self) -> Box<dyn RequestSource + '_> {
        Box::new(tile_band_write_stream(&self.0))
    }
}

/// [`BlockDynamic`] — the paper's DDL — as a family.
#[derive(Debug, Clone, Copy)]
pub struct BlockDynamicFamily(pub BlockDynamic);

impl LayoutFamily for BlockDynamicFamily {
    fn id(&self) -> FamilyId {
        FamilyId::BlockDynamic
    }

    fn layout(&self) -> &dyn MatrixLayout {
        &self.0
    }

    fn param(&self) -> usize {
        self.0.h
    }

    fn col_group(&self) -> usize {
        self.0.w
    }

    fn reorg_rows(&self) -> usize {
        self.0.h
    }

    fn write_stream(&self) -> Box<dyn RequestSource + '_> {
        Box::new(band_block_write_stream(&self.0))
    }
}

impl LayoutFamily for BurstInterleaved {
    fn id(&self) -> FamilyId {
        FamilyId::BurstInterleaved
    }

    fn layout(&self) -> &dyn MatrixLayout {
        self
    }

    fn param(&self) -> usize {
        self.h
    }

    fn col_group(&self) -> usize {
        self.w
    }

    fn reorg_rows(&self) -> usize {
        self.h
    }

    fn write_stream(&self) -> Box<dyn RequestSource + '_> {
        Box::new(block_write_stream(self, self.w, self.h))
    }
}

impl LayoutFamily for Irredundant {
    fn id(&self) -> FamilyId {
        FamilyId::Irredundant
    }

    fn layout(&self) -> &dyn MatrixLayout {
        self
    }

    fn param(&self) -> usize {
        self.h
    }

    fn col_group(&self) -> usize {
        self.w
    }

    fn reorg_rows(&self) -> usize {
        self.h
    }

    fn write_stream(&self) -> Box<dyn RequestSource + '_> {
        Box::new(block_write_stream(self, self.w, self.h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem3d::{Geometry, TimingParams};

    fn params(n: usize) -> LayoutParams {
        LayoutParams::for_device(n, &Geometry::default(), &TimingParams::default())
    }

    #[test]
    fn enumeration_is_deterministic_and_covers_all_families() {
        let p = params(512);
        let a = enumerate_candidates(&p);
        let b = enumerate_candidates(&p);
        assert_eq!(a, b, "enumeration must be deterministic");
        for id in FamilyId::ALL {
            assert!(
                a.iter().any(|s| s.id == id),
                "family {id} missing from candidates"
            );
        }
        // Ascending params within each family.
        for id in FamilyId::ALL {
            let ps: Vec<usize> = a.iter().filter(|s| s.id == id).map(|s| s.param).collect();
            assert!(
                ps.windows(2).all(|w| w[0] < w[1]),
                "{id} params not ascending"
            );
        }
    }

    #[test]
    fn every_candidate_builds() {
        let p = params(512);
        for spec in enumerate_candidates(&p) {
            let fam = spec.build(&p).unwrap_or_else(|e| {
                panic!("candidate {spec:?} failed to build: {e}");
            });
            assert_eq!(fam.id(), spec.id);
            assert_eq!(fam.param(), spec.param);
            assert_eq!(fam.layout().n(), 512);
            assert!(fam.col_group() >= 1);
            assert!(fam.block_rows() >= 1);
        }
    }

    #[test]
    fn default_params_build_for_every_family() {
        for n in [256, 512, 2048] {
            let p = params(n);
            for id in FamilyId::ALL {
                let param = id.default_param(&p);
                let fam = id.build(&p, param).unwrap_or_else(|e| {
                    panic!("default {id} param {param} at n = {n} failed: {e}");
                });
                assert_eq!(fam.name(), id.name());
            }
        }
    }

    #[test]
    fn infeasible_params_report_the_offending_parameter() {
        let p = params(512);
        let e = FamilyId::BlockDynamic.build(&p, 3).unwrap_err();
        assert_eq!(e.parameter(), "h");
        let e = FamilyId::Tiled.build(&p, 0).unwrap_err();
        assert_eq!(e.parameter(), "tile_rows");
        let e = FamilyId::Irredundant.build(&p, 0).unwrap_err();
        assert_eq!(e.parameter(), "h");
    }

    #[test]
    fn row_major_variants_differ_in_map_only() {
        let p = params(64);
        let chunked = FamilyId::RowMajor.build(&p, 0).unwrap();
        let inter = FamilyId::RowMajor.build(&p, 1).unwrap();
        assert_eq!(chunked.map_kind(), AddressMapKind::Chunked);
        assert_eq!(inter.map_kind(), AddressMapKind::VaultInterleaved);
        assert_eq!(chunked.layout().addr(3, 5), inter.layout().addr(3, 5));
        assert_eq!(chunked.reorg_rows(), 0);
    }

    #[test]
    fn traces_match_collected_streams_for_every_family() {
        let p = params(64);
        for spec in enumerate_candidates(&p) {
            let fam = spec.build(&p).unwrap();
            let trace = fam.col_trace(Direction::Read);
            let collected = crate::collect_stream(&mut *fam.col_stream(Direction::Read));
            assert_eq!(trace, collected, "{spec:?} col trace diverged");
            let wt = fam.write_trace();
            let wc = crate::collect_stream(&mut *fam.write_stream());
            assert_eq!(wt, wc, "{spec:?} write trace diverged");
        }
    }
}
