//! Request-stream generation for the two FFT phases under any layout.
//!
//! Every phase walk — the row sweep, the column sweep, the block and
//! tile write-backs and the tile sweep — visits the matrix as a
//! concatenation of **segments**: runs of equally spaced element
//! accesses `(base, count, stride)`. The layout states its contiguity
//! in O(1) ([`MatrixLayout::row_run`] along rows,
//! [`MatrixLayout::row_stride`] down columns,
//! [`MatrixLayout::group_block_addr`] and
//! [`MatrixLayout::row_block_addr`] for whole blocks), and how far a
//! segment's block repeats at one constant step
//! ([`MatrixLayout::progression`]), so a walk costs one virtual call
//! pair per *progression* of segments, never one per segment inside it
//! or per element.
//!
//! One stream type turns any walk into burst requests. It coalesces
//! runs of contiguous addresses exactly as a memory-controller
//! front-end merging element accesses would — an access extends the
//! current burst when it starts where the burst ends and the burst stays
//! within [`MAX_BURST_BYTES`] — but applies that rule one unit-stride
//! segment chunk at a time. Every stream is lazy
//! ([`mem3d::RequestSource`]) with O(1) state, so an N×N phase costs
//! constant memory; [`RequestSource::collect_trace`] materializes one
//! for small problems and golden tests.

use mem3d::{Direction, RequestSource, TraceOp, TraceRun};

use crate::{Axis, MatrixLayout};

/// Maximum burst length in bytes (one full 8 KiB row); longer runs are
/// chopped here and the memory system splits at row boundaries anyway.
pub const MAX_BURST_BYTES: u32 = 8192;

fn matrix_bytes(layout: &dyn MatrixLayout) -> u64 {
    (layout.n() * layout.n() * layout.elem_bytes()) as u64
}

/// A run of equally-spaced element accesses: element *i* lives at
/// `base + i·stride`.
#[derive(Debug, Clone, Copy)]
struct Seg {
    base: u64,
    count: u64,
    stride: u64,
}

/// A **progression** of segments: `seg`, then the `repeats` segments
/// after it in walk order, segment *j* being `seg` moved `j·step`
/// bytes. One [`MatrixLayout::progression`] claim.
#[derive(Debug, Clone, Copy)]
struct Prog {
    seg: Seg,
    repeats: u64,
    step: u64,
}

impl Prog {
    /// This progression, with unit-stride segments that abut (each
    /// starts where the one before ends) fused into the one segment
    /// they form.
    fn fused(self, elem: u64) -> Prog {
        if self.repeats > 0 && self.seg.stride == elem && self.step == self.seg.count * elem {
            Prog {
                seg: Seg {
                    count: self.seg.count * (self.repeats + 1),
                    ..self.seg
                },
                repeats: 0,
                step: 0,
            }
        } else {
            self
        }
    }
}

/// The order a walk visits its cells in.
#[derive(Debug, Clone, Copy)]
enum CellOrder {
    /// Down each column of cells, then right: the column phase.
    ColumnsFirst,
    /// Across each band of cells, then down: the write-backs.
    BandsFirst,
}

/// The order a walk visits the elements of one cell in.
#[derive(Debug, Clone, Copy)]
enum Within {
    /// Columns outer, rows inner: column gathers and the column-major
    /// blocks of the block families.
    DownColumns,
    /// Rows outer, columns inner: row sweeps and row-major tiles.
    AlongRows,
}

/// Segment decomposition of one phase walk: the matrix is cut into
/// `cell_rows × cell_cols` cells (ragged at the bottom and right edges),
/// visited in [`CellOrder`], each cell visited in [`Within`] order.
///
/// Segment regimes, coarsest first:
/// * **whole cell** — the layout stores each aligned cell contiguously
///   in the walk's order: one unit-stride segment per cell. Down
///   columns (no constant row stride) that is
///   [`MatrixLayout::group_block_addr`] — the block families' grouped
///   column phase and write-back; along rows it is
///   [`MatrixLayout::row_block_addr`] — the tiled family's tile sweep
///   and tile write-back. A cell the layout does not claim drops the
///   walk to the finer regimes below.
/// * **column** (`DownColumns`, constant [`MatrixLayout::row_stride`])
///   — one segment per column of a cell; the column phase of a group of
///   one is one whole-matrix cell, so this is one segment per column
///   (the baseline strided sweep).
/// * **row chunk** (`AlongRows`) — one unit-stride segment per aligned
///   [`MatrixLayout::row_run`] of a cell row: a whole matrix row for
///   row-major, a tile row for tiled.
/// * **element** — nothing claimed (tile seams, misaligned groups,
///   `row_run` of 1): one segment per element.
///
/// The walk yields [`Prog`]s: each segment comes with the segments the
/// walk visits next that the layout's [`MatrixLayout::progression`]
/// proves are the same block moved by one constant step — the next
/// cells of a cell line, columns of a cell, rows of a cell or chunks
/// of a cell row. So a walk costs one virtual call pair per
/// progression, and nothing per segment inside it.
#[derive(Debug, Clone)]
struct Walk<'a> {
    layout: &'a dyn MatrixLayout,
    n: usize,
    cell_rows: usize,
    cell_cols: usize,
    order: CellOrder,
    within: Within,
    elem: u64,
    row_stride: Option<u64>,
    row_run: usize,
    /// Whole-cell regime engaged (see above).
    block: bool,
    /// First row of the current cell.
    band: usize,
    /// First column of the current cell.
    g: usize,
    /// Outer index within the cell: column (`DownColumns`) or row
    /// (`AlongRows`) offset.
    a: usize,
    /// Inner index within the cell: row (`DownColumns`) or column
    /// (`AlongRows`) offset.
    b: usize,
    done: bool,
}

impl<'a> Walk<'a> {
    fn new(
        layout: &'a dyn MatrixLayout,
        within: Within,
        order: CellOrder,
        cell_rows: usize,
        cell_cols: usize,
    ) -> Self {
        let n = layout.n();
        assert!(
            n == 0 || (cell_rows > 0 && cell_cols > 0),
            "empty {cell_rows}×{cell_cols} walk cell"
        );
        let row_stride = layout.row_stride();
        // The whole-cell regime needs unragged cells and a layout that
        // stores the first cell contiguously (down columns: of the
        // layout's column-run height); by the `group_block_addr` /
        // `row_block_addr` contracts (alignment-only conditions) every
        // later cell is then contiguous too.
        let block = n.is_multiple_of(cell_rows)
            && n.is_multiple_of(cell_cols)
            && match within {
                Within::DownColumns => {
                    row_stride.is_none()
                        && cell_rows == layout.column_run()
                        && layout.group_block_addr(0, 0, cell_cols).is_some()
                }
                Within::AlongRows => layout.row_block_addr(0, 0, cell_rows, cell_cols).is_some(),
            };
        Walk {
            layout,
            n,
            cell_rows,
            cell_cols,
            order,
            within,
            elem: layout.elem_bytes() as u64,
            row_stride,
            row_run: layout.row_run().max(1),
            block,
            band: 0,
            g: 0,
            a: 0,
            b: 0,
            done: n == 0,
        }
    }

    /// The step and number of the segments after the current one, of
    /// the `left` the walk visits next, that repeat it: the layout's
    /// progression of `(row, col, rows, cols)` along `axis`.
    fn more(
        &self,
        (row, col, rows, cols): (usize, usize, usize, usize),
        axis: Axis,
        left: usize,
    ) -> (u64, usize) {
        if left == 0 {
            return (0, 0);
        }
        self.layout
            .progression(row, col, rows, cols, axis)
            .map_or((0, 0), |(step, k)| (step, k.min(left)))
    }

    /// Moves on `k` cells in walk order (more than one only along one
    /// cell line).
    fn next_cells(&mut self, k: usize) {
        self.a = 0;
        match self.order {
            CellOrder::ColumnsFirst => {
                self.band += k * self.cell_rows;
                if self.band >= self.n {
                    self.band = 0;
                    self.g += self.cell_cols;
                    self.done = self.g >= self.n;
                }
            }
            CellOrder::BandsFirst => {
                self.g += k * self.cell_cols;
                if self.g >= self.n {
                    self.g = 0;
                    self.band += self.cell_rows;
                    self.done = self.band >= self.n;
                }
            }
        }
    }

    /// The current whole cell and the cells after it in its line that
    /// repeat it, or `None` (dropping the whole-cell regime) when the
    /// layout does not claim the cell.
    fn cells(&mut self, rows: usize, cols: usize) -> Option<Prog> {
        let (band, g) = (self.band, self.g);
        let base = match self.within {
            Within::DownColumns => self.layout.group_block_addr(band, g, cols),
            Within::AlongRows => self.layout.row_block_addr(band, g, rows, cols),
        };
        let Some(base) = base else {
            self.block = false;
            return None;
        };
        let (axis, left) = match self.order {
            CellOrder::ColumnsFirst => (Axis::Down, (self.n - band) / self.cell_rows - 1),
            CellOrder::BandsFirst => (Axis::Across, (self.n - g) / self.cell_cols - 1),
        };
        let (step, more) = self.more((band, g, rows, cols), axis, left);
        self.next_cells(more + 1);
        Some(Prog {
            seg: Seg {
                base,
                count: (rows * cols) as u64,
                stride: self.elem,
            },
            repeats: more as u64,
            step,
        })
    }
}

impl Iterator for Walk<'_> {
    type Item = Prog;

    fn next(&mut self) -> Option<Prog> {
        if self.done {
            return None;
        }
        let rows = self.cell_rows.min(self.n - self.band);
        let cols = self.cell_cols.min(self.n - self.g);
        if self.block {
            if let Some(cells) = self.cells(rows, cols) {
                return Some(cells);
            }
        }
        let (seg, (step, more)) = match (self.within, self.row_stride) {
            (Within::DownColumns, Some(stride)) => {
                // A whole column of the cell; the next columns to its
                // right follow.
                let c = self.g + self.a;
                let seg = Seg {
                    base: self.layout.addr(self.band, c),
                    count: rows as u64,
                    stride,
                };
                let more = self.more((self.band, c, rows, 1), Axis::Across, cols - self.a - 1);
                self.a += more.1 + 1;
                (seg, more)
            }
            (Within::DownColumns, None) => {
                // One element; the next elements below it follow.
                let (r, c) = (self.band + self.b, self.g + self.a);
                let seg = Seg {
                    base: self.layout.addr(r, c),
                    count: 1,
                    stride: self.elem,
                };
                let more = self.more((r, c, 1, 1), Axis::Down, rows - self.b - 1);
                self.b += more.1 + 1;
                if self.b >= rows {
                    self.b = 0;
                    self.a += 1;
                }
                (seg, more)
            }
            (Within::AlongRows, _) => {
                let (r, col) = (self.band + self.a, self.g + self.b);
                let count = (cols - self.b).min(self.row_run - col % self.row_run);
                let seg = Seg {
                    base: self.layout.addr(r, col),
                    count: count as u64,
                    stride: self.elem,
                };
                if count == cols {
                    // A whole cell row; the rows below it follow.
                    let more = self.more((r, col, 1, cols), Axis::Down, rows - self.a - 1);
                    self.a += more.1 + 1;
                    (seg, more)
                } else {
                    // An aligned chunk; the whole chunks to its right
                    // follow.
                    let left = if count == self.row_run {
                        (cols - self.b) / count - 1
                    } else {
                        0
                    };
                    let more = self.more((r, col, 1, count), Axis::Across, left);
                    self.b += (more.1 + 1) * count;
                    if self.b >= cols {
                        self.b = 0;
                        self.a += 1;
                    }
                    (seg, more)
                }
            }
        };
        let outer = match self.within {
            Within::DownColumns => cols,
            Within::AlongRows => rows,
        };
        if self.a >= outer {
            self.next_cells(1);
        }
        Some(Prog {
            seg,
            repeats: more as u64,
            step,
        })
    }
}

/// The one phase request stream: expands a [`Walk`] into burst
/// requests by the element-level coalescing rule, one unit-stride
/// chunk at a time.
///
/// [`next`](Iterator::next) emits a burst only once it is complete:
/// the upcoming access is peeked, never consumed, so no partial burst
/// is carried between calls. It divides nothing (the burst capacity in
/// elements is a per-stream constant) and makes no virtual call inside
/// a progression. [`next_run`](RequestSource::next_run) groups the same
/// bursts into [`TraceRun`]s — a strided segment's single-element
/// bursts in O(1), and a train of whole-row bursts at a constant
/// forward step, cut from a contiguous segment or from a progression of
/// one-burst segments in O(1) each — for the memory system's fused span
/// loops.
struct SegmentStream<'a> {
    walk: Walk<'a>,
    /// Element size in bytes.
    e: u64,
    /// The most elements one burst holds.
    cap: u64,
    dir: Direction,
    total: u64,
    /// The segment being expanded (one member of a progression), with
    /// the members left after it, their step, and the next element's
    /// index in `seg`.
    seg: Seg,
    left: u64,
    step: u64,
    pos: u64,
    /// The walk's progression after the current one, pulled early to
    /// see whether a strided segment's last element can coalesce with
    /// what follows.
    after: Option<Prog>,
    /// Complete bursts [`next_run`](RequestSource::next_run) cut while
    /// probing a run's end, returned before anything else.
    ahead: Option<TraceRun>,
}

/// Folds the leading bursts of `bursts` that continue `run`, whose last
/// beat is at `last`, into it: full bursts at one constant forward
/// step, which the run's second beat sets. Returns the bursts left
/// over.
fn join(run: &mut TraceRun, last: &mut u64, bursts: TraceRun) -> Option<TraceRun> {
    let step = bursts.op.addr.checked_sub(*last).filter(|&d| d > 0);
    let Some(step) = step.filter(|&d| {
        bursts.op.bytes == MAX_BURST_BYTES
            && run.beats < u32::MAX
            && (run.beats == 1 || d == run.stride)
    }) else {
        return Some(bursts);
    };
    run.stride = step;
    run.beats += 1;
    *last = bursts.op.addr;
    if bursts.beats == 1 || bursts.stride != step {
        return bursts.after(1);
    }
    let take = (bursts.beats - 1).min(u32::MAX - run.beats);
    run.beats += take;
    *last += u64::from(take) * step;
    bursts.after(take + 1)
}

impl<'a> SegmentStream<'a> {
    fn new(walk: Walk<'a>, dir: Direction) -> Self {
        let e = walk.elem;
        SegmentStream {
            e,
            cap: u64::from(MAX_BURST_BYTES).checked_div(e).unwrap_or(0),
            total: matrix_bytes(walk.layout),
            walk,
            dir,
            seg: Seg {
                base: 0,
                count: 0,
                stride: e,
            },
            left: 0,
            step: 0,
            pos: 0,
            after: None,
            ahead: None,
        }
    }

    /// Loads the segment cursor without consuming, returning the
    /// upcoming segment (with `pos` pointing at its next element), or
    /// `None` when the walk is exhausted.
    fn peek_segment(&mut self) -> Option<Seg> {
        while self.pos >= self.seg.count {
            if self.left > 0 {
                self.left -= 1;
                self.seg.base += self.step;
            } else {
                let p = self
                    .after
                    .take()
                    .or_else(|| self.walk.next())?
                    .fused(self.e);
                (self.seg, self.left, self.step) = (p.seg, p.repeats, p.step);
            }
            self.pos = 0;
        }
        Some(self.seg)
    }

    /// The segment after the current one, without consuming it.
    fn following(&mut self) -> Option<Seg> {
        if self.left > 0 {
            return Some(Seg {
                base: self.seg.base + self.step,
                ..self.seg
            });
        }
        if self.after.is_none() {
            self.after = self.walk.next();
        }
        self.after.map(|p| p.seg)
    }

    /// One burst by the element rule: the next access joins the burst
    /// while it starts where the burst ends and fits under the cap.
    /// Within a unit-stride segment every access is adjacent to the one
    /// before, so the rule admits a whole chunk at once.
    fn burst(&mut self) -> Option<TraceOp> {
        let e = self.e;
        let first = self.peek_segment()?;
        let start = first.base + self.pos * first.stride;
        // Elements taken so far.
        let mut len = 0u64;
        while let Some(s) = self.peek_segment() {
            if len > 0 && s.base + self.pos * s.stride != start + len * e {
                break;
            }
            // A burst always takes its first access.
            let room = if len == 0 {
                self.cap.max(1)
            } else {
                self.cap.saturating_sub(len)
            };
            if room == 0 {
                break;
            }
            let avail = if s.stride == e { s.count - self.pos } else { 1 };
            let k = avail.min(room);
            self.pos += k;
            len += k;
        }
        Some(TraceOp {
            addr: start,
            bytes: (len * e) as u32,
            dir: self.dir,
        })
    }

    /// The next bursts as a run of them: every whole burst the current
    /// unit-stride segment holds from the cursor on, or, when each
    /// member of its progression is exactly one burst, one burst per
    /// member; else one burst by the element rule.
    fn cut(&mut self) -> Option<TraceRun> {
        if let Some(run) = self.ahead.take() {
            return Some(run);
        }
        let s = self.peek_segment()?;
        let rem = s.count - self.pos;
        if s.stride != self.e || self.cap == 0 || rem < self.cap {
            return self.burst().map(TraceRun::single);
        }
        let op = TraceOp {
            addr: s.base + self.pos * self.e,
            bytes: (self.cap * self.e) as u32,
            dir: self.dir,
        };
        let (beats, stride) = if self.pos == 0 && rem == self.cap && self.left > 0 {
            let beats = self.left.min(u32::MAX as u64 - 1) + 1;
            self.left -= beats - 1;
            self.seg.base += (beats - 1) * self.step;
            self.pos = s.count;
            (beats, self.step)
        } else {
            let beats = (rem / self.cap).min(u32::MAX as u64);
            self.pos += beats * self.cap;
            (beats, self.cap * self.e)
        };
        Some(TraceRun {
            op,
            beats: beats as u32,
            stride,
        })
    }
}

impl Iterator for SegmentStream<'_> {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        match self.ahead.take() {
            Some(run) => {
                self.ahead = run.after(1);
                Some(run.op)
            }
            None => self.burst(),
        }
    }
}

impl RequestSource for SegmentStream<'_> {
    fn total_bytes(&self) -> u64 {
        self.total
    }

    fn next_run(&mut self) -> Option<TraceRun> {
        if self.ahead.is_none() {
            let s = self.peek_segment()?;
            let e = self.e;
            let rem = s.count - self.pos;
            if rem >= 2 && s.stride != e {
                // No two elements of a non-unit-stride segment coalesce,
                // so its elements are single-element bursts forming one
                // strided run. The last one stays behind when it may yet
                // coalesce with what follows the segment: the next
                // segment's first element, one element past it (the
                // element rule's cap always admits a second element).
                let last = s.base + (s.count - 1) * s.stride;
                let joins = self.following().is_some_and(|n| n.base == last + e);
                let beats = rem - u64::from(joins);
                if beats >= 2 {
                    let beats = beats.min(u32::MAX as u64) as u32;
                    let addr = s.base + self.pos * s.stride;
                    self.pos += beats as u64;
                    return Some(TraceRun {
                        op: TraceOp {
                            addr,
                            bytes: e as u32,
                            dir: self.dir,
                        },
                        beats,
                        stride: s.stride,
                    });
                }
            }
        }
        let bursts = self.cut()?;
        let mut rest = bursts.after(1);
        let mut run = TraceRun::single(bursts.op);
        if bursts.op.bytes == MAX_BURST_BYTES {
            // A full burst: fold the train of full bursts that follows
            // at a constant forward step into one multi-beat run — the
            // shape of the grouped block column phase and the tile
            // sweep, and what the memory system's cross-bank span fuser
            // consumes. The block layouts' diagonal wrap-around seams
            // show up as a backwards or different step and end the run;
            // the bursts that end it are kept for the next call.
            let mut last = bursts.op.addr;
            while let Some(next) = rest.take().or_else(|| self.cut()) {
                rest = join(&mut run, &mut last, next);
                if rest.is_some() {
                    break;
                }
            }
        }
        self.ahead = rest;
        Some(run)
    }
}

/// The row phase as a lazy stream: every matrix row in order (read for
/// the row-wise FFT inputs, or write for storing its results).
pub fn row_phase_stream(layout: &dyn MatrixLayout, dir: Direction) -> impl RequestSource + '_ {
    let n = layout.n();
    SegmentStream::new(
        Walk::new(layout, Within::AlongRows, CellOrder::BandsFirst, n, n),
        dir,
    )
}

/// The column phase as a lazy stream: columns are processed in groups of
/// `group` consecutive columns (the paper: "data inputs of several
/// consecutive column-wise 1D FFTs will be moved from vaults to local
/// memory together"). Within a group the walk is block-friendly: for
/// each band of [`column_run`](MatrixLayout::column_run) rows, all
/// `group` columns' segments are fetched before moving down.
///
/// With `group = 1` this degenerates to the baseline strided column walk.
///
/// # Panics
///
/// Panics if `group` is zero or does not divide `n`.
pub fn col_phase_stream(
    layout: &dyn MatrixLayout,
    dir: Direction,
    group: usize,
) -> impl RequestSource + '_ {
    let n = layout.n();
    assert!(
        group > 0 && n.is_multiple_of(group),
        "group {group} must divide n {n}"
    );
    // Bands of one column with a constant row stride concatenate into a
    // single arithmetic progression, and single columns are visited in
    // matrix order: one whole-matrix cell, a segment per column.
    let (rows, cols) = if group == 1 && layout.row_stride().is_some() {
        (n, n)
    } else {
        (layout.column_run().min(n), group)
    };
    SegmentStream::new(
        Walk::new(
            layout,
            Within::DownColumns,
            CellOrder::ColumnsFirst,
            rows,
            cols,
        ),
        dir,
    )
}

/// The banded write-back stream shared by every block family: after the
/// permutation network has buffered a band of `h` matrix rows, whole
/// `w × h` blocks are emitted left to right, band by band, in the
/// within-block *column-major* order the block families store — so each
/// block coalesces into one contiguous burst wherever the layout keeps
/// it contiguous.
///
/// [`band_block_write_stream`] is the [`crate::BlockDynamic`]
/// instantiation; the burst-interleaved and irredundant families reuse
/// the same walk with their own `(w, h)`.
///
/// # Panics
///
/// Panics if `w` or `h` is zero.
pub fn block_write_stream(
    layout: &dyn MatrixLayout,
    w: usize,
    h: usize,
) -> impl RequestSource + '_ {
    SegmentStream::new(
        Walk::new(layout, Within::DownColumns, CellOrder::BandsFirst, h, w),
        Direction::Write,
    )
}

/// The write-back stream of the optimized row phase: after the
/// permutation network has buffered a band of `h` matrix rows, it emits
/// whole `w × h` blocks — full memory rows — left to right, band by
/// band. Every burst is one contiguous DRAM row.
pub fn band_block_write_stream(layout: &crate::BlockDynamic) -> impl RequestSource + '_ {
    block_write_stream(layout, layout.w, layout.h)
}

/// The column phase of the tiled (Akin et al.) architecture as a lazy
/// stream: whole tiles are fetched — one contiguous burst each — in
/// tile-*column*-major order, and an on-chip transposer
/// (`permute::TileTransposer`) peels the column segments out locally.
pub fn tile_sweep_stream(layout: &crate::Tiled, dir: Direction) -> impl RequestSource + '_ {
    SegmentStream::new(
        Walk::new(
            layout,
            Within::AlongRows,
            CellOrder::ColumnsFirst,
            layout.tile_rows(),
            layout.tile_cols(),
        ),
        dir,
    )
}

/// The write-back stream of the tiled architecture's row phase: after
/// buffering `tile_rows` matrix rows, whole tiles are emitted left to
/// right (mirror of [`band_block_write_stream`] for the Akin layout).
pub fn tile_band_write_stream(layout: &crate::Tiled) -> impl RequestSource + '_ {
    SegmentStream::new(
        Walk::new(
            layout,
            Within::AlongRows,
            CellOrder::BandsFirst,
            layout.tile_rows(),
            layout.tile_cols(),
        ),
        Direction::Write,
    )
}

/// Convenience: the number of burst requests the column phase generates
/// per column, a direct proxy for row-activation pressure. Counts the
/// stream without materializing it.
pub fn col_bursts_per_column(layout: &dyn MatrixLayout, group: usize) -> f64 {
    let bursts = col_phase_stream(layout, Direction::Read, group).count();
    bursts as f64 / layout.n() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockDynamic, LayoutParams, RowMajor, Tiled};
    use mem3d::{Geometry, TimingParams};

    fn params(n: usize) -> LayoutParams {
        LayoutParams::for_device(n, &Geometry::default(), &TimingParams::default())
    }

    #[test]
    fn streams_report_total_up_front() {
        let n = 128;
        let l = RowMajor::new(&params(n));
        let s = row_phase_stream(&l, Direction::Read);
        assert_eq!(s.total_bytes(), (n * n * 8) as u64);
        // The promise holds after draining too.
        let drained: u64 = s.map(|op| op.bytes as u64).sum();
        assert_eq!(drained, (n * n * 8) as u64);
    }

    #[test]
    fn row_phase_on_row_major_is_fully_coalesced() {
        // Adjacent rows are themselves contiguous, so the whole matrix
        // coalesces into max-size bursts — across row boundaries (rows
        // of 512 B at n = 64) and chopped at the cap inside rows (rows
        // of 16 KiB at n = 2048).
        for n in [64, 2048] {
            let l = RowMajor::new(&params(n));
            let t = row_phase_stream(&l, Direction::Read).collect_trace();
            assert_eq!(t.len(), (n * n * 8) / MAX_BURST_BYTES as usize);
            assert!(t.iter().all(|op| op.bytes == MAX_BURST_BYTES));
            assert_eq!(t.total_bytes(), (n * n * 8) as u64);
        }
    }

    #[test]
    fn col_phase_on_row_major_cannot_coalesce() {
        let n = 64;
        let l = RowMajor::new(&params(n));
        let t = col_phase_stream(&l, Direction::Read, 1).collect_trace();
        assert_eq!(t.len(), n * n, "every element is its own burst");
    }

    #[test]
    fn col_phase_on_block_layout_coalesces_into_segments() {
        let n = 512;
        let p = params(n);
        let l = BlockDynamic::with_height(&p, 64).unwrap();
        let t = col_phase_stream(&l, Direction::Read, 1).collect_trace();
        // Each column is n/h = 8 segments of h = 64 elements; the walk
        // occasionally merges a group boundary, so allow a small slack.
        let expect = n * (n / 64);
        assert!(t.len() <= expect && t.len() >= expect - n);
        let per_col = col_bursts_per_column(&l, 1);
        assert!((per_col - 8.0).abs() < 0.5, "got {per_col} bursts/column");
    }

    #[test]
    fn grouped_col_phase_reads_whole_blocks() {
        let n = 512;
        let p = params(n);
        let l = BlockDynamic::with_height(&p, 64).unwrap();
        // Group = w = 16 columns: each block is one contiguous memory row.
        let t = col_phase_stream(&l, Direction::Read, l.w).collect_trace();
        assert_eq!(
            t.len(),
            (n / 64) * (n / l.w),
            "one burst per block: blocks_down × block_cols"
        );
        assert!(t.iter().all(|op| op.bytes == 8192));
    }

    #[test]
    fn streams_cover_the_whole_matrix_once() {
        let n = 128;
        let p = params(n);
        let l = BlockDynamic::with_height(&p, 16).unwrap();
        for t in [
            row_phase_stream(&l, Direction::Read).collect_trace(),
            col_phase_stream(&l, Direction::Read, 1).collect_trace(),
            col_phase_stream(&l, Direction::Read, l.w).collect_trace(),
        ] {
            assert_eq!(t.total_bytes(), (n * n * 8) as u64);
        }
    }

    #[test]
    fn tile_streams_move_whole_tiles() {
        let n = 256;
        let p = params(n);
        let t = Tiled::row_buffer_sized(&p).unwrap(); // 32x32 tiles
        let sweep = tile_sweep_stream(&t, Direction::Read).collect_trace();
        assert_eq!(sweep.total_bytes(), (n * n * 8) as u64);
        // The 32 rows of a tile coalesce into one row-buffer-sized
        // burst; the sweep moves down a tile column, so no two tiles
        // are address-adjacent.
        assert_eq!(sweep.len(), (n / 32) * (n / 32));
        assert!(sweep
            .iter()
            .all(|op| op.bytes as usize == p.s * p.elem_bytes));
        let writes = tile_band_write_stream(&t).collect_trace();
        assert_eq!(writes.total_bytes(), (n * n * 8) as u64);
        assert!(writes.iter().all(|op| op.dir == Direction::Write));
    }

    #[test]
    fn band_block_writes_are_whole_rows() {
        let n = 512;
        let p = params(n);
        let l = BlockDynamic::with_height(&p, 64).unwrap();
        let t = band_block_write_stream(&l).collect_trace();
        // Every block is one whole 8 KiB row: full bursts, which the cap
        // keeps from merging with an address-adjacent next block.
        assert!(t.iter().all(|op| op.bytes as usize == p.s * p.elem_bytes));
        assert_eq!(t.total_bytes(), (n * n * 8) as u64);
        assert!(t.iter().all(|op| op.dir == Direction::Write));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn col_phase_group_must_divide_n() {
        let l = RowMajor::new(&params(64));
        let _ = col_phase_stream(&l, Direction::Read, 3);
    }

    /// Expands `next_run()` beat by beat into the op sequence it stands
    /// for (the [`RequestSource`] contract).
    fn expand_runs(src: &mut dyn RequestSource) -> Vec<TraceOp> {
        let mut out = Vec::new();
        while let Some(run) = src.next_run() {
            let mut op = run.op;
            for _ in 0..run.beats {
                out.push(op);
                op.addr += run.stride;
            }
        }
        out
    }

    #[test]
    fn next_run_folds_strided_columns_and_whole_row_trains() {
        let n = 64;
        let p = params(n);
        // The baseline sweep really is run-granular: one n-beat run per
        // column, its last element included — the next column's first
        // element is not adjacent, so it cannot coalesce.
        let rm = RowMajor::new(&p);
        let mut s = col_phase_stream(&rm, Direction::Read, 1);
        for col in 0..3u64 {
            let run = s.next_run().unwrap();
            assert_eq!(run.beats as usize, n);
            assert_eq!(run.stride, (n * 8) as u64);
            assert_eq!(run.op.addr, col * 8);
        }
        // The tile sweep folds each tile column's whole-tile bursts
        // into one run stepping one tile row down.
        let p = params(256);
        let t = Tiled::row_buffer_sized(&p).unwrap();
        let mut s = tile_sweep_stream(&t, Direction::Read);
        let first = s.next_run().unwrap();
        assert_eq!(first.beats as usize, 256 / t.tile_rows());
        assert_eq!(first.stride, (256 / t.tile_cols() * p.s * 8) as u64);
        let ops: Vec<TraceOp> = tile_sweep_stream(&t, Direction::Read).collect();
        assert_eq!(
            expand_runs(&mut tile_sweep_stream(&t, Direction::Read)),
            ops
        );
    }

    /// Alternates `next()` and `next_run()` on `s`, expanding each run.
    fn mixed_walk(s: &mut dyn RequestSource) -> Vec<TraceOp> {
        let mut mixed = Vec::new();
        while let Some(op) = s.next() {
            mixed.push(op);
            let Some(run) = s.next_run() else { break };
            let mut op = run.op;
            for _ in 0..run.beats {
                mixed.push(op);
                op.addr += run.stride;
            }
        }
        mixed
    }

    #[test]
    fn next_run_interleaves_with_next() {
        // Mixing granularities on one stream must still walk the same
        // sequence as the pure op stream.
        let p = params(64);
        let rm = RowMajor::new(&p);
        let pure: Vec<TraceOp> = col_phase_stream(&rm, Direction::Read, 1).collect();
        assert_eq!(
            mixed_walk(&mut col_phase_stream(&rm, Direction::Read, 1)),
            pure
        );
        let t = Tiled::new(&p, 8, 8).unwrap();
        let pure: Vec<TraceOp> = tile_sweep_stream(&t, Direction::Read).collect();
        assert_eq!(
            mixed_walk(&mut tile_sweep_stream(&t, Direction::Read)),
            pure
        );
    }
}
