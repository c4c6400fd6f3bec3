//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a tag (architecture, policy
//! or candidate), start and end in nanoseconds since the tracer was
//! created, a parent and an iteration id. Spans are kept in a `Vec`
//! and written out once, when the run ends.
//!
//! Two kinds of parent link exist:
//!
//! * **nested** spans (the traced iterations) lie inside their parent's
//!   interval, so a parent's self time is its duration minus the time
//!   its children cover;
//! * **peel** spans re-time one lower layer's public call on its own,
//!   after the upper layer's call returned, and link to the upper call
//!   as parent. Self time is then the parent's duration minus the
//!   children's, the subtractive decomposition the layer peel is
//!   defined by. It is negative when the lower layer's standalone path
//!   costs more than the fused path inside the upper one.
//!
//! With tracing off every method is a no-op and nothing is recorded.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use sim_util::json::JsonObject;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// Iteration id of spans that belong to no iteration (layer peel).
pub const PEEL: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub iter: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder. Spans open and close in stack order; `open`
/// links a span to the innermost open span unless a parent is given.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    iter: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            iter: PEEL,
            spans: Vec::with_capacity(if on { 1 << 14 } else { 0 }),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the iteration id stamped on spans opened from now on.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, tag: &'static str) -> u32 {
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.open_under(name, tag, parent)
    }

    /// Opens a span under an explicit parent (a peel span's upper
    /// layer, which has already closed).
    pub fn open_under(&mut self, name: &'static str, tag: &'static str, parent: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag,
            start_ns,
            end_ns: start_ns,
            parent,
            iter: self.iter,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` and returns its duration in nanoseconds (0 with
    /// tracing off).
    pub fn close(&mut self, id: u32) -> u64 {
        if !self.on {
            return 0;
        }
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close in stack order");
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.dur_ns()
    }

    /// Runs `f` inside a span under `parent` and returns its result and
    /// duration. Used by the layer peel, which times with the tracer on.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u32, u64) {
        let id = self.open_under(name, tag, parent);
        let r = std::hint::black_box(f());
        let ns = self.close(id);
        (r, id, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the children's
    /// durations (signed; see the module docs).
    pub fn self_times(&self) -> Vec<i64> {
        let mut selfs: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                selfs[s.parent as usize] -= s.dur_ns() as i64;
            }
        }
        selfs
    }

    /// The root span above span `id` (`id` itself for a root).
    pub fn root(&self, mut id: u32) -> u32 {
        while let Some(parent) = self.spans.get(id as usize).map(|s| s.parent) {
            if parent == ROOT {
                break;
            }
            id = parent;
        }
        id
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let or_null = |v: u32, none: u32| {
            if v == none {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = JsonObject::new();
            o.field_u64("id", id as u64);
            o.field_str("name", s.name);
            o.field_str("tag", s.tag);
            o.field_u64("start_ns", s.start_ns);
            o.field_u64("end_ns", s.end_ns);
            o.field_raw("parent", &or_null(s.parent, ROOT));
            o.field_raw("iter", &or_null(s.iter, PEEL));
            writeln!(out, "{}", o.finish())?;
        }
        Ok(())
    }
}

/// Self time per layer over the spans `keep` selects (by id and span),
/// in nanoseconds.
pub fn layer_self_ns(
    tr: &Tracer,
    keep: impl Fn(u32, &Span) -> bool,
) -> BTreeMap<&'static str, i64> {
    let selfs = tr.self_times();
    let mut by_layer = BTreeMap::new();
    for (id, (s, ns)) in tr.spans().iter().zip(selfs).enumerate() {
        if keep(id as u32, s) {
            *by_layer.entry(s.layer()).or_insert(0) += ns;
        }
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_self_times_sum_to_the_root() {
        let mut tr = Tracer::new(true);
        tr.set_iter(0);
        let root = tr.open("iter", "");
        let a = tr.open("core.run_app", "baseline");
        tr.close(a);
        let b = tr.open("core.run_app", "optimized");
        tr.close(b);
        let root_ns = tr.close(root);
        let total: i64 = tr.self_times().iter().sum();
        assert_eq!(total, root_ns as i64);
        assert_eq!(tr.spans()[a as usize].parent, root);
        assert_eq!(tr.spans()[b as usize].layer(), "core");
        assert_eq!(tr.root(b), root);
        assert_eq!(tr.root(root), root);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.open("iter", "");
        assert_eq!(tr.close(id), 0);
        assert!(tr.spans().is_empty());
    }
}
