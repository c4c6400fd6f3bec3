// simlint-fixture-path: crates/layout/src/walk.rs
// A stream whose `next` indexes its cell table: a panic on the
// service path once a driver pulls from it.

pub struct Cells {
    bases: Vec<u64>,
    i: usize,
}

impl Iterator for Cells {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        let addr = self.bases[self.i];
        self.i += 1;
        Some(TraceOp { addr })
    }
}

impl RequestSource for Cells {
    fn total_bytes(&self) -> u64 {
        8 * self.bases.len() as u64
    }
}
