// simlint-fixture-path: crates/core/src/drive.rs
// The driver pulls its beats through a request stream's `next`. Its
// signature names the stream trait, so the `.next()` resolves to the
// workspace's `Iterator::next` impls — across the crate boundary, as
// trait dispatch does — and the panic in `Cells::next` is reached.

// simlint::entry(service_path)
pub fn pull<S: RequestSource>(src: &mut S) -> u64 {
    src.next().map_or(0, |op| op.addr)
}

// Without a stream in hand `next` stays a ubiquitous std name: this
// entry reaches nothing.
// simlint::entry(service_path)
pub fn first(xs: &[u64]) -> u64 {
    xs.iter().next().copied().unwrap_or(0)
}
