// simlint-fixture-path: crates/tenancy/src/service.rs
// Allocation constructs in a hot_path entry itself (call depth 0) are
// flagged: every one of these runs once per grant, and the
// steady-state contract is zero heap allocations per beat.
// simlint::entry(hot_path)
fn arbitrate(running: &[Job], vault: usize) -> usize {
    let mut contenders = Vec::new();
    let owners = vec![0usize; running.len()];
    let boxed = Box::new(running.first());
    let ready: Vec<u64> = running.iter().map(|r| r.ready).collect();
    let copy = owners.to_vec();
    pick(&contenders, &owners, &ready, &copy, &boxed)
}
