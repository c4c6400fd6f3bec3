// simlint-fixture-path: crates/tenancy/src/beat.rs
// The per-beat entry is clean; the allocation hides one call level
// down in an un-annotated file with no entry of its own.

// simlint::entry(hot_path)
pub fn beat(state: &mut State) -> u64 {
    scratch::gather(state)
}
