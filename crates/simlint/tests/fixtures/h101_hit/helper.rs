// simlint-fixture-path: crates/tenancy/src/scratch.rs
// Not annotated: the collect() is invisible to this file alone but still
// runs once per beat via `beat` → `gather`. The island fn is
// unreachable and stays clean.

pub fn gather(state: &mut State) -> u64 {
    let ids: Vec<u64> = state.jobs.iter().map(|j| j.id).collect();
    ids.len() as u64
}

fn island() -> Box<u64> {
    Box::new(0)
}
