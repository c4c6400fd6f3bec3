// simlint-fixture-path: crates/tenancy/src/service.rs
// Construction-time allocations are legitimate when justified: these
// run once per service run, not per beat. The justified allow names
// the setup path; test code is exempt by construction.
// simlint::entry(hot_path)
fn setup(tenants: usize) -> Vec<Slot> {
    // simlint::allow(H101): run-setup allocation, sized once before the event loop
    let slots = vec![Slot::default(); tenants];
    slots
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch_vectors_in_tests_are_fine() {
        let v: Vec<u64> = (0..4).collect();
        assert_eq!(v.to_vec().len(), 4);
    }
}
