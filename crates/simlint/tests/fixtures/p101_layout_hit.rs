// simlint-fixture-path: crates/layout/src/family.rs
// The family registry is P101 scope: `FamilyId::build` is how the
// explorer probes infeasible candidates, so a panicking constructor
// aborts a whole design-space sweep instead of landing the parameter
// in `SkipCounts`. Tests stay exempt.
// simlint::entry(service_path)
fn build(heights: &[usize], param: usize) -> usize {
    let h = heights.iter().find(|&&h| h == param).expect("feasible h");
    if *h == 0 {
        panic!("zero block height");
    }
    *h
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let v: Option<usize> = Some(4);
        assert_eq!(v.unwrap(), 4);
    }
}
