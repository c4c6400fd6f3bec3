// simlint-fixture-path: crates/tenancy/src/arbiter.rs
// The tenancy arbitration path is P101 scope: a panicking pick would
// abort every tenant's job, so indexing mistakes must surface as
// fallback choices, never as panics — `owners[0]` included.
// simlint::entry(service_path)
fn pick(credit: &mut Vec<u64>, vault: usize, owners: &[usize]) -> usize {
    let lane = credit.get_mut(vault).unwrap();
    *lane += 1;
    if owners.is_empty() {
        unreachable!("arbiter called with no contenders");
    }
    owners[0]
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let v: Option<u64> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
