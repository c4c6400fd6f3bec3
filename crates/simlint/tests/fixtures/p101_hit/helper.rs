// simlint-fixture-path: crates/mem3d/src/route.rs
// Not annotated and no entry of its own. The unwrap is still
// a service-path panic because `dispatch` reaches it. The island fn
// and the test module stay exempt: unreachable and test code never
// gate.

pub fn classify(req: Request) -> Response {
    let kind = req.kind.unwrap();
    Response { kind }
}

fn island(x: Option<u64>) -> u64 {
    x.expect("never called from any entry")
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        assert_eq!(Some(1).unwrap(), 1);
    }
}
