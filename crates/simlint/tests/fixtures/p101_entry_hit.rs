// simlint-fixture-path: crates/mem3d/src/system.rs
// Panicking constructs in a service_path entry itself (call depth 0)
// are flagged; a justified allow silences one; unwrap_or never matches.
// simlint::entry(service_path)
fn service(x: Option<u64>, y: Option<u64>) -> u64 {
    let a = x.unwrap();
    let b = y.expect("y must be set");
    if a + b == 0 {
        panic!("impossible");
    }
    // simlint::allow(P101): bounds were checked by the caller
    let c = x.unwrap();
    a + b + c + x.unwrap_or_default()
}
