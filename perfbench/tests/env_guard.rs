//! The benchmark refuses to run under a variable that changes the measured
//! program. Its own test binary, so the variable reaches no other test.

#[test]
fn oracle_switches_are_refused() {
    assert!(pytond_perfbench::guard_env().is_ok());
    std::env::set_var("PYTOND_NO_FUSE", "1");
    let err = pytond_perfbench::guard_env().unwrap_err();
    assert!(err.contains("PYTOND_NO_FUSE"), "{err}");
}
