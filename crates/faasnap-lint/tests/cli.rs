//! The `faasnap-lint` binary rejects arguments it does not read with
//! status 2, before it lints anything.

use std::process::Command;

#[test]
fn unknown_argument_exits_2() {
    // A typo of `--json` must not lint anyway, even next to `--deep`.
    let out = Command::new(env!("CARGO_BIN_EXE_faasnap-lint"))
        .args(["--jsno", "--deep"])
        .output()
        .expect("faasnap-lint starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--jsno"), "must name --jsno: {stderr}");
    assert!(out.stdout.is_empty(), "still printed a report");
}
