//! The `paper` binary reports bad input as one line on stderr and exits
//! with status 2, before printing anything on stdout.

use std::process::Command;

#[test]
fn bad_input_is_one_line_and_status_2() {
    let missing = std::env::temp_dir().join("gatediag_paper_cli_no_such_dir");
    let missing = missing.to_str().unwrap();
    for args in [
        &["--frobnicate"][..],
        &["--seed"],
        &["--seed", "x"],
        &["--bench-dir", missing],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("paper: "), "{args:?}: {stderr}");
    }
}
