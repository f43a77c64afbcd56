//! The `sweep` binary's flag handling: every bad value is refused up
//! front with one line on stderr and exit 2, never a panic, and a valid
//! run under either backend prints its fitted optima and exits 0.

use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("the sweep binary starts")
}

#[test]
fn bad_flags_exit_2_without_a_panic() {
    for args in [
        &["--instructions", "abc"][..],
        &["--max-depth", "1"],
        &["--max-depth", "3"],
        &["--max-depth", "4"],
        &["--max-depth", "99"],
        &["--instructions", "0"],
        &["--warmup", "20000000", "--backend", "model"],
        &["--workload", "nope"],
        &["--backend", "both"],
        &["--max-depth"],
        &["--no-such-flag"],
    ] {
        let out = sweep(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn both_backends_sweep_a_valid_request() {
    for backend in ["sim", "model"] {
        let out = sweep(&[
            "--workload",
            "fp-00",
            "--max-depth",
            "8",
            "--instructions",
            "4000",
            "--warmup",
            "2000",
            "--backend",
            backend,
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("cubic-fit optima"), "{backend}: {stdout}");
    }
}
