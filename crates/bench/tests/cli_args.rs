//! Bad command-line input exits 2 with a one-line message, never a
//! panic: `twod_server` with a zero bank count or zero per-bank
//! geometry, `sim --rounds 0` (a campaign that would inject nothing yet
//! report healthy), and a `--seed` with no digits.

use std::process::Command;

/// Runs `bin` with `args` and asserts exit 2, one stderr line, no panic.
fn assert_rejected(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
}

#[test]
fn twod_server_rejects_zero_geometry() {
    for flag in ["--banks", "--sets", "--ways"] {
        assert_rejected(
            env!("CARGO_BIN_EXE_twod_server"),
            &["--addr", "127.0.0.1:0", flag, "0"],
        );
    }
}

#[test]
fn sim_rejects_zero_rounds() {
    assert_rejected(env!("CARGO_BIN_EXE_sim"), &["--rounds", "0"]);
}

#[test]
fn campaign_rejects_an_empty_hex_seed() {
    assert_rejected(env!("CARGO_BIN_EXE_campaign"), &["--seed", "0x"]);
}
